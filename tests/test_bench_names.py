"""The names the benchmark's tracer wraps still exist in the package.

``bench/tracing.py`` wraps functions by module and name, and taps
``candidate.classify_region``; a name the package no longer binds would
stop ``bench/run.py --trace 1``, and a ``bellman_value`` that stopped
calling ``classify_region`` by that name would leave its per-kind rows
empty.  The tracing module is loaded from its file, without changing
``sys.path``, and the tracer is not installed.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def load_traced(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while being built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.TRACED


def test_traced_names_resolve(monkeypatch):
    wanted = [(layer, name) for layer, names in load_traced(monkeypatch).items() for name in names]
    wanted.append(("candidate", "classify_region"))
    missing = []
    for layer, name in wanted:
        target = importlib.import_module(f"sparsebound.{layer}")
        for part in name.split("."):  # DyadicSet.from_intervals is looked up on its class
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{layer}.{name}")
    assert len(wanted) == 23
    assert missing == []


def test_layers_resolve_after_importing_the_cli(monkeypatch):
    # bench/run.py imports sparsebound.cli alone, then Tracer.install reads
    # each layer as an attribute of the package, verify among them, which
    # the CLI does not import.
    layers = list(load_traced(monkeypatch))
    code = (
        "import sys, sparsebound.cli\n"
        "import sparsebound\n"
        "before = 'sparsebound.verify' in sys.modules\n"
        f"found = [getattr(sparsebound, layer) is sys.modules['sparsebound.' + layer] for layer in {layers!r}]\n"
        "print(before, found)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout == f"False {[True] * len(layers)}\n", proc.stderr


# A point of every region kind, as (x, a, level).
KIND_POINTS = {
    "obstacle": (F(1, 3), F(2), F(-1)),
    "full": (F(1), F(2), F(1)),
    "height": (F(3, 4), F(1, 2), F(1, 2)),
    "mixed": (F(1, 4), F(1), F(1, 2)),
    "profile": (F(7, 80), F(1), F(1, 2)),
    "strip": (F(1, 2), F(2), F(5, 2)),
    "zero": (F(0), F(2), F(3)),
}


def test_bellman_value_calls_classify_region_once(monkeypatch):
    # The tracer tags each bellman_value span with its region kind by
    # rebinding the module's classify_region; each evaluation must go
    # through that name exactly once, or the per-kind metrics go dark.
    from sparsebound import candidate

    classify = candidate.classify_region
    kinds = []

    def tap(*args, **kwargs):
        tag = classify(*args, **kwargs)
        kinds.append(tag.kind.value)
        return tag

    monkeypatch.setattr(candidate, "classify_region", tap)
    for kind, point in KIND_POINTS.items():
        kinds.clear()
        candidate.bellman_value(*point)
        assert kinds == [kind]
    assert sorted(KIND_POINTS) == sorted(k.value for k in candidate.RegionKind)
