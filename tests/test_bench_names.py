"""The names the benchmark's tracer wraps still exist in the package.

``bench/tracing.py`` wraps functions by module and name, and taps
``candidate.classify_region``; a name the package no longer binds would
stop ``bench/run.py --trace 1``.  The tracing module is loaded from its
file, without changing ``sys.path``, and the tracer is not installed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
