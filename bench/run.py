"""Run one workload of the sparsebound benchmark and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
The run repeats whole rounds of its workload (see ``workloads.py``) until
``--seconds`` have passed, checks every output, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every round runs once untraced and once traced, the metrics
are the per-layer ones, and the spans of the first round are written to
``bench/out/``.  Times are scaled to the host's full speed, measured by a
short probe around and during each operation.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracing import LEVEL_BUCKETS, Checkpoint, Tracer
from workloads import SUITES, WORKLOADS, CheckFailed, CliResult

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
MIN_ROUNDS = 2
SETUPS_PER_ROUND = 3
# The probe's time at full speed on the 2-core host of the reference
# figures in README.md.  A time t measured while the probe took p seconds
# on average is reported as t / (p / PROBE_FULL_SPEED_S) ** h, with h the
# workload's host_sensitivity.
PROBE_FULL_SPEED_S = 2.5e-4
PROBE_EVERY_S = 0.05  # of CPU time, during an operation

KINDS = ("obstacle", "full", "height", "mixed", "profile", "strip", "zero")

END_TO_END = (("wall_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))

# Per-layer metrics: (name, unit, source).  A source is ("calls", key) for
# the first round's call count, ("self", key) for self time per round,
# ("per_call", key, scale) for the mean span time per call, or ("counter",
# key) for a count of the first round.
LAYER_METRICS = (
    [
        ("candidate.bellman_value.calls", "count", ("calls", "candidate.bellman_value")),
        ("candidate.bellman_value.self_s", "s", ("self", "candidate.bellman_value")),
    ]
    + [
        (f"candidate.bellman_value.us_per_call.{kind}", "us",
         ("per_call", f"candidate.bellman_value|kind|{kind}", 1e3))
        for kind in KINDS
    ]
    + [
        (f"candidate.bellman_value.ms_per_call.{bucket}", "ms",
         ("per_call", f"candidate.bellman_value|level|{bucket}", 1e6))
        for bucket, _ in LEVEL_BUCKETS
    ]
    + [
        (f"candidate.{fn}.calls", "count", ("calls", f"candidate.{fn}"))
        for fn in ("vertex_f", "curve_x", "curve_height")
    ]
    + [
        ("candidate.f_value.calls", "count", ("calls", "candidate.f_value")),
        ("candidate.f_value.self_s", "s", ("self", "candidate.f_value")),
        ("candidate.g_value.calls", "count", ("calls", "candidate.g_value")),
        ("candidate.g_value.self_s", "s", ("self", "candidate.g_value")),
        ("candidate.profile_slopes.self_s", "s", ("self", "candidate.profile_slopes")),
        ("geometry.lerp.calls", "count", ("calls", "geometry.lerp")),
        ("geometry.lerp.self_s", "s", ("self", "geometry.lerp")),
        ("dyadic.step_pieces.calls", "count", ("calls", "dyadic.step_pieces")),
        ("dyadic.step_pieces.self_s", "s", ("self", "dyadic.step_pieces")),
        ("dyadic.step_pieces.pieces", "count", ("counter", "dyadic.step_pieces.pieces")),
        ("dyadic.level_set_measure.calls", "count", ("calls", "dyadic.level_set_measure")),
        ("dyadic.level_set_measure.self_s", "s", ("self", "dyadic.level_set_measure")),
        ("dyadic.concat_configs.calls", "count", ("calls", "dyadic.concat_configs")),
        ("dyadic.concat_configs.self_s", "s", ("self", "dyadic.concat_configs")),
        ("dyadic.carleson_constant.calls", "count", ("calls", "dyadic.carleson_constant")),
        ("dyadic.carleson_constant.self_s", "s", ("self", "dyadic.carleson_constant")),
        ("dyadic.DyadicSet.from_intervals.self_s", "s", ("self", "dyadic.DyadicSet.from_intervals")),
        ("extremal.interpret.self_s", "s", ("self", "extremal.interpret")),
        ("extremal.curve_vertex_config.calls", "count", ("calls", "extremal.curve_vertex_config")),
        ("extremal.curve_vertex_config.self_s", "s", ("self", "extremal.curve_vertex_config")),
        ("extremal.curve_vertex_config.weights", "count",
         ("counter", "extremal.curve_vertex_config.weights")),
        ("extremal.attainment_report.self_s", "s", ("self", "extremal.attainment_report")),
    ]
    + [
        (f"verify.run_suite.self_s.{suite}", "s", ("self", f"verify.run_suite|suite|{suite}"))
        for suite in SUITES
    ]
    + [
        ("verify.iter_binary_carleson.self_s", "s", ("self", "verify.iter_binary_carleson")),
        ("verify.iter_binary_carleson.sequences", "count",
         ("counter", "verify.iter_binary_carleson.sequences")),
        ("verify.brute_force_sup.self_s", "s", ("self", "verify.brute_force_sup")),
        ("verify.brute_force_sup.configs_scanned", "count",
         ("counter", "verify.brute_force_sup.configs_scanned")),
        ("verify.brute_force_sup.entries", "count", ("counter", "verify.brute_force_sup.entries")),
        ("rational.format_rational.calls", "count", ("calls", "rational.format_rational")),
        ("rational.format_rational.self_s", "s", ("self", "rational.format_rational")),
        ("rational.parse_rational.calls", "count", ("calls", "rational.parse_rational")),
        ("rational.parse_rational.self_s", "s", ("self", "rational.parse_rational")),
        ("cli.main.self_s", "s", ("self", "cli.main")),
        ("cli.output_bytes", "bytes", ("counter", "cli.output_bytes")),
    ]
)
TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.overhead_pct", "%"))


class SetupError(Exception):
    """The checkout does not hold a runnable package."""


class OpTimeout(Exception):
    """An operation ran past its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout("time limit reached")


def _probe_kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    return total


def probe() -> float:
    """The host's current speed, as the fastest of three runs of a fixed
    Fraction loop (about 0.25 ms each at full speed)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Gauge:
    """Times a call and the host's speed over it: probes are taken just
    before the call, every ``PROBE_EVERY_S`` of CPU time during it, and
    just after it."""

    def __init__(self) -> None:
        self.seconds = 0.0  # wall time of the last call, its probes included
        self.samples: list[float] = []
        self.probing_s = 0.0  # time the probes took during the call
        signal.signal(signal.SIGPROF, self._on_tick)

    def _on_tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.probing_s += time.perf_counter() - start

    @contextmanager
    def timing(self):
        self.samples, self.probing_s = [probe()], 0.0
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        start = time.perf_counter()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            self.seconds = time.perf_counter() - start
            self.samples.append(probe())

    def at_full_speed(self, sensitivity: float = 1.0) -> float:
        """The last call's time, less its probes, scaled to full speed for
        a call that slows as the probe's slowdown to ``sensitivity``."""
        slowdown = statistics.fmean(self.samples) / PROBE_FULL_SPEED_S
        return (self.seconds - self.probing_s) / slowdown**sensitivity


def _loaded_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "sparsebound" or n.startswith("sparsebound.")}


def setup(workload_name: str, seed: int):
    """Import ``sparsebound`` afresh from this checkout's ``src/`` and draw
    the first round; return the package, the workload and the round."""
    src = ROOT / "src"
    if not (src / "sparsebound" / "__init__.py").is_file():
        raise SetupError(f"no package source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in _loaded_modules():
        del sys.modules[name]
    importlib.import_module("sparsebound.cli")
    package = sys.modules["sparsebound"]
    workload = WORKLOADS[workload_name](package, seed)
    first_round = workload.next_round()
    if Path(package.__file__).resolve().parent != (src / "sparsebound").resolve():
        raise SetupError(f"sparsebound was imported from {package.__file__}")
    return package, workload, first_round


def time_setup(workload_name: str, seed: int, gauge: Gauge) -> float:
    """Time one more setup at full speed, then put back the package in use."""
    in_use = _loaded_modules()
    try:
        with gauge.timing():
            setup(workload_name, seed)
        return gauge.at_full_speed()
    finally:
        for name in _loaded_modules():
            del sys.modules[name]
        sys.modules.update(in_use)
        gc.collect()  # the discarded copy is freed now, not in a timed operation


@dataclass
class Outcome:
    seconds: float
    failed: bool
    problem: str | None


def execute(op, tracer, gauge: Gauge, sensitivity: float) -> Outcome:
    """Run one operation, timed at full speed, then check its output.

    An operation cut off by its time limit counts at its measured time:
    the limit is wall-clock time.
    """
    point = tracer.checkpoint() if tracer.active and op.time_limit else None
    error = result = None
    with tracer.span(f"op {op.label}"), gauge.timing():
        try:
            try:
                if op.time_limit:
                    signal.setitimer(signal.ITIMER_REAL, op.time_limit)
                result = op.call()
            finally:
                if op.time_limit:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as exc:  # a failing operation is counted; the run goes on
            error = exc
    if isinstance(error, OpTimeout):
        seconds = gauge.seconds
        if point is not None:
            tracer.restore(point)  # how far it got depends on the machine
    else:
        seconds = gauge.at_full_speed(sensitivity)
    if error is not None:
        if op.kept_failing:
            return Outcome(seconds, True, None)
        return Outcome(seconds, True, f"{op.label}: {type(error).__name__}: {error}")
    if tracer.active and isinstance(result, CliResult):
        tracer.count("cli.output_bytes", len(result.out.encode()))
    return Outcome(seconds, False, _check(op.label, op.check, result))


def _check(label: str, check, *args) -> str | None:
    """Run a check; return what it found wrong, or None."""
    try:
        check(*args)
    except CheckFailed as exc:
        return f"{label}: {exc}"
    except Exception as exc:  # output the check cannot read is a wrong output
        return f"{label}: {type(exc).__name__}: {exc}"
    return None


@dataclass
class RunStats:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    rounds: list[list[float]] = field(default_factory=list)  # untraced time of each op, at full speed
    setup_seconds: list[float] = field(default_factory=list)
    traced_seconds: list[float] = field(default_factory=list)  # traced time of each round, at full speed
    first_round: Checkpoint | None = None  # tracer state after the first traced round

    @property
    def round_seconds(self) -> list[float]:
        return [sum(times) for times in self.rounds]


def measure(workload, ops, seconds: float, tracer, gauge, traced: bool, resetup) -> RunStats:
    """Run whole rounds until ``seconds`` have passed.

    Untraced runs time more setups after each round, so that the setup
    samples are spread over the run like the rounds.
    """
    stats = RunStats()
    start = time.perf_counter()
    while True:
        first = not stats.rounds
        for with_trace in (False, True) if traced else (False,):
            tracer.active = with_trace
            tracer.record = with_trace and first
            times = []
            for op in ops:
                outcome = execute(op, tracer, gauge, workload.host_sensitivity)
                times.append(outcome.seconds)
                stats.attempted += 1
                stats.failed += outcome.failed
                if outcome.problem:
                    stats.problems.append(outcome.problem)
            tracer.active = tracer.record = False
            if with_trace:
                stats.traced_seconds.append(sum(times))
                if first:
                    stats.first_round = tracer.checkpoint()
            else:
                stats.rounds.append(times)
        problem = _check(f"round {len(stats.rounds)}", workload.check_round)
        if problem:
            stats.problems.append(problem)
        if not traced:
            stats.setup_seconds += [resetup() for _ in range(SETUPS_PER_ROUND)]
        if len(stats.rounds) >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            return stats
        ops = workload.next_round()


def end_to_end_metrics(stats: RunStats) -> dict:
    # Rounds have the same kinds of operation in the same places.  Each
    # place is timed by its median over the rounds, its times already at
    # full speed.  A round's time is the sum over its places, one
    # operation's time the median over them.  Setup is sampled once
    # before the rounds and SETUPS_PER_ROUND times after each, and
    # reported as the median.
    places = [statistics.median(column) for column in zip(*stats.rounds)]
    values = {
        "wall_s": sum(places),
        "op_p50_ms": 1e3 * statistics.median(places),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(stats.setup_seconds),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(stats: RunStats, tracer) -> dict:
    rounds = len(stats.traced_seconds)
    first = stats.first_round
    metrics = {}
    for name, unit, source in LAYER_METRICS:
        kind, key = source[0], source[1]
        if kind == "calls":
            stat = first.stats.get(key)
            value = stat.calls if stat else 0
        elif kind == "counter":
            value = first.counters.get(key, 0)
        elif kind == "self":
            stat = tracer.stats.get(key)
            value = stat.self_ns / 1e9 / rounds if stat else 0.0
        else:
            stat = tracer.stats.get(key)
            value = stat.total_ns / stat.calls / source[2] if stat else 0.0
        metrics[name] = {"value": value, "unit": unit}
    untraced = stats.round_seconds
    overhead = statistics.median(t - u for t, u in zip(stats.traced_seconds, untraced))
    values = {
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100 * overhead / statistics.median(untraced),
    }
    for name, unit in TRACE_METRICS:
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def write_trace(path: Path, args, stats: RunStats, tracer) -> None:
    functions = {
        key: {"calls": s.calls, "total_s": s.total_ns / 1e9, "self_s": s.self_ns / 1e9}
        for key, s in sorted(tracer.stats.items())
        if not key.startswith("op ")
    }
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_rounds": len(stats.traced_seconds),
        "functions_all_rounds": functions,
        "counters_first_round": stats.first_round.counters,
        "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
        "spans_first_round": tracer.spans,
    }
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One process, no threads; the program sees only the benchmark's inputs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("SPARSEBOUND_WORKERS", None)
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    signal.signal(signal.SIGALRM, _on_alarm)

    try:
        # numpy, which the package imports, is loaded before the setups: an
        # extension module loads once per process, so its import could not
        # be repeated and would enter setup_s as a single sample.
        import numpy  # noqa: F401

        gauge = Gauge()
        with gauge.timing():
            package, workload, ops = setup(args.workload, args.seed)
        first_setup = gauge.at_full_speed()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer()
    if args.trace:
        tracer.install(package)
    problems = [p for p in [_check("run check", workload.check_run)] if p]
    stats = measure(
        workload, ops, args.seconds, tracer, gauge, bool(args.trace),
        lambda: time_setup(args.workload, args.seed, gauge),
    )
    stats.setup_seconds.append(first_setup)
    problems += stats.problems

    if args.trace:
        metrics = layer_metrics(stats, tracer)
        write_trace(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", args, stats, tracer)
    else:
        metrics = end_to_end_metrics(stats)
    for line in problems[:10]:
        print(f"problem: {line}", file=sys.stderr)
    places = len(stats.rounds[0])
    print(
        f"{args.workload}: {len(stats.rounds)} rounds of {places} places, "
        f"{stats.attempted} operations, {stats.failed} failed, {len(problems)} problems",
        file=sys.stderr,
    )
    if not args.trace:
        print(f"  setup_s is the median of {len(stats.setup_seconds)} setups", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": stats.attempted,
                "failed": stats.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
