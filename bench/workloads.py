"""The benchmark's workloads: inputs drawn from the seed, operations, checks.

A workload hands out rounds.  A round is a fixed list of operations that
together give one certified result; its inputs come from a random stream
seeded by the benchmark seed, so the same seed gives the same rounds.
Every operation goes through a public entry point (``cli.main`` with its
output captured, or ``candidate.bellman_value``) and is checked against
the paper's closed forms, the benchmark's own oracles or exact
properties, never against stored output.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Any, Callable

from oracles import SupTable, parse_rational, simulate

SUITES = ("obstacle", "concavity", "jump", "fjg", "slopes", "gconsist", "dynamics")


class CheckFailed(Exception):
    """An output of the program disagrees with an independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def run_cli(cli, argv: list[str]) -> CliResult:
    """Run ``sparsebound`` in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    kept_failing: str | None = None  # the known fault that makes it fail
    time_limit: float | None = None  # seconds


def _fmt(q: F) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _draw(rng: random.Random, lo: F, hi: F, bound: int) -> F:
    """A rational in [lo, hi] with denominator at most ``bound``."""
    q = rng.randint(1, bound)
    return F(rng.randint(math.ceil(lo * q), math.floor(hi * q)), q)


def _cli_json(result: CliResult) -> Any:
    expect(result.code == 0, f"exit status {result.code}: {result.err.strip()[-200:]}")
    return json.loads(result.out)


class Workload:
    name = ""
    # How an operation's time follows the host's speed: it slows as the
    # probe's slowdown (see run.py) to this power.  Fitted per workload as
    # the slope of log time against log probe time, over operations of
    # the same place in a run; pure-Python work slows with the probe.
    host_sensitivity = 1.0

    def __init__(self, package, seed: int) -> None:
        self.sb = package
        self.rng = random.Random(f"{self.name}:{seed}")

    def next_round(self) -> list[Op]:
        raise NotImplementedError

    def check_round(self) -> None:
        """Checks of the round as a whole, outside the timed operations."""

    def check_run(self) -> None:
        """Checks made once per run, outside the timed operations."""

    def _cli_op(self, argv: list[str], check, **extra) -> Op:
        return Op(" ".join(argv), lambda: run_cli(self.sb.cli, argv), check, **extra)


class Certify(Workload):
    """``verify all`` with fresh seeds, plus closed forms at the benchmark's own points."""

    name = "certify"
    OPS = 6
    COUNT = 100
    POINTS = 40  # per closed form and per property, each round

    def __init__(self, package, seed: int) -> None:
        super().__init__(package, seed)
        self.used: set[int] = set()

    def next_round(self) -> list[Op]:
        ops = []
        for _ in range(self.OPS):
            s = self.rng.randrange(10**9)
            while s in self.used:
                s = self.rng.randrange(10**9)
            self.used.add(s)
            argv = ["verify", "all", "--seed", str(s), "--count", str(self.COUNT)]
            ops.append(self._cli_op(argv, self._check_report))
        self.points = self._draw_points()
        return ops

    def _check_report(self, result: CliResult) -> None:
        report = _cli_json(result)
        expect([s["check"] for s in report] == list(SUITES), "suite list differs")
        for suite in report:
            expect(suite["samples"] == self.COUNT, f"{suite['check']}: samples {suite['samples']}")
            expect(suite["violations"] == [], f"{suite['check']}: violations reported")

    def _draw_points(self) -> dict[str, list]:
        rng, n, one, two = self.rng, self.POINTS, F(1), F(2)
        points: dict[str, list] = {"obstacle": [], "full": [], "height": [], "mixed": []}
        for _ in range(n):
            x, a = _draw(rng, F(0), one, 40), _draw(rng, F(0), two, 40)
            points["obstacle"].append((x, a, _draw(rng, F(-4), F(0), 40), one))
            # Levels in (0, 1]: the phase portrait of the bound.
            level = _draw(rng, F(1, 40), one, 40)
            a = one + _draw(rng, F(0), one, 40)
            lo = level * (3 - a) / 2
            points["full"].append((lo + (1 - lo) * _draw(rng, F(0), one, 16), a, level, one))
            a = _draw(rng, F(0), one, 40)
            x = level * a + (1 - level * a) * _draw(rng, F(0), one, 16)
            points["height"].append((x, a, level, a))
            # Mixed: level*a/4 < x < level*a for a <= 1, < level*(3 - a)/2 above.
            a = _draw(rng, F(1, 40), F(79, 40), 40)
            lo, hi = level * a / 4, level * min(a, (3 - a) / 2)
            x = lo + (hi - lo) * F(rng.randint(1, 16), 17)
            points["mixed"].append((x, a, level, (a + 2 * x / level) / 3))
        points["concavity"] = [
            (
                _draw(rng, F(1, 12), F(6), 12),
                [(_draw(rng, F(0), one, 48), _draw(rng, F(0), two, 48)) for _ in range(2)],
            )
            for _ in range(n)
        ]
        points["jump"] = [
            (_draw(rng, F(0), one, 48), _draw(rng, F(0), one, 48), _draw(rng, F(-1), F(6), 48))
            for _ in range(n)
        ]
        return points

    def check_round(self) -> None:
        bellman = self.sb.candidate.bellman_value
        for region in ("obstacle", "full", "height", "mixed"):
            for x, a, level, value in self.points[region]:
                got = bellman(x, a, level)
                expect(got == value, f"B({x}, {a}, {level}) = {got}, {region} form gives {value}")
        for level, ((x1, a1), (x2, a2)) in self.points["concavity"]:
            mid = bellman((x1 + x2) / 2, (a1 + a2) / 2, level)
            ends = bellman(x1, a1, level) + bellman(x2, a2, level)
            expect(2 * mid >= ends, f"concavity fails between ({x1}, {a1}) and ({x2}, {a2}) at {level}")
        for x, a, level in self.points["jump"]:
            expect(
                bellman(x, a + 1, level + x) >= bellman(x, a, level),
                f"jump inequality fails at ({x}, {a}, {level})",
            )


def _x1_chain_value(level: F) -> F:
    """Sup at x = 1, height 2, attained by the full-measure chains."""
    return F(1, 2 ** max(0, math.ceil(level) - 2))


class Brute(Workload):
    """Exhaustive ``brute 3`` with four fresh query levels per operation."""

    name = "brute"
    # Most of a brute call is numpy sweeping arrays of hundreds of MB,
    # which slows less than the interpreter: the fit over 50 calls gave 0.50.
    host_sensitivity = 0.5
    OPS = 2
    LEVELS = 4
    GRID = sorted({F(p, q) for q in range(1, 11) for p in range(1, 4 * q + 1)})
    CORNERS = ((F(1), F(2), F(2)), (F(1, 2), F(2), F(5, 2)), (F(1), F(1), F(1)))

    def __init__(self, package, seed: int) -> None:
        super().__init__(package, seed)
        self.used: set[tuple[F, ...]] = set()
        self.reference_levels = sorted(self.rng.sample(self.GRID, self.LEVELS))

    def next_round(self) -> list[Op]:
        ops = []
        for _ in range(self.OPS):
            levels = tuple(sorted(self.rng.sample(self.GRID, self.LEVELS)))
            while levels in self.used:
                levels = tuple(sorted(self.rng.sample(self.GRID, self.LEVELS)))
            self.used.add(levels)
            ops.append(self._cli_op(self._argv(3, levels), self._checker(levels)))
        return ops

    @staticmethod
    def _argv(depth: int, levels) -> list[str]:
        argv = ["brute", str(depth)]
        for level in levels:
            argv += ["--lambda", _fmt(level)]
        return argv

    @staticmethod
    def _entries(report: dict) -> dict[tuple[F, F, F], tuple[F, F, bool]]:
        table = {}
        for e in report["entries"]:
            key = (parse_rational(e["x"]), parse_rational(e["A"]), parse_rational(e["lambda"]))
            max_v, bound = parse_rational(e["maxV"]), parse_rational(e["B"])
            expect(max_v <= bound, f"entry {key}: maxV {max_v} above B {bound}")
            expect(e["attained"] == (max_v == bound), f"entry {key}: attained flag wrong")
            table[key] = (max_v, bound, e["attained"])
        return table

    def _checker(self, levels):
        def check(result: CliResult) -> None:
            report = _cli_json(result)
            expect(report["depth"] == 3, "wrong depth")
            expect(report["exhaustive"] is True, "not exhaustive")
            expect(report["domination"] is True, "domination false")
            table = self._entries(report)
            for corner in self.CORNERS:
                expect(corner in table and table[corner][2], f"corner {corner} not attained")
            for level in levels:
                want = _x1_chain_value(level)
                got = table.get((F(1), F(2), level))
                expect(got is not None and got[:2] == (want, want), f"(1, 2, {level}): {got}, want {want}")

        return check

    def check_run(self) -> None:
        """The depth-2 report against the independent enumerator."""
        truth = SupTable(2)
        report = _cli_json(run_cli(self.sb.cli, self._argv(2, self.reference_levels)))
        expect(report["configs_scanned"] == truth.configs, "depth-2 configuration count differs")
        for (x, a, level), (max_v, _, _) in self._entries(report).items():
            sup = truth.sup(x, a, level)
            expect(sup is not None, f"depth 2: no configuration has key ({x}, {a})")
            if level in self.reference_levels:
                expect(max_v == sup, f"depth 2 at ({x}, {a}, {level}): {max_v}, true sup {sup}")
            else:
                expect(max_v <= sup, f"depth 2 at ({x}, {a}, {level}): {max_v} above true sup {sup}")


# The bound at the lattice point x = 2**-n, level N - 2**-n, height 2.
def _lattice_value(n: int, big_n: int) -> F:
    return F(1, 2**n) * F(2) ** (3 - big_n)


def _third_brackets(level: F) -> tuple[F, F]:
    """Closed-form bounds on B(1/3, 2, level) from the lattice at x = 1/4 and 1/2.

    B rises with x and falls with the level, so the x = 1/4 value at the
    nearest lattice level above and the x = 1/2 value at the nearest one
    below enclose it.
    """
    above = math.ceil(level + F(1, 4))
    below = math.floor(level + F(1, 2))
    return _lattice_value(2, above), _lattice_value(1, below)


class Lattice(Workload):
    """Curve-vertex extremizers, far lattice points, and two known faults."""

    name = "lattice"
    M = 8  # extremize every vertex with m <= M
    # One N from each window for every n <= 8.  The windows are narrow so
    # that a place costs about the same in every round.
    WINDOWS = ((90, 100), (900, 1000), (2700, 3000))
    THIRD_LEVELS = 8  # rising levels at x = 1/3, one just above each multiple of 250
    TIME_LIMIT = 0.5
    HUGE_LEVEL = 10**6 - F(1, 4)
    BIG_EVAL = 15000

    def next_round(self) -> list[Op]:
        ops = []
        for m in range(self.M + 1):
            for k in range(m + 1):
                ops.append(self._cli_op(["extremize", str(m), str(k)], self._extremize_checker(m, k)))
        for n in range(9):
            for lo, hi in self.WINDOWS:
                big_n = self.rng.randint(lo, hi)
                ops.append(self._bellman_op(F(1, 2**n), big_n - F(1, 2**n), self._lattice_checker(n, big_n)))
        self.third_levels = []
        self.third_values: dict[int, F] = {}
        for i in range(self.THIRD_LEVELS):
            q = self.rng.randint(1, 16)
            level = 250 * (i + 1) + F(self.rng.randint(1, 10 * q), q)
            self.third_levels.append(level)
            ops.append(self._bellman_op(F(1, 3), level, self._third_checker(i, level)))
        ops.append(
            self._bellman_op(
                F(1, 3),
                self.HUGE_LEVEL,
                self._third_checker(None, self.HUGE_LEVEL),
                kept_failing="candidate.curve_x scans every curve segment up to the level",
                time_limit=self.TIME_LIMIT,
            )
        )
        ops.append(
            self._cli_op(
                ["eval", "--which", "B", "1", "2", str(self.BIG_EVAL)],
                self._big_eval_check,
                kept_failing="rational.format_rational exceeds the int-to-str digit limit",
            )
        )
        return ops

    def _bellman_op(self, x: F, level: F, check, **extra) -> Op:
        label = f"bellman_value({x}, 2, {level})"
        return Op(label, lambda: self.sb.candidate.bellman_value(x, F(2), level), check, **extra)

    def _extremize_checker(self, m: int, k: int):
        x, level, value = F(1, 2**k), m - k + 3 - F(1, 2**k), F(1, 2**m)

        def check(result: CliResult) -> None:
            data = _cli_json(result)
            report, target = data["report"], data["report"]["target"]
            expect(report["attained"] is True, "not attained")
            printed = {key: parse_rational(target[key]) for key in ("x", "A", "lambda", "B")}
            expect(printed == {"x": x, "A": 2, "lambda": level, "B": value}, f"target {target}")
            expect(parse_rational(report["achieved_V"]) == value, "achieved_V")
            expect(parse_rational(report["config_measure"]) == x, "config_measure")
            expect(parse_rational(report["config_height"]) == 2, "config_height")
            sim = simulate(data["config"])
            expect(sim.measure == x, f"simulated measure {sim.measure}")
            expect(sim.height == 2, f"simulated height {sim.height}")
            expect(sim.carleson <= 2, f"simulated Carleson constant {sim.carleson}")
            expect(sim.level_set(level) == value, f"simulated level set {sim.level_set(level)}")

        return check

    @staticmethod
    def _lattice_checker(n: int, big_n: int):
        def check(value: F) -> None:
            expect(value == _lattice_value(n, big_n), f"lattice n={n}, N={big_n}: {value}")

        return check

    def _third_checker(self, index: int | None, level: F):
        low, high = _third_brackets(level)

        def check(value: F) -> None:
            expect(low <= value <= high, f"B(1/3, 2, {level}) outside its lattice brackets")
            if index is not None:
                self.third_values[index] = value

        return check

    def _big_eval_check(self, result: CliResult) -> None:
        expect(result.code == 0, f"exit status {result.code}")
        value = parse_rational(result.out.split()[0])
        expect(value == _x1_chain_value(F(self.BIG_EVAL)), "eval at level 15000")

    def check_round(self) -> None:
        # A failed operation leaves a gap; it is reported as failed already.
        bellman = self.sb.candidate.bellman_value
        previous = None
        for i, level in enumerate(self.third_levels):
            value = self.third_values.get(i)
            if value is None:
                continue
            expect(
                bellman(F(1, 4), F(2), level) <= value <= bellman(F(1, 2), F(2), level),
                f"B(1/3, 2, {level}) not between B(1/4) and B(1/2)",
            )
            expect(previous is None or value <= previous, f"B(1/3, 2, .) rises at level {level}")
            previous = value


WORKLOADS = {cls.name: cls for cls in (Certify, Brute, Lattice)}
