"""Property harness and brute-force certification.

Every check here is exact: samples are rational, comparisons are rational,
and a reported violation carries a witness from which both sides can be
recomputed bit for bit.  Two tables drive the checks.  Each suite has a
sampler that lays out its witnesses from a seed, and each check has one
evaluator of both sides and the relation they must satisfy; ``run_suite``
and ``replay`` both go through the evaluators.  The brute-force driver
certifies, over every binary weight sequence with Carleson constant at most
2 against every set resolved at a small depth, that no level-set measure
ever exceeds ``bellman_value``, and records where equality is attained.  It
runs the paper's Bellman recursion over the dyadic tree instead of
enumerating the configurations.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .candidate import (
    bellman_value,
    f_extended,
    f_value,
    g_value,
    profile_slopes,
    recip_slope_forms,
    segment_slope,
)
from .dyadic import (
    CarlesonSequence,
    Config,
    DyadicInterval,
    DyadicSet,
    _cells_reaching,
    _value_cells,
    carleson_constant,
    concat_identity,
)
from .rational import DomainError, _exact, _index, format_rational

__all__ = [
    "SampleSpec",
    "Violation",
    "replay",
    "default_level_grid",
    "DEFAULT_CONCAVITY_GRID",
    "SLOPES_X_MIN",
    "SLOPES_MAX_INDEX",
    "SUITE_NAMES",
    "run_suite",
    "ExhaustiveModeError",
    "EXHAUSTIVE_DEPTH_CAP",
    "intervals_to_depth",
    "iter_binary_carleson",
    "brute_force_sup",
    "ReportEntry",
    "BruteForceReport",
]

ZERO = Fraction(0)
ONE = Fraction(1)
TWO = Fraction(2)


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic sampling plan for a property check.

    A count below 1, which would check nothing, and an inexact grid level
    raise ``DomainError``.
    """

    seed: int
    count: int
    lambda_grid: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if _index(self.count, "sample count") < 1:
            raise DomainError(f"sample count must be at least 1, got {self.count}")
        grid = tuple(_exact(level, "grid level") for level in self.lambda_grid)
        object.__setattr__(self, "lambda_grid", grid)


@dataclass(frozen=True)
class Violation:
    """A failed exact comparison, replayable from its witness."""

    check: str
    witness: tuple[tuple[str, Fraction], ...]
    lhs: Fraction
    rhs: Fraction

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "witness": {k: format_rational(v) for k, v in self.witness},
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
        }


def _witness(**values: Fraction | int) -> tuple[tuple[str, Fraction], ...]:
    return tuple((k, Fraction(v)) for k, v in values.items())


# Sampled rationals have denominators up to this bound.
_DENOMINATOR_BOUND = 32


def _sample_fraction(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    q = rng.randint(1, _DENOMINATOR_BOUND)
    p = rng.randint(-(-lo.numerator * q // lo.denominator), hi.numerator * q // hi.denominator)
    return Fraction(p, q)


# One-entry memos (these two and ``_dynamics_instance``).  A sampler
# computes them to lay out its witnesses and the evaluators read them back,
# so each is computed once per level, form pair or instance.  The candidate
# functions are looked up at call time, so wrappers installed on them see
# every call.

@lru_cache(maxsize=1)
def _profile_slopes(level: Fraction, x_min: Fraction) -> tuple[Fraction, ...]:
    return profile_slopes(level, x_min)


@lru_cache(maxsize=1)
def _form_pair(window: int, m: int) -> tuple[dict, dict]:
    return recip_slope_forms(window, m), recip_slope_forms(window, m + 1)


# Evaluators, one per check: both sides of the check recomputed exactly
# from a witness.

def _eval_obstacle(w: dict) -> tuple[Fraction, Fraction]:
    return bellman_value(w["x"], w["A"], w["lambda"]), ONE


def _eval_concavity(w: dict) -> tuple[Fraction, Fraction]:
    mid_x = (w["x1"] + w["x2"]) / 2
    mid_a = (w["A1"] + w["A2"]) / 2
    lhs = bellman_value(mid_x, mid_a, w["lambda"])
    rhs = (
        bellman_value(w["x1"], w["A1"], w["lambda"])
        + bellman_value(w["x2"], w["A2"], w["lambda"])
    ) / 2
    return lhs, rhs


def _eval_jump(w: dict) -> tuple[Fraction, Fraction]:
    lhs = bellman_value(w["x"], w["A"] + 1, w["lambda"] + w["x"])
    rhs = bellman_value(w["x"], w["A"], w["lambda"])
    return lhs, rhs


def _eval_fjg(w: dict) -> tuple[Fraction, Fraction]:
    return f_value(w["x"], w["lambda"] + w["x"]), g_value(w["x"], w["lambda"])


def _eval_gconsist(w: dict) -> tuple[Fraction, Fraction]:
    lhs = g_value(w["x"], w["lambda"])
    if w["lambda"] > 1:
        rhs = f_extended(2 * w["x"], w["lambda"]) / 2
    else:
        rhs = bellman_value(w["x"], ONE, w["lambda"])
    return lhs, rhs


def _eval_slopes_monotone(w: dict) -> tuple[Fraction, Fraction]:
    slopes = _profile_slopes(w["lambda"], w["x_min"])
    i = int(w["i"])
    return slopes[i], slopes[i + 1]


def _form_value(form: tuple[Fraction, Fraction], level: Fraction) -> Fraction:
    c0, c1 = form
    return c0 + c1 * level


def _eval_slopes_mid_vs_low(w: dict) -> tuple[Fraction, Fraction]:
    forms, forms_next = _form_pair(int(w["window"]), int(w["m"]))
    level = w["lambda"]
    return _form_value(forms["mid"][0], level), _form_value(forms_next["low"][0], level)


def _eval_slopes_high_vs_mid(w: dict) -> tuple[Fraction, Fraction]:
    forms, forms_next = _form_pair(int(w["window"]), int(w["m"]))
    level = w["lambda"]
    return _form_value(forms["high"][0], level), _form_value(forms_next["mid"][0], level)


def _eval_slopes_form(w: dict) -> tuple[Fraction, Fraction]:
    window, m = int(w["window"]), int(w["m"])
    form = recip_slope_forms(window, m)[_FORM_NAMES[int(w["form"])]][0]
    return 1 / _form_value(form, w["lambda"]), segment_slope(m + 1, w["lambda"])


def _eval_dynamics(w: dict) -> tuple[Fraction, Fraction]:
    c1, c2, gamma, level = _dynamics_instance(int(w["seed"]), int(w["index"]))
    return concat_identity(c1, c2, gamma, level)


_FORM_NAMES = {0: "low", 1: "mid", 2: "high"}


def _both_positive_and_ge(lhs: Fraction, rhs: Fraction) -> bool:
    return lhs > 0 and rhs > 0 and lhs >= rhs


# Check name -> (evaluator, relation the two sides must satisfy).
_CHECKS = {
    "obstacle": (_eval_obstacle, operator.eq),
    "concavity": (_eval_concavity, operator.ge),
    "jump": (_eval_jump, operator.ge),
    "fjg": (_eval_fjg, operator.ge),
    "gconsist": (_eval_gconsist, operator.eq),
    "slopes:monotone": (_eval_slopes_monotone, operator.ge),
    "slopes:mid-vs-low": (_eval_slopes_mid_vs_low, _both_positive_and_ge),
    "slopes:high-vs-mid": (_eval_slopes_high_vs_mid, _both_positive_and_ge),
    "slopes:form": (_eval_slopes_form, operator.eq),
    "dynamics": (_eval_dynamics, operator.eq),
}


def replay(violation: Violation) -> tuple[Fraction, Fraction]:
    """Recompute both sides of a violation from its witness."""
    evaluate, _ = _CHECKS[violation.check]
    return evaluate(dict(violation.witness))


# Samplers, one per suite: the (check name, witness) pairs it checks, in a
# fixed order drawn from the spec's seed.

def _sample_obstacle(spec: SampleSpec) -> Iterator[tuple[str, tuple]]:
    """The bound is identically 1 at nonpositive levels."""
    rng = random.Random(spec.seed)
    for _ in range(spec.count):
        x = _sample_fraction(rng, ZERO, ONE)
        a = _sample_fraction(rng, ZERO, TWO)
        level = _sample_fraction(rng, Fraction(-5), ZERO)
        yield "obstacle", _witness(x=x, A=a, **{"lambda": level})


DEFAULT_CONCAVITY_GRID = (
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(5, 2),
    Fraction(7, 2),
    Fraction(9, 2),
)


def _sample_concavity(spec: SampleSpec) -> Iterator[tuple[str, tuple]]:
    """Midpoint concavity of the bound in (x, height) at each grid level."""
    for level in spec.lambda_grid or DEFAULT_CONCAVITY_GRID:
        rng = random.Random(f"{spec.seed}:{level}")
        for _ in range(spec.count):
            x1 = _sample_fraction(rng, ZERO, ONE)
            a1 = _sample_fraction(rng, ZERO, TWO)
            x2 = _sample_fraction(rng, ZERO, ONE)
            a2 = _sample_fraction(rng, ZERO, TWO)
            yield "concavity", _witness(x1=x1, A1=a1, x2=x2, A2=a2, **{"lambda": level})


def _sample_jump(spec: SampleSpec) -> Iterator[tuple[str, tuple]]:
    """Raising the height by 1 and the level by x never lowers the bound (heights in [0, 1])."""
    rng = random.Random(spec.seed)
    for _ in range(spec.count):
        x = _sample_fraction(rng, ZERO, ONE)
        a = _sample_fraction(rng, ZERO, ONE)
        level = _sample_fraction(rng, Fraction(-1), Fraction(5))
        yield "jump", _witness(x=x, A=a, **{"lambda": level})


def _sample_fjg(spec: SampleSpec) -> Iterator[tuple[str, tuple]]:
    """The a=2 profile after a jump dominates the a=1 profile."""
    rng = random.Random(spec.seed)
    for _ in range(spec.count):
        x = _sample_fraction(rng, ZERO, ONE)
        level = _sample_fraction(rng, Fraction(1, _DENOMINATOR_BOUND), Fraction(6))
        yield "fjg", _witness(x=x, **{"lambda": level})


def _sample_gconsist(spec: SampleSpec) -> Iterator[tuple[str, tuple]]:
    """The a=1 profile agrees with the bound at height 1 (both level regimes)."""
    rng = random.Random(spec.seed)
    for i in range(spec.count):
        x = _sample_fraction(rng, ZERO, ONE)
        if i % 2 == 0:
            level = _sample_fraction(rng, Fraction(1, _DENOMINATOR_BOUND), ONE)
        else:
            level = _sample_fraction(rng, ONE, Fraction(6))
            if level == 1:
                level = Fraction(3, 2)
        yield "gconsist", _witness(x=x, **{"lambda": level})


def default_level_grid(count: int = 50) -> tuple[Fraction, ...]:
    """A rational grid of the given size spanning (0, 10]."""
    return tuple(Fraction(10 * j, count) for j in range(1, count + 1))


# The slopes suite checks the profile on [SLOPES_X_MIN, 1] and the slope
# certificates for window and curve indices up to SLOPES_MAX_INDEX.
SLOPES_X_MIN = Fraction(1, 4096)
SLOPES_MAX_INDEX = 10


def _sample_slopes(spec: SampleSpec) -> Iterator[tuple[str, tuple]]:
    """Concavity of the a=2 profile, plus the closed-form slope certificates.

    Profile slopes listed left to right must be non-increasing.  The closed
    forms of the reciprocal slopes are linear in the level, so checking each
    certificate inequality at both endpoints of its level range certifies it
    on the whole range; the forms themselves are cross-checked against the
    geometric segment slope at interior points.
    """
    for level in spec.lambda_grid or default_level_grid():
        for i in range(len(_profile_slopes(level, SLOPES_X_MIN)) - 1):
            yield "slopes:monotone", _witness(i=i, x_min=SLOPES_X_MIN, **{"lambda": level})
    for window in range(2, SLOPES_MAX_INDEX + 1):
        for m in range(max(1, window - 1), SLOPES_MAX_INDEX + 1):
            forms, forms_next = _form_pair(window, m)
            for fi, name in _FORM_NAMES.items():
                lo, hi = forms[name][1]
                probe = (lo + hi) / 2
                yield "slopes:form", _witness(window=window, m=m, form=fi, **{"lambda": probe})
            pairs = (
                ("slopes:mid-vs-low", forms["mid"][1]),
                ("slopes:high-vs-mid", forms_next["mid"][1]),
            )
            for name, levels in pairs:
                for level in levels:
                    yield name, _witness(window=window, m=m, **{"lambda": level})


def _random_config(rng: random.Random, set_depth: int = 3, seq_depth: int = 2) -> Config:
    mask = rng.getrandbits(2**set_depth)
    subset = DyadicSet.from_cells(set_depth, mask)
    mapping: dict[DyadicInterval, Fraction] = {}
    for d in range(seq_depth + 1):
        for i in range(2**d):
            roll = rng.random()
            if roll < 0.25:
                mapping[DyadicInterval(d, i)] = ONE
            elif roll < 0.4:
                mapping[DyadicInterval(d, i)] = Fraction(rng.randint(1, 4), 4)
    return Config(subset, CarlesonSequence.from_mapping(mapping))


@lru_cache(maxsize=1)
def _dynamics_instance(seed: int, index: int) -> tuple[Config, Config, Fraction, Fraction]:
    rng = random.Random(f"{seed}:{index}")
    c1 = _random_config(rng)
    c2 = _random_config(rng)
    gamma = (ZERO, Fraction(1, 2), ONE)[index % 3]
    level = Fraction(rng.randint(-4, 24), 4)
    return c1, c2, gamma, level


def _sample_dynamics(spec: SampleSpec) -> Iterator[tuple[str, tuple]]:
    """Exact concatenation identity on seeded random configuration pairs."""
    for index in range(spec.count):
        _, _, gamma, level = _dynamics_instance(spec.seed, index)
        yield "dynamics", _witness(seed=spec.seed, index=index, gamma=gamma, **{"lambda": level})


# Suite name -> sampler, in the order ``verify all`` runs them.
_SUITES = {
    "obstacle": _sample_obstacle,
    "concavity": _sample_concavity,
    "jump": _sample_jump,
    "fjg": _sample_fjg,
    "slopes": _sample_slopes,
    "gconsist": _sample_gconsist,
    "dynamics": _sample_dynamics,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, spec: SampleSpec) -> list[Violation]:
    """Run one named suite with the given sampling plan."""
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}")
    out = []
    for check, witness in _SUITES[name](spec):
        evaluate, holds = _CHECKS[check]
        lhs, rhs = evaluate(dict(witness))
        if not holds(lhs, rhs):
            out.append(Violation(check, witness, lhs, rhs))
    return out


# Brute force over all small-depth configurations.

# The exhaustive tables take about a second at depth 4 and about 13 s at
# depth 5.
EXHAUSTIVE_DEPTH_CAP = 4
SAMPLED_DEPTH_CAP = 8


class ExhaustiveModeError(ValueError):
    """Exhaustive enumeration was requested beyond the supported depth."""


def intervals_to_depth(depth: int) -> list[DyadicInterval]:
    """All dyadic intervals of depth at most ``depth``, breadth first."""
    return [DyadicInterval(d, i) for d in range(depth + 1) for i in range(2**d)]


def iter_binary_carleson(depth: int) -> Iterator[int]:
    """Bitmasks of the binary sequences on depth <= ``depth`` with constant <= 2.

    Masks are over ``intervals_to_depth(depth)``.  Every mask is tried
    through ``carleson_constant``, so the cost doubles with each interval
    (2**15 masks at depth 3): this is meant for small depths, and the brute
    force itself counts the sequences in ``_sup_tables``.
    """
    ivs = intervals_to_depth(depth)
    for mask in range(1 << len(ivs)):
        seq = CarlesonSequence(tuple((iv, ONE) for j, iv in enumerate(ivs) if mask >> j & 1))
        if carleson_constant(seq) <= 2:
            yield mask


@dataclass(frozen=True)
class ReportEntry:
    x: Fraction
    height: Fraction
    level: Fraction
    max_v: Fraction
    bound: Fraction
    attained: bool

    def to_json(self) -> dict:
        return {
            "x": format_rational(self.x),
            "A": format_rational(self.height),
            "lambda": format_rational(self.level),
            "maxV": format_rational(self.max_v),
            "B": format_rational(self.bound),
            "attained": self.attained,
        }


@dataclass(frozen=True)
class BruteForceReport:
    depth: int
    exhaustive: bool
    configs_scanned: int
    entries: tuple[ReportEntry, ...]
    domination: bool

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "exhaustive": self.exhaustive,
            "configs_scanned": self.configs_scanned,
            "domination": self.domination,
            "entries": [e.to_json() for e in self.entries],
        }

    def to_csv_rows(self) -> list[list[str]]:
        """The JSON entries as rows under their keys, with ``attained`` as 1 or 0."""
        rows = [["x", "A", "lambda", "maxV", "B", "attained"]]
        for e in self.entries:
            *fields, _ = e.to_json().values()
            rows.append([*fields, "1" if e.attained else "0"])
        return rows


# An E entry of a level no configuration takes; sums with it stay negative.
_MISSING = -(1 << 62)


def _merge(tables: dict, key: tuple[int, int], v: list[int], hit: list[int]) -> None:
    if key in tables:
        v = list(map(max, v, tables[key][0]))
        hit = list(map(max, hit, tables[key][1]))
    tables[key] = (v, hit)


def _sup_tables(depth: int) -> tuple[dict[tuple[int, int], tuple[list[int], list[int]]], int]:
    """The ``V`` and ``E`` tables per (measure, height) at one depth, and the sequence count.

    Everything at depth e is scaled by 2**e.  A configuration is a root
    weight gamma in {0, 1} and two depth e - 1 configurations on the halves:
    its set has ``xc = xc1 + xc2`` cells, its height is
    ``hs = gamma * 2**e + hs1 + hs2 <= 2**(e + 1)``, and a cell's value is
    ``gamma * xc`` plus twice its value in its half.  So the level ``t``
    asks the halves for ``ceil((t - gamma * xc) / 2)``, whose maxima add,
    and ``E`` hits ``t`` exactly when one half hits ``(t - gamma * xc) / 2``.
    The halves run over ordered pairs, and swapping them keeps (xc, hs) and
    every level set, so only hits in the left half need counting.

    ``tables[xc, hs] = (V, E)`` lists the levels 0 .. (depth + 1) * 2**depth:
    ``V[t]`` is the most cells of value >= t, and ``E[t]`` the most among
    configurations with a cell of value exactly t (negative if none).
    """
    # Depth 0: one cell with weight gamma, of value gamma * xc.
    tables = {
        (xc, gamma): ([1, xc * gamma], [_MISSING, 1] if xc * gamma else [1, _MISSING])
        for xc in (0, 1)
        for gamma in (0, 1)
    }
    counts = {0: 1, 1: 1}  # binary Carleson sequences by scaled height
    for e in range(1, depth + 1):
        pairs: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        for (x1, h1), (v1, e1) in tables.items():
            for (x2, h2), (v2, _) in tables.items():
                v, hit = list(map(operator.add, v1, v2)), list(map(operator.add, e1, v2))
                _merge(pairs, (x1 + x2, h1 + h2), v, hit)
        pair_counts: dict[int, int] = {}
        for h1, n1 in counts.items():
            for h2, n2 in counts.items():
                pair_counts[h1 + h2] = pair_counts.get(h1 + h2, 0) + n1 * n2
        cells = 1 << e
        tables = {}
        for (xc, hs), (v, hit) in pairs.items():
            # The halves' tables at the doubled levels u = 2 * t1, padded
            # by one root weight's worth of levels.
            v = [v[(u + 1) // 2] for u in range(2 * len(v) - 1)] + [0] * cells
            hit = [hit[u // 2] if u % 2 == 0 else _MISSING for u in range(2 * len(hit) - 1)]
            hit += [_MISSING] * cells
            for gamma in (0, 1):
                height, shift = (gamma << e) + hs, gamma * xc
                if height <= 2 * cells:
                    v_root = [cells] * shift + v[: len(v) - shift]
                    hit_root = [_MISSING] * shift + hit[: len(hit) - shift]
                    _merge(tables, (xc, height), v_root, hit_root)
        counts = {
            h: pair_counts.get(h, 0) + pair_counts.get(h - cells, 0) for h in range(2 * cells + 1)
        }
    return tables, sum(counts.values())


def brute_force_sup(
    depth: int,
    lambda_values: Sequence[Fraction] = (),
    sample: int | None = None,
    seed: int = 0,
) -> BruteForceReport:
    """Table the largest level sets at one depth against the bound.

    Exhaustive for depth at most ``EXHAUSTIVE_DEPTH_CAP``, over every binary
    Carleson sequence on intervals of depth <= depth and every set resolved
    at that depth: each (x, A) gets an entry at every positive level some
    configuration takes as a value (from ``E``) and at each of
    ``lambda_values`` (from ``V``); see ``_sup_tables``.  Beyond the cap a
    seeded random sample must be requested explicitly; no exhaustiveness
    is claimed there.
    """
    if _index(depth, "depth") < 1:
        raise DomainError(f"depth must be at least 1, got {depth}")
    if sample is not None and _index(sample, "sample size") < 1:
        raise DomainError(f"sample size must be at least 1, got {sample}")
    lambda_values = [_exact(level, "level") for level in lambda_values]
    if sample is None and depth > EXHAUSTIVE_DEPTH_CAP:
        raise ExhaustiveModeError(
            f"exhaustive mode is capped at depth {EXHAUSTIVE_DEPTH_CAP}; "
            "pass --sample for seeded random search"
        )
    if sample is not None:
        return _brute_sampled(depth, lambda_values, sample, seed)

    cells = 2**depth
    tables, sequences = _sup_tables(depth)
    table: dict[tuple[Fraction, Fraction, Fraction], Fraction] = {}
    for (xc, hs), (v, hit) in tables.items():
        x, a = Fraction(xc, cells), Fraction(hs, cells)
        for t in range(1, len(hit)):
            if hit[t] >= 0:
                table[x, a, Fraction(t, cells)] = Fraction(hit[t], cells)
        for level in lambda_values:
            t = math.ceil(level * cells)
            count = v[max(t, 0)] if t < len(v) else 0
            key = (x, a, level)
            table[key] = max(table.get(key, ZERO), Fraction(count, cells))
    return _report(depth, True, sequences << cells, table)


def _scan(
    table: dict[tuple[Fraction, Fraction, Fraction], Fraction],
    config: Config,
    lambda_values: Sequence[Fraction],
) -> None:
    """Fold one configuration's level-set measures into ``table``.

    One walk of the operator's pieces gives the cells taking each value.
    The level sets at every positive value and at the extra levels are
    counted from them; the table keeps the maximum per key.
    """
    cells, scale, depth = _value_cells(config.subset, config.seq)
    levels = [Fraction(v, scale) for v in cells if v > 0] + list(lambda_values)
    for level in levels:
        key = (config.measure, config.height, level)
        count = _cells_reaching(cells, scale, level)
        table[key] = max(table.get(key, ZERO), Fraction(count, 1 << depth))


def _report(
    depth: int,
    exhaustive: bool,
    configs_scanned: int,
    table: dict[tuple[Fraction, Fraction, Fraction], Fraction],
) -> BruteForceReport:
    """Compare each maximum in ``table`` with the bound, in key order."""
    entries = []
    for (x, a, level), max_v in sorted(table.items()):
        bound = bellman_value(x, a, level)
        entries.append(ReportEntry(x, a, level, max_v, bound, max_v == bound))
    return BruteForceReport(
        depth=depth,
        exhaustive=exhaustive,
        configs_scanned=configs_scanned,
        entries=tuple(entries),
        domination=all(e.max_v <= e.bound for e in entries),
    )


def _brute_sampled(
    depth: int, lambda_values: Sequence[Fraction], sample: int, seed: int
) -> BruteForceReport:
    if depth > SAMPLED_DEPTH_CAP:
        raise ExhaustiveModeError(f"sampled mode is capped at depth {SAMPLED_DEPTH_CAP}")
    rng = random.Random(seed)
    ivs = intervals_to_depth(depth)
    cells = 2**depth
    table: dict[tuple[Fraction, Fraction, Fraction], Fraction] = {}
    scanned = 0
    for _ in range(sample):
        seq = None
        for _attempt in range(100):
            k = rng.randint(0, 2 * (depth + 1))
            chosen = rng.sample(ivs, min(k, len(ivs)))
            candidate = CarlesonSequence.from_mapping({iv: ONE for iv in chosen})
            if carleson_constant(candidate) <= 2:
                seq = candidate
                break
        if seq is None:
            continue
        subset = DyadicSet.from_cells(depth, rng.getrandbits(cells))
        _scan(table, Config(subset, seq), lambda_values)
        scanned += 1
    return _report(depth, False, scanned, table)
