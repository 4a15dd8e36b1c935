"""Property harness and brute-force certification.

Every check here is exact: samples are rational, comparisons are rational,
and a reported violation carries a witness from which both sides can be
recomputed bit for bit.  Two tables drive the checks.  Each suite has a
sampler that lays out its witnesses from a seed, and each check has one
evaluator of both sides and the relation they must satisfy; ``run_suite``
and ``replay`` both go through the evaluators.  The suites evaluate in
integers: witnesses and both sides are (numerator, denominator) pairs,
computed through the integer entries of ``candidate`` and compared by
cross-multiplication, and ``Fraction``s are built only for the witness and
sides of a violation.  ``replay`` turns a witness back into pairs.  The
``Fraction`` forms of the samplers and evaluators are kept in
``tests/reference.py`` as their oracle.  The brute-force driver
certifies, over every binary weight sequence with Carleson constant at most
2 against every set resolved at a small depth, that no level-set measure
ever exceeds ``bellman_value``, and records where equality is attained.  It
runs the paper's Bellman recursion over the dyadic tree instead of
enumerating the configurations, each a root weight over an ordered pair of
halves, and keeps only ``E`` (see ``_sup_tables``), whose suffix maximum is
``V``, each key's row packed into one int with a 16-bit field per level, so
that sums and maxima of rows are a few integer operations.  A sampled run
fills the same table, and one reader turns either into the report, walking
one rising list of grid and query levels.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterator, NamedTuple, Sequence

from .candidate import (
    Pair,
    _bound,
    _bound_row,
    _check_profile_window,
    _check_window,
    _f_extended,
    _f_value,
    _g_value,
    _pair,
    _profile_slopes,
    _recip_slope_forms,
    _segment_slope,
)
from .dyadic import (
    CarlesonSequence,
    Config,
    DyadicInterval,
    DyadicSet,
    _by_left_end,
    _level_cells,
    _trusted,
    _value_cells,
    carleson_constant,
    concat_configs,
)
from .rational import DomainError, _exact, _index

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
    "EXHAUSTIVE_DEPTH_CAP",
    "SAMPLED_DEPTH_CAP",
    "intervals_to_depth",
    "iter_binary_carleson",
    "brute_force_sup",
    "ReportEntry",
    "BruteForceReport",
]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic sampling plan for a property check.

    A seed that is not an int or is negative (``Random(-s)`` draws as
    ``Random(s)``), a count below 1, which would check nothing, and an
    inexact grid level raise ``DomainError``.
    """

    seed: int
    count: int
    lambda_grid: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if _index(self.seed, "seed") < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if _index(self.count, "sample count") < 1:
            raise DomainError(f"sample count must be at least 1, got {self.count}")
        grid = tuple(_exact(level, "grid level") for level in self.lambda_grid)
        object.__setattr__(self, "lambda_grid", grid)


@dataclass(frozen=True)
class Violation:
    """A failed exact comparison, replayable from its witness.

    Its fields are exact values, in the order the CLI reports them.
    """

    check: str
    witness: tuple[tuple[str, Fraction], ...]
    lhs: Fraction
    rhs: Fraction


# Witnesses and both sides of every check are rationals held as
# (numerator, positive denominator) pairs, not necessarily in lowest
# terms, so that no Fraction is built or reduced unless a check fails.

_ZERO, _ONE, _TWO = (0, 1), (1, 1), (2, 1)
Sides = tuple[Pair, Pair]  # the two sides of a check


def _add(r: Pair, s: Pair) -> Pair:
    return r[0] * s[1] + s[0] * r[1], r[1] * s[1]


def _half(r: Pair) -> Pair:
    return r[0], 2 * r[1]


def _reciprocal(r: Pair) -> Pair:
    # Of zero: a zero denominator, which Fraction refuses if it is reported.
    return (r[1], r[0]) if r[0] > 0 else (-r[1], -r[0])


def _int(r: Pair, name: str, lo: int | None = None, stop: int | None = None) -> int:
    """An index witness as an int in [lo, stop), either end open if None; else ``DomainError``."""
    i, rest = divmod(*r)
    if rest or (lo is not None and i < lo) or (stop is not None and i >= stop):
        bounds = "" if lo is None else f" in [{lo}, {'inf' if stop is None else stop})"
        raise DomainError(f"{name} must be an integer{bounds}, got {Fraction(*r)}")
    return i


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """``randint(0, n - 1)``'s draw, without its argument checks (CPython 3.10-3.13)."""
    if n < 1:  # getrandbits(0) is 0: the loop would never end
        raise DomainError(f"no integer in [0, {n})")
    k = n.bit_length()  # k bits, drawn again while they are n or more
    while (r := getrandbits(k)) >= n:
        pass
    return r


# Sampled rationals have denominators up to this bound.
_DENOMINATOR_BOUND = 32


def _sample_rational(rng: random.Random, lo: Pair, hi: Pair) -> Pair:
    """A rational p/q in [lo, hi], q drawn up to the bound, then p; not reduced."""
    bits = rng.getrandbits
    q = 1 + _below(bits, _DENOMINATOR_BOUND)
    p = -(-lo[0] * q // lo[1])
    return p + _below(bits, hi[0] * q // hi[1] + 1 - p), q


# Memos: of one or two entries (these two and ``_dynamics_instance``), which a
# sampler computes to lay out its witnesses and the evaluators read back, so
# each is computed once per level, form or instance; and the depth-3 table
# ``_cell_set``, the 256 sets of depth-3 cells that the dynamics draws share,
# each built on first use.  The kernel entries are looked up at call time, so
# replacements installed on them see every call.

@lru_cache(maxsize=1)
def _slopes_at(level: Pair, x_min: Pair) -> tuple[Pair, ...]:
    return _profile_slopes(level, x_min)


LinearForm = tuple[Pair, Pair]  # value at level t is c0 + c1*t


# Two entries: the sampler asks for the forms of m and m + 1 with m rising, so each
# window's forms are built once; checked here, as the integer forms check nothing.
@lru_cache(maxsize=2)
def _forms(window: int, m: int) -> dict[str, tuple[LinearForm, tuple[Pair, Pair]]]:
    return _recip_slope_forms(*_check_window(window, m))


def _form_pair(window: int, m: int) -> tuple[dict, dict]:
    return _forms(window, m), _forms(window, m + 1)


def _form_value(form: LinearForm, level: Pair) -> Pair:
    (c0n, c0d), (c1n, c1d) = form
    num, den = level
    return c0n * c1d * den + c1n * num * c0d, c0d * c1d * den


# Evaluators, one per check: both sides of the check recomputed exactly
# from a witness.

def _eval_obstacle(x: Pair, a: Pair, level: Pair) -> Sides:
    return _bound(x, a, level), _ONE


def _eval_concavity(x1: Pair, a1: Pair, x2: Pair, a2: Pair, level: Pair) -> Sides:
    lhs = _bound(_half(_add(x1, x2)), _half(_add(a1, a2)), level)
    return lhs, _half(_add(_bound(x1, a1, level), _bound(x2, a2, level)))


def _eval_jump(x: Pair, a: Pair, level: Pair) -> Sides:
    return _bound(x, _add(a, _ONE), _add(level, x)), _bound(x, a, level)


def _eval_fjg(x: Pair, level: Pair) -> Sides:
    return _f_value(x, _add(level, x)), _g_value(x, level)


def _eval_gconsist(x: Pair, level: Pair) -> Sides:
    lhs = _g_value(x, level)
    if level[0] > level[1]:
        rhs = _half(_f_extended((2 * x[0], x[1]), level))
    else:
        rhs = _bound(x, _ONE, level)
    return lhs, rhs


def _eval_slopes_monotone(i: Pair, x_min: Pair, level: Pair) -> Sides:
    slopes = _slopes_at(level, x_min)
    i = _int(i, "i", 0, len(slopes) - 1)
    return slopes[i], slopes[i + 1]


def _eval_slopes_mid_vs_low(window: Pair, m: Pair, level: Pair) -> Sides:
    forms, forms_next = _form_pair(_int(window, "window"), _int(m, "m"))
    return _form_value(forms["mid"][0], level), _form_value(forms_next["low"][0], level)


def _eval_slopes_high_vs_mid(window: Pair, m: Pair, level: Pair) -> Sides:
    forms, forms_next = _form_pair(_int(window, "window"), _int(m, "m"))
    return _form_value(forms["high"][0], level), _form_value(forms_next["mid"][0], level)


def _eval_slopes_form(window: Pair, m: Pair, form: Pair, level: Pair) -> Sides:
    m = _int(m, "m")
    name = _FORM_NAMES[_int(form, "form", 0, len(_FORM_NAMES))]
    linear = _form_pair(_int(window, "window"), m)[0][name][0]
    return _reciprocal(_form_value(linear, level)), _segment_slope(m + 1, level)


def _eval_dynamics(seed: Pair, index: Pair, gamma: Pair, level: Pair) -> Sides:
    """The concatenation identity at the witness's gamma and level, in cells of three walks."""
    # Concatenating shifts the level by gamma times the measure and averages the level sets.
    c1, c2, _ = _dynamics_instance(_int(seed, "seed"), _int(index, "index", 0))
    root = _ROOT_WEIGHTS[gamma] if gamma in _ROOT_WEIGHTS else Fraction(*gamma)
    combined = concat_configs(c1, c2, root)
    cells, size = combined.subset._cells()
    shifted = _add(level, (gamma[0] * cells, gamma[1] * size))
    n1, d1 = _level_cells(c1.subset, c1.seq, *level)
    n2, d2 = _level_cells(c2.subset, c2.seq, *level)
    return _level_cells(combined.subset, combined.seq, *shifted), (n1 * d2 + n2 * d1, 2 * d1 * d2)


_FORM_NAMES = {0: "low", 1: "mid", 2: "high"}


# Relations between the two sides, by cross-multiplication (denominators
# are positive).

def _eq(lhs: Pair, rhs: Pair) -> bool:
    return lhs[0] * rhs[1] == rhs[0] * lhs[1]


def _ge(lhs: Pair, rhs: Pair) -> bool:
    return lhs[0] * rhs[1] >= rhs[0] * lhs[1]


def _both_positive_and_ge(lhs: Pair, rhs: Pair) -> bool:
    return lhs[0] > 0 and rhs[0] > 0 and _ge(lhs, rhs)


# Check name -> (evaluator, relation the two sides must satisfy, names of
# the witness values the evaluator takes in order).
_CHECKS = {
    "obstacle": (_eval_obstacle, _eq, ("x", "A", "lambda")),
    "concavity": (_eval_concavity, _ge, ("x1", "A1", "x2", "A2", "lambda")),
    "jump": (_eval_jump, _ge, ("x", "A", "lambda")),
    "fjg": (_eval_fjg, _ge, ("x", "lambda")),
    "gconsist": (_eval_gconsist, _eq, ("x", "lambda")),
    "slopes:monotone": (_eval_slopes_monotone, _ge, ("i", "x_min", "lambda")),
    "slopes:mid-vs-low": (
        _eval_slopes_mid_vs_low, _both_positive_and_ge, ("window", "m", "lambda")
    ),
    "slopes:high-vs-mid": (
        _eval_slopes_high_vs_mid, _both_positive_and_ge, ("window", "m", "lambda")
    ),
    "slopes:form": (_eval_slopes_form, _eq, ("window", "m", "form", "lambda")),
    "dynamics": (_eval_dynamics, _eq, ("seed", "index", "gamma", "lambda")),
}


def replay(violation: Violation) -> tuple[Fraction, Fraction]:
    """Recompute both sides of a violation from its witness.

    The check must be known, and the witness must hold every value its
    evaluator takes, each an int or a Fraction (else ``DomainError``).
    They are turned into pairs in that order.  An index (i, form, window,
    m, seed or index) that is not an integer or lies out of range, and a
    root weight outside [0, 1], raise ``DomainError``; the other values are
    taken to lie where the check's sampler draws them, since the evaluators
    call the unchecked integer entries of ``candidate``.
    """
    if violation.check not in _CHECKS:
        raise DomainError(f"unknown check {violation.check!r}")
    evaluate, _, names = _CHECKS[violation.check]
    witness = dict(violation.witness)
    missing = [name for name in names if name not in witness]
    if missing:
        raise DomainError(f"a {violation.check} witness needs {', '.join(missing)}")
    lhs, rhs = evaluate(*(_pair(_exact(witness[name], name)) for name in names))
    return Fraction(*lhs), Fraction(*rhs)


# Samplers, one per suite: the (check name, witness values) pairs it
# checks, in a fixed order drawn from the spec's seed.

def _sample_obstacle(spec: SampleSpec) -> Iterator[tuple[str, tuple]]:
    """The bound is identically 1 at nonpositive levels."""
    rng = random.Random(spec.seed)
    for _ in range(spec.count):
        x = _sample_rational(rng, _ZERO, _ONE)
        a = _sample_rational(rng, _ZERO, _TWO)
        level = _sample_rational(rng, (-5, 1), _ZERO)
        yield "obstacle", (x, a, level)


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
        level_pair = _pair(level)
        for _ in range(spec.count):
            x1 = _sample_rational(rng, _ZERO, _ONE)
            a1 = _sample_rational(rng, _ZERO, _TWO)
            x2 = _sample_rational(rng, _ZERO, _ONE)
            a2 = _sample_rational(rng, _ZERO, _TWO)
            yield "concavity", (x1, a1, x2, a2, level_pair)


def _sample_jump(spec: SampleSpec) -> Iterator[tuple[str, tuple]]:
    """Raising the height by 1 and the level by x never lowers the bound (heights in [0, 1])."""
    rng = random.Random(spec.seed)
    for _ in range(spec.count):
        x = _sample_rational(rng, _ZERO, _ONE)
        a = _sample_rational(rng, _ZERO, _ONE)
        level = _sample_rational(rng, (-1, 1), (5, 1))
        yield "jump", (x, a, level)


def _sample_fjg(spec: SampleSpec) -> Iterator[tuple[str, tuple]]:
    """The a=2 profile after a jump dominates the a=1 profile."""
    rng = random.Random(spec.seed)
    for _ in range(spec.count):
        x = _sample_rational(rng, _ZERO, _ONE)
        level = _sample_rational(rng, (1, _DENOMINATOR_BOUND), (6, 1))
        yield "fjg", (x, level)


def _sample_gconsist(spec: SampleSpec) -> Iterator[tuple[str, tuple]]:
    """The a=1 profile agrees with the bound at height 1 (both level regimes).

    ``_g_value`` reads that bound, so this is a self-consistency check at
    every level; the independent check of g is ``tests/test_g_family.py``.
    """
    rng = random.Random(spec.seed)
    for i in range(spec.count):
        x = _sample_rational(rng, _ZERO, _ONE)
        if i % 2 == 0:
            level = _sample_rational(rng, (1, _DENOMINATOR_BOUND), _ONE)
        else:
            level = _sample_rational(rng, _ONE, (6, 1))
            if level[0] == level[1]:
                level = (3, 2)
        yield "gconsist", (x, level)


def default_level_grid(count: int = 50) -> tuple[Fraction, ...]:
    """A rational grid of the given size spanning (0, 10]; a size below 1 raises ``DomainError``."""
    if _index(count, "grid size") < 1:
        raise DomainError(f"grid size must be at least 1, got {count}")
    return tuple(Fraction(10 * j, count) for j in range(1, count + 1))


# The slopes suite checks the profile on [SLOPES_X_MIN, 1] (by default at
# the levels of ``default_level_grid()``, checked once here as (level,
# x_min) pairs) and the slope certificates for window and curve indices up
# to SLOPES_MAX_INDEX.
SLOPES_X_MIN = Fraction(1, 4096)
SLOPES_MAX_INDEX = 10
_SLOPES_GRID = tuple(_check_profile_window(level, SLOPES_X_MIN) for level in default_level_grid())


def _sample_slopes(spec: SampleSpec) -> Iterator[tuple[str, tuple]]:
    """Concavity of the a=2 profile, plus the closed-form slope certificates.

    Profile slopes listed left to right must be non-increasing.  The closed
    forms of the reciprocal slopes are linear in the level, so checking each
    certificate inequality at both endpoints of its level range certifies it
    on the whole range; the forms themselves are cross-checked against the
    geometric segment slope at interior points.  The spec's seed and count go
    unread: the certificates and default grid are fixed, so ``verify slopes``
    runs the same checks at every ``--seed`` and ``--count``, and its report's
    ``"samples"`` only echoes ``--count``.  That field is kept: the sha256 of
    ``verify all`` pinned in CI and the benchmark's ``samples == --count``
    check both read it.
    """
    grid = (_check_profile_window(level, SLOPES_X_MIN) for level in spec.lambda_grid)
    for level, x_min in grid if spec.lambda_grid else _SLOPES_GRID:
        for i in range(len(_slopes_at(level, x_min)) - 1):
            yield "slopes:monotone", ((i, 1), x_min, level)
    for window in range(2, SLOPES_MAX_INDEX + 1):
        for m in range(max(1, window - 1), SLOPES_MAX_INDEX + 1):
            forms, forms_next = _form_pair(window, m)
            for fi, name in _FORM_NAMES.items():
                probe = _half(_add(*forms[name][1]))
                yield "slopes:form", ((window, 1), (m, 1), (fi, 1), probe)
            pairs = (
                ("slopes:mid-vs-low", forms["mid"][1]),
                ("slopes:high-vs-mid", forms_next["mid"][1]),
            )
            for name, levels in pairs:
                for level in levels:
                    yield name, ((window, 1), (m, 1), level)


@lru_cache(maxsize=256)
def _cell_set(mask: int) -> DyadicSet:
    """The set of the depth-3 cells whose bits are set in the 8-bit ``mask``."""
    return DyadicSet.from_cells(3, mask)


_STORED_TO_DEPTH_2 = tuple(sorted(range(1, 8), key=_by_left_end(2)))  # in storage order


def _random_config(rng: random.Random) -> Config:
    """A set of depth-3 cells and weights in quarters on the nodes down to depth 2."""
    subset = _cell_set(rng.getrandbits(8))
    drawn = {}  # key -> weight in quarters
    for key in range(1, 8):  # every node down to depth 2, drawn by depth and then index
        roll = rng.random()
        if roll < 0.4:
            drawn[key] = 4 if roll < 0.25 else 1 + _below(rng.getrandbits, 4)
    keys = tuple(key for key in _STORED_TO_DEPTH_2 if key in drawn)
    g = math.gcd(4, *drawn.values())  # over the least denominator, as the constructor stores them
    values, den = tuple(drawn[key] // g for key in keys), 4 // g
    seq = _trusted(CarlesonSequence, _keys=keys, _values=values, _den=den)
    return _trusted(Config, subset=subset, seq=seq)


@lru_cache(maxsize=1)
def _dynamics_instance(seed: int, index: int) -> tuple[Config, Config, Pair]:
    """The two configurations and the level (in [-1, 6], over 4) drawn for an index."""
    rng = random.Random(f"{seed}:{index}")
    c1 = _random_config(rng)
    c2 = _random_config(rng)
    return c1, c2, (_below(rng.getrandbits, 29) - 4, 4)


# The dynamics suite's root weights by index mod 3, as pairs and as Fractions.
_ROOT_WEIGHTS = {(0, 1): ZERO, (1, 2): Fraction(1, 2), (1, 1): ONE}
_GAMMAS = tuple(_ROOT_WEIGHTS)


def _sample_dynamics(spec: SampleSpec) -> Iterator[tuple[str, tuple]]:
    """Exact concatenation identity on seeded random configuration pairs."""
    for index in range(spec.count):
        level = _dynamics_instance(spec.seed, index)[2]
        yield "dynamics", ((spec.seed, 1), (index, 1), _GAMMAS[index % 3], level)


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
    """Run one named suite with the given sampling plan.

    Both sides of each check are evaluated in integers; the ``Fraction``s
    of a violation's witness and sides are built only when it fails.
    """
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}")
    out = []
    for check, values in _SUITES[name](spec):
        evaluate, holds, names = _CHECKS[check]
        lhs, rhs = evaluate(*values)
        if not holds(lhs, rhs):
            witness = tuple((n, Fraction(*value)) for n, value in zip(names, values))
            out.append(Violation(check, witness, Fraction(*lhs), Fraction(*rhs)))
    return out


# Brute force over all small-depth configurations.

# On a 2-core VM (Python 3.11) an exhaustive ``brute 4`` process takes about 0.15 s, and
# ``brute 5`` about 0.8 s and 84 MiB: 0.15 s in the tables, 0.25 s in the report of 121,687
# entries (one kernel row per key) and 0.2 s in its 17 MB of JSON; depth 6 would print about
# 170 MB.  Both caps keep every field of a packed row below 2**15 (see ``_TAKEN``).
EXHAUSTIVE_DEPTH_CAP = 5
SAMPLED_DEPTH_CAP = 8


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


class ReportEntry(NamedTuple):
    x: Fraction
    height: Fraction
    level: Fraction
    max_v: Fraction
    bound: Fraction
    attained: bool


@dataclass(frozen=True)
class BruteForceReport:
    """A brute-force report; ``cli`` writes its JSON and its CSV from the same ``rows``."""

    depth: int
    exhaustive: bool
    configs_scanned: int
    entries: tuple[ReportEntry, ...]
    domination: bool
    values: tuple[Fraction, ...] = field(default=(), compare=False)  # see ``rows``

    def rows(self, text: Callable[[Fraction], str], flags: tuple[str, str]) -> Iterator[tuple]:
        """Each entry's x, A, level, maxV and bound through ``text``, and ``flags[attained]``.

        The entries share their values as objects, so each text is looked
        up by the value's identity.  ``values``, which takes no part in
        ``==``, holds each distinct object once, and each is formatted once;
        a report built without it formats every cell.
        """
        *columns, attained = list(zip(*self.entries)) or [()] * 6
        texts = {id(value): text(value) for value in self.values or chain(*columns)}.__getitem__
        columns = [map(texts, map(id, column)) for column in columns]
        return zip(*columns, map(flags.__getitem__, attained))


# (measure, height) -> packed E row, all scaled by 2**depth; see ``_sup_tables``.
Table = dict[tuple[int, int], int]

# A packed row holds one 16-bit field per level, lowest first.  An E field is
# 0 where no configuration takes the level, and _TAKEN + c where the most
# cells is c; a V field is a plain count.  So E1 + V2 adds field by field, a
# field below _TAKEN still reads "not taken", and bit 15 stays free for the
# fieldwise max, while every field stays below 2**15: exhaustive depth e
# gives at most _TAKEN + 2**e, and a sampled row at most _TAKEN + 2**8.
_TAKEN = 1 << 14


def _ones(width: int) -> int:
    """A row of ``width`` fields, each 1."""
    return ((1 << (width << 4)) - 1) // 0xFFFF


def _fields(row: int) -> array:
    """A packed row's fields, lowest level first, through its highest nonzero field."""
    fields = array("H", row.to_bytes((row.bit_length() + 15) >> 4 << 1, sys.byteorder))
    if sys.byteorder == "big":  # the highest field came first
        fields.reverse()
    return fields


def _pack(fields: array) -> int:
    """The packed row of ``array('H')`` fields, lowest level first."""
    return int.from_bytes(fields[::-1] if sys.byteorder == "big" else fields, sys.byteorder)


def _max(a: int, b: int, high: int) -> int:
    """The fieldwise max of two rows (SWAR); ``high`` has bit 15 set in each field of both.

    A field of ``(a | high) - b`` keeps bit 15 exactly where a's field is at
    least b's, and no field borrows from the next, since both are below 2**15.
    """
    sel = ((a | high) - b) & high
    return b ^ ((a ^ b) & (sel - (sel >> 15)))


def _suffix_max(row: int) -> int:
    """``V`` from ``E``: ``V[t]`` is the largest of 0 and every count ``E[u]`` with u >= t.

    A configuration that reaches t has a smallest value u >= t, and its
    cells at or above t are exactly its cells at or above u.  The maxima
    over 1, 2, 4, ... fields up are taken by shifted fieldwise maxima.
    """
    width = (row.bit_length() + 15) >> 4
    ones = _ones(width)
    v, high = row & ones * (_TAKEN - 1), ones << 15
    span = 1
    while span < width:
        v = _max(v, v >> (span << 4), high)
        span <<= 1
    return v


def _sup_tables(depth: int) -> tuple[Table, int]:
    """The packed ``E`` row per (measure, height) at one depth, and the sequence count.

    Everything at depth e is scaled by 2**e.  ``tables[xc, hs]`` has a field
    for each level 0 .. (depth + 1) * 2**depth: ``E[t]`` is the most cells
    of value >= t among the configurations with a cell of value exactly t
    (a zero field if none).  The most cells of value >= t among all of
    them, ``V[t]``, is ``_suffix_max(E)[t]``, so only ``E`` is kept.

    A configuration is a root weight gamma in {0, 1} and two depth e - 1
    configurations on the halves: its set has ``xc = xc1 + xc2`` cells, its
    height is ``hs = gamma * 2**e + hs1 + hs2 <= 2**(e + 1)``, and a cell's
    value is ``gamma * xc`` plus twice its value in its half.  So it has a
    cell of value t exactly when one half has a cell of value
    ``(t - gamma * xc) / 2``, and its cells reaching t are the cells of
    both halves reaching that level.  The halves run over ordered pairs,
    and each pair counts a hit in its left half, ``E1 + V2``, one integer
    addition; the swapped pair counts a hit in the right one.  Each half's
    ``V`` is derived once per key and depth, before the pairs.
    """
    # Depth 0: one cell with weight gamma, of value gamma * xc.
    tables = {(xc, gamma): (_TAKEN + 1) << (xc * gamma << 4) for xc in (0, 1) for gamma in (0, 1)}
    counts = {0: 1, 1: 1}  # binary Carleson sequences by scaled height
    for e in range(1, depth + 1):
        cells = 1 << e
        # A half's key (xc, hs) is xc * stride + hs, so a pair's key is the sum.
        stride = 2 * cells + 1
        ones = _ones((e << (e - 1)) + 1)  # a field for each level of depth e - 1
        high = ones << 15
        halves = [(xc * stride + hs, row) for (xc, hs), row in tables.items()]
        rights = [(key, _suffix_max(row)) for key, row in halves]
        pairs = [0] * ((cells + 1) * stride)  # 0: no pair has the key
        for key1, e1 in halves:
            for key2, v2 in rights:
                hit = e1 + v2
                key = key1 + key2
                old = pairs[key]  # _max, inline: this loop runs once per ordered pair
                sel = ((old | high) - hit) & high
                pairs[key] = hit ^ ((old ^ hit) & (sel - (sel >> 15)))
        pair_counts: dict[int, int] = {}
        for h1, n1 in counts.items():
            for h2, n2 in counts.items():
                pair_counts[h1 + h2] = pair_counts.get(h1 + h2, 0) + n1 * n2
        taken = ones << 14
        high = _ones(((e + 1) << e) + 1) << 15
        tables = {}
        for key, hit in enumerate(pairs):
            if not hit:
                continue
            xc, hs = divmod(key, stride)
            hit &= ((hit & taken) >> 14) * 0x7FFF  # clear the fields not taken
            # The pair's hits at the doubled levels 2 * t1 (no odd level is
            # hit); a root weight shifts them by xc <= 2**e levels, into the
            # 2**e levels above the doubled ones.
            fields = _fields(hit)
            doubled = array("H", bytes(4 * len(fields) - 2))
            doubled[::2] = fields
            hit = _pack(doubled)
            for gamma in (0, 1):
                height = (gamma << e) + hs
                if height <= 2 * cells:
                    row = hit << (gamma * xc << 4)
                    old = tables.get((xc, height))
                    tables[xc, height] = row if old is None else _max(old, row, high)
        counts = {
            h: pair_counts.get(h, 0) + pair_counts.get(h - cells, 0) for h in range(2 * cells + 1)
        }
    return tables, sum(counts.values())


def _sampled_configs(depth: int, sample: int, seed: int) -> Iterator[Config]:
    """The configurations of a sampled run, drawn from ``random.Random(seed)``.

    Each of the ``sample`` draws tries up to 100 random sets of unit weights
    on intervals of depth <= depth for one with Carleson constant at most
    2, then draws the set's cells at that depth; a draw whose tries all
    fail yields nothing.
    """
    rng = random.Random(seed)
    nodes = range(1, 2 << depth)  # the keys of ``intervals_to_depth(depth)``, in its order
    stored = _by_left_end(depth)
    for _ in range(sample):
        for _attempt in range(100):
            k = rng.randint(0, 2 * (depth + 1))
            keys = tuple(sorted(rng.sample(nodes, min(k, len(nodes))), key=stored))
            seq = _trusted(CarlesonSequence, _keys=keys, _values=(1,) * len(keys), _den=1)
            if carleson_constant(seq) <= 2:
                yield Config(DyadicSet.from_cells(depth, rng.getrandbits(1 << depth)), seq)
                break


def _sampled_tables(depth: int, sample: int, seed: int) -> tuple[Table, int]:
    """``_sup_tables``' table over the sampled configurations, and their number.

    Each key's fields are filled in an ``array('H')`` up to the highest
    value taken, then packed.  Few levels are taken (one in 60 at depth 8).
    """
    cells = 1 << depth
    tables: dict[tuple[int, int], array] = {}
    scanned = 0
    for config in _sampled_configs(depth, sample, seed):
        values, scale, weight_depth = _value_cells(config.subset, config.seq)
        key = int(config.measure * cells), int(config.height * cells)
        hit = tables.setdefault(key, array("H"))
        # Values (scaled by 2**fine, fine <= depth) and counts (in cells of
        # size 2**-weight_depth) are moved to the 2**-depth grid.
        hit.extend([0] * (max(values) * cells // scale + 1 - len(hit)))
        reaching = _TAKEN
        for value in sorted(values, reverse=True):
            reaching += values[value] << (depth - weight_depth)
            t = value * cells // scale
            if hit[t] < reaching:
                hit[t] = reaching
        scanned += 1
    return {key: _pack(hit) for key, hit in tables.items()}, scanned


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
    seeded random sample must be requested explicitly, up to depth
    ``SAMPLED_DEPTH_CAP``; its configurations fill the same table, and no
    exhaustiveness is claimed there.
    """
    if _index(depth, "depth") < 1:
        raise DomainError(f"depth must be at least 1, got {depth}")
    if sample is not None and _index(sample, "sample size") < 1:
        raise DomainError(f"sample size must be at least 1, got {sample}")
    if _index(seed, "seed") < 0:  # random.Random(-s) draws what Random(s) does
        raise DomainError(f"seed must be nonnegative, got {seed}")
    lambda_values = [_exact(level, "level") for level in lambda_values]
    if sample is None:
        if depth > EXHAUSTIVE_DEPTH_CAP:
            raise DomainError(
                f"exhaustive mode is capped at depth {EXHAUSTIVE_DEPTH_CAP}; "
                "pass --sample for seeded random search"
            )
        tables, sequences = _sup_tables(depth)
        return _table_report(depth, True, sequences << (1 << depth), tables, lambda_values)
    if depth > SAMPLED_DEPTH_CAP:
        raise DomainError(f"sampled mode is capped at depth {SAMPLED_DEPTH_CAP}")
    tables, scanned = _sampled_tables(depth, sample, seed)
    return _table_report(depth, False, scanned, tables, lambda_values)


def _table_report(
    depth: int, exhaustive: bool, configs_scanned: int, tables: Table, lambda_values: list[Fraction]
) -> BruteForceReport:
    """The report of a packed ``E`` table, read off in key order.

    The keys (xc, hs) sort as integers.  Each key walks one rising list of
    ``(place, level, level pair, t, query)``: grid level ``t / 2**depth`` at
    place 2t, and a query level whose ceiling on the grid is t at 2t, in
    the grid level's stead, or at 2t - 1.  A query reads the key's ``V[t]``
    (``_suffix_max``, built only when a query is given), and a grid level
    the key hits its ``E[t]``, from the row's fields (``_fields``).  The
    bounds of a key's entries are one row of the integer kernel,
    ``_bound_row``, on (numerator, denominator) pairs: the grid values lie
    in the box by construction, and the query levels were checked at the
    boundary.  The ``Fraction``s built are the grid values, once and
    shared, and one per distinct bound; with the query levels they are the
    report's ``values``.
    """
    cells = 1 << depth
    top = (depth + 1) * cells  # no configuration takes a higher value
    grid = [(Fraction(t, cells), (t, cells)) for t in range(top + 1)]
    queries = []
    for level in sorted(set(lambda_values)):
        t = math.ceil(level * cells)
        place = 2 * t if level * cells == t else 2 * t - 1
        queries.append((place, level, _pair(level), max(t, 0), True))
    taken = {query[0] for query in queries}
    on_grid = [(2 * t, *grid[t], t, False) for t in range(1, top + 1) if 2 * t not in taken]
    levels = sorted(on_grid + queries)  # by place: only queries share one, with distinct levels
    bounds: dict[Pair, Fraction] = {}
    entries = []
    entry = tuple.__new__  # a ReportEntry without the named tuple's slower __new__
    dominated = True
    for xc, hs in sorted(tables):
        row = tables[xc, hs]
        hit = _fields(row)
        v = _suffix_max(row) if queries else 0
        (x, x_pair), (a, a_pair) = grid[xc], grid[hs]
        # The fields stop at the highest value taken: above it, only queries.
        end = 2 * len(hit) - 1  # the place just above that value
        walk = [step for step in levels[: bisect(levels, (end,))] if step[4] or hit[step[3]]]
        walk += [q for q in queries if q[0] >= end]
        bound_row = _bound_row(x_pair, a_pair, [step[2] for step in walk])
        for (_, level, _, t, query), (_, _, _, num, den) in zip(walk, bound_row):
            count = v >> (t << 4) & 0xFFFF if query else hit[t] - _TAKEN
            g = math.gcd(num, den)
            num, den = num // g, den // g
            bound = bounds.get((num, den))
            if bound is None:
                bound = bounds[num, den] = Fraction(num, den)
            # count / cells against the bound, in integers.
            scaled = num * cells
            dominated = dominated and count * den <= scaled
            attained = count * den == scaled
            entries.append(entry(ReportEntry, (x, a, level, grid[count][0], bound, attained)))
    return BruteForceReport(
        depth=depth,
        exhaustive=exhaustive,
        configs_scanned=configs_scanned,
        entries=tuple(entries),
        domination=dominated,
        values=(*(value for value, _ in grid), *(q[1] for q in queries), *bounds.values()),
    )
