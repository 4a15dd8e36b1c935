"""Slow, independent forms of library computations, for differential tests.

Each one computes what a fast path of the package computes, by a more
direct route: the a=2 profile by node interpolation at small levels, the
level curves' indices by scanning their segments and the strips by
scanning the curves, the profile's vertices and slopes through a
piecewise-linear function that interpolates them, the bound, its region tags and the profiles in
``Fraction`` arithmetic, the closed slope forms from the curve vertices, the
concatenation identity from ``Fraction`` level sets, the verify suites' samplers, evaluators and
relations in ``Fraction`` arithmetic, the operator on the uniform cells of one depth,
a set's measure and a sequence's height as sums of ``Fraction``s, a
sequence's integer scaling weight by weight, the Carleson constant by
scanning every base interval, the brute-force tables, exhaustive and
sampled, by simulating every configuration one by one into a sorted
table of ``Fraction``s, the Bellman
recursion's tables over ordered pairs of halves, the exhaustive
report assembled from them as a sorted table of ``Fraction``s, and a
brute report's and a configuration's JSON as the dicts ``json.dumps``
writes.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from sparsebound.candidate import (
    Family,
    _pair,
    RegionKind,
    RegionTag,
    origin_parameter,
    vertex_f,
    vertex_g,
)
from sparsebound import verify
from sparsebound.dyadic import (
    CarlesonSequence,
    Config,
    DyadicSet,
    _value_cells,
    concat_configs,
)
from sparsebound.geometry import PlanePoint, lerp
from sparsebound.rational import DomainError, format_rational
from sparsebound.verify import (
    _DENOMINATOR_BOUND as DENOMINATOR_BOUND,
    _MISSING,
    DEFAULT_CONCAVITY_GRID,
    SLOPES_MAX_INDEX,
    SLOPES_X_MIN,
    BruteForceReport,
    ReportEntry,
    SampleSpec,
    Violation,
    _dynamics_instance,
    _sampled_configs,
    default_level_grid,
    intervals_to_depth,
    iter_binary_carleson,
)


def f_value_nodes(x: Fraction, level: Fraction) -> Fraction:
    """Independent form of ``f_value`` for levels in (0, 1].

    For small levels every curve is still in its origin segment, so the
    profile is the interpolation through the nodes
    (level / (3*2**k - 1), 2**-k), constant 1 to the right of the k = 0 node.
    """
    if not 0 <= x <= 1:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if not 0 < level <= 1:
        raise DomainError(f"node form only valid for levels in (0, 1], got {level}")
    if x == 0:
        return Fraction(0)

    def node(k: int) -> Fraction:
        return level / (3 * 2**k - 1)

    if x >= node(0):
        return Fraction(1)
    k = 1
    while x < node(k):
        k += 1
    lo, hi = Fraction(1, 2**k), Fraction(1, 2 ** (k - 1))
    return lo + (hi - lo) * (x - node(k)) / (node(k - 1) - node(k))


def _vertex(family: Family, k: int, m: int):
    return vertex_f(k, m) if family is Family.F else vertex_g(k, m)


def _segment_denominator(family: Family, k: int) -> int:
    # Reciprocal slope of the segment ending at vertex k-1.
    return 2**k - 1 if family is Family.F else 2**k - 2


def curve_top(family: Family, m: int) -> int:
    return m + 2 if family is Family.F else m + 1


def curve_height_scan(family: Family, m: int, x: Fraction) -> Fraction:
    """``curve_height`` with x's segment found by halving 1 until it drops below x."""
    if x == 0:
        return Fraction(0)
    if x <= Fraction(1, 2**m):
        return x / origin_parameter(family, m)
    k = 1
    while x <= Fraction(1, 2**k):
        k += 1
    # Now 2**-k < x <= 2**(1-k) with 1 <= k <= m.
    if family is Family.G and k == 1:
        return Fraction(m + 1)  # G curves are flat at level m+1 on [1/2, 1]
    return x * _segment_denominator(family, k) + (m - k + 2)


def curve_x_scan(family: Family, m: int, level: Fraction) -> Fraction:
    """``curve_x`` with the segment found by walking the vertices k = m, m-1, ... upward."""
    if level <= _vertex(family, m, m).y:
        return level * origin_parameter(family, m)
    k_min = 2 if family is Family.G else 1
    for k in range(m, k_min - 1, -1):
        if level <= _vertex(family, k - 1, m).y:
            return (level - (m - k + 2)) / _segment_denominator(family, k)
    raise AssertionError("unreachable: segment search exhausted")


def strip_scan(family: Family, x: Fraction, level: Fraction) -> tuple[int, bool]:
    """``candidate._strip`` by trying curves upward from the first whose top reaches the level."""
    m = max(0, math.ceil(level) - curve_top(family, 0))
    while level > curve_height_scan(family, m, x):
        m += 1
    return m, m == 0 or level > curve_top(family, m - 1)


def profile_scan(family: Family, x: Fraction, level: Fraction) -> Fraction:
    """``f_value`` (F) or ``g_value`` above level 1 (G) at 0 < x <= 1, from the scans."""
    m, plateau = strip_scan(family, x, level)
    if plateau:
        return Fraction(1, 2**m)
    left = (curve_x_scan(family, m, level), Fraction(1, 2**m))
    right = (curve_x_scan(family, m - 1, level), Fraction(2, 2**m))
    return lerp(left, right, x)


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Piecewise-linear function given by vertices with strictly increasing x.

    Evaluation between vertices is exact linear interpolation; evaluation
    outside the vertex span is an error, never an extrapolation.
    """

    vertices: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise DomainError("a piecewise-linear function needs at least one vertex")
        xs = [v[0] for v in self.vertices]
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise DomainError("vertex x-coordinates must be strictly increasing")

    def value(self, x: Fraction) -> Fraction:
        xs = [v[0] for v in self.vertices]
        if not (xs[0] <= x <= xs[-1]):
            raise DomainError(f"x={x} outside span [{xs[0]}, {xs[-1]}]")
        i = bisect_right(xs, x)
        if i == len(xs):
            return self.vertices[-1][1]
        if xs[i] == x or i == 0:
            return self.vertices[i][1]
        return lerp(self.vertices[i - 1], self.vertices[i], x)

    def slopes(self) -> tuple[Fraction, ...]:
        """Consecutive-vertex slopes, left to right."""
        return tuple(
            (y2 - y1) / (x2 - x1)
            for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:])
        )


def profile_vertices_scan(level: Fraction, x_min: Fraction) -> tuple[PlanePoint, ...]:
    """``profile_vertices`` by walking curves upward from the first to reach the level at x = 1."""
    collected: list[tuple[Fraction, Fraction]] = []
    m = max(0, math.ceil(level) - 2)
    while True:
        xm = curve_x_scan(Family.F, m, level)
        m += 1
        if xm >= 1:
            continue
        if xm <= x_min:
            if xm == x_min:
                collected.append((xm, Fraction(1, 2 ** (m - 1))))
            break
        collected.append((xm, Fraction(1, 2 ** (m - 1))))
    if not collected or collected[-1][0] != x_min:
        collected.append((x_min, profile_scan(Family.F, x_min, level)))
    vertices = list(reversed(collected))
    if vertices[-1][0] != 1:
        vertices.append((Fraction(1), profile_scan(Family.F, Fraction(1), level)))
    return tuple(PlanePoint(*vertex) for vertex in vertices)


# The bound, its region tags and the profiles in Fraction arithmetic: the
# forms the package's integer kernel replaced, kept as its oracle.  The
# strip and curve indices are read off the point as the kernel reads them,
# but every step is a Fraction operation and the interpolation is ``lerp``.


def _offset(family: Family) -> int:
    return 1 if family is Family.F else 2


def _floor_log2(r: Fraction) -> int:
    """The largest integer e with 2**e <= r, for r > 0."""
    p, q = r.numerator, r.denominator
    e = p.bit_length() - q.bit_length()
    at_least = p >= q << e if e >= 0 else p << -e >= q
    return e if at_least else e - 1


def _vertex_level(family: Family, k: int, m: int) -> Fraction:
    return m - k + 3 - _offset(family) * Fraction(2) ** -k


def curve_x_fraction(family: Family, m: int, level: Fraction) -> Fraction:
    """``curve_x`` in Fraction arithmetic, for 0 <= level <= the curve's top."""
    if level < 3 and level <= _vertex_level(family, m, m):
        return level * origin_parameter(family, m)
    k = m + 4 - math.ceil(level)
    if level > _vertex_level(family, k - 1, m):
        k -= 1
    return (level - (m - k + 2)) / _segment_denominator(family, k)


def strip_fraction(family: Family, x: Fraction, level: Fraction) -> tuple[int, bool]:
    """``candidate._strip`` in Fraction arithmetic, for 0 < x <= 1 and level > 0."""
    s, k = _offset(family), 1 + _floor_log2(1 / x)
    m = max(0, -_floor_log2(3 * x / (level + s * x)))
    if m >= k:
        m = max(k, math.ceil(level - x * _segment_denominator(family, k)) + k - 2)
    return m, m == 0 or level > curve_top(family, m - 1)


def strip_value_fraction(
    family: Family, x: Fraction, level: Fraction, m: int, plateau: bool
) -> Fraction:
    """The profile at 0 < x <= 1 in strip m, by ``lerp`` between the strip's two curves."""
    if plateau:
        return Fraction(1, 2**m)
    left = (curve_x_fraction(family, m, level), Fraction(1))
    right = (curve_x_fraction(family, m - 1, level), Fraction(2))
    return lerp(left, right, x) / 2**m


def f_value_fraction(x: Fraction, level: Fraction) -> Fraction:
    """``f_value`` in Fraction arithmetic, for 0 <= x <= 1 and level > 0."""
    if x == 0:
        return Fraction(0)
    return strip_value_fraction(Family.F, x, level, *strip_fraction(Family.F, x, level))


def g_value_fraction(x: Fraction, level: Fraction) -> Fraction:
    """``g_value`` in Fraction arithmetic, for 0 <= x <= 1 and level > 0."""
    if level <= 1:
        if 4 * x <= level:
            return f_value_fraction(2 * x, level) / 2
        if x <= level:
            return lerp((level / 4, Fraction(1, 2)), (level, Fraction(1)), x)
        return Fraction(1)
    if x == 0:
        return Fraction(0)
    return strip_value_fraction(Family.G, x, level, *strip_fraction(Family.G, x, level))


def profile_region_fraction(family: Family, x: Fraction, level: Fraction) -> RegionTag:
    """``f_region`` (F) or ``g_region`` (G) in Fraction arithmetic, for 0 <= x <= 1."""
    if level <= 0:
        return RegionTag(RegionKind.OBSTACLE)
    if family is Family.G and level <= 1:
        if x >= level:
            return RegionTag(RegionKind.FULL)
        if 4 * x <= level:
            return RegionTag(RegionKind.PROFILE)
        return RegionTag(RegionKind.MIXED)
    if x == 0:
        return RegionTag(RegionKind.ZERO)
    return RegionTag(RegionKind.STRIP, *strip_fraction(family, x, level))


def classify_region_fraction(x: Fraction, a: Fraction, level: Fraction) -> RegionTag:
    """``classify_region`` in Fraction arithmetic, for x in [0, 1] and a in [0, 2]."""
    if level <= 0:
        return RegionTag(RegionKind.OBSTACLE)
    if level <= 1:
        if a >= 1 and 2 * x >= level * (3 - a):
            return RegionTag(RegionKind.FULL)
        if a <= 1 and x >= level * a:
            return RegionTag(RegionKind.HEIGHT)
        if 4 * x <= level * a:
            return RegionTag(RegionKind.PROFILE)
        return RegionTag(RegionKind.MIXED)
    if a == 0 or x == 0:
        return RegionTag(RegionKind.ZERO)
    scaled = min(2 * x / a, Fraction(1))
    return RegionTag(RegionKind.STRIP, *strip_fraction(Family.F, scaled, level))


def bellman_value_fraction(x: Fraction, a: Fraction, level: Fraction) -> Fraction:
    """``bellman_value`` in Fraction arithmetic, for x in [0, 1] and a in [0, 2]."""
    tag = classify_region_fraction(x, a, level)
    if tag.kind in (RegionKind.OBSTACLE, RegionKind.FULL):
        return Fraction(1)
    if tag.kind is RegionKind.HEIGHT:
        return a
    if tag.kind is RegionKind.MIXED:
        return (a + 2 * x / level) / 3
    if tag.kind is RegionKind.PROFILE:
        return Fraction(0) if a == 0 else a / 2 * f_value_fraction(2 * x / a, level)
    if tag.kind is RegionKind.ZERO:
        return Fraction(0)
    scaled = min(2 * x / a, Fraction(1))
    return a / 2 * strip_value_fraction(Family.F, scaled, level, tag.strip, tag.plateau)


def segment_slope_fraction(strip: int, level: Fraction) -> Fraction:
    """``segment_slope`` from the two curves' crossings of the level."""
    run = curve_x_fraction(Family.F, strip - 1, level) - curve_x_fraction(Family.F, strip, level)
    return 1 / (2**strip * run)


def recip_slope_forms_fraction(window: int, m: int) -> dict:
    """``recip_slope_forms`` in Fraction arithmetic, from the vertices and origin parameters."""
    if window < 2 or m < max(1, window - 1):
        raise DomainError(f"no forms for window {window}, m={m}")
    two = Fraction(2 ** (m + 1))
    if window == 2:
        x_m = origin_parameter(Family.F, m)
        x_m1 = origin_parameter(Family.F, m + 1)
        low = ((Fraction(0), two * (x_m - x_m1)), (Fraction(2), vertex_f(m, m).y))
        d_mid = Fraction(1, 2**m - 1) - x_m1
        mid = (
            (-2 * two / (2**m - 1), two * d_mid),
            (vertex_f(m, m).y, vertex_f(m + 1, m + 1).y),
        )
        d_high = Fraction(1, 2**m - 1) - Fraction(1, 2 ** (m + 1) - 1)
        high = ((-2 * two * d_high, two * d_high), (vertex_f(m + 1, m + 1).y, Fraction(3)))
        return {"low": low, "mid": mid, "high": high}
    k = window
    d_low = Fraction(1, 2 ** (m - k + 3) - 1) - Fraction(1, 2 ** (m - k + 4) - 1)
    low = (
        (-(k - 1) * two * d_low, two * d_low),
        (Fraction(k), vertex_f(m - k + 2, m).y),
    )
    c_lo = Fraction(1, 2 ** (m - k + 2) - 1)
    c_hi = Fraction(1, 2 ** (m - k + 4) - 1)
    mid = (
        (two * (-k * c_lo + (k - 1) * c_hi), two * (c_lo - c_hi)),
        (vertex_f(m - k + 2, m).y, vertex_f(m - k + 3, m + 1).y),
    )
    d_high = Fraction(1, 2 ** (m - k + 2) - 1) - Fraction(1, 2 ** (m - k + 3) - 1)
    high = (
        (-k * two * d_high, two * d_high),
        (vertex_f(m - k + 3, m + 1).y, Fraction(k + 1)),
    )
    return {"low": low, "mid": mid, "high": high}


def concat_identity(
    c1: Config, c2: Config, gamma: Fraction, level: Fraction
) -> tuple[Fraction, Fraction]:
    """Both sides of the concatenation identity, from ``Fraction`` level sets.

    Concatenating shifts the threshold by gamma times the combined measure
    and averages the two level-set measures, so the two values are equal.
    """
    combined = concat_configs(c1, c2, gamma)
    lhs = combined.level_set(level + gamma * combined.measure)
    rhs = (c1.level_set(level) + c2.level_set(level)) / 2
    return lhs, rhs


# The verify suites in Fraction arithmetic: the samplers draw each witness
# as a Fraction, the evaluators compute both sides from the Fraction forms
# above, and the relations compare Fractions.  These are the forms the
# package's integer harness replaced, kept as its oracle; the bound and the
# profiles are looked up at call time, so a test can replace them.


def sample_fraction(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    q = rng.randint(1, DENOMINATOR_BOUND)
    return Fraction(rng.randint(math.ceil(lo * q), math.floor(hi * q)), q)


def _witness(**values: Fraction | int) -> tuple[tuple[str, Fraction], ...]:
    return tuple((k, Fraction(v)) for k, v in values.items())


@lru_cache(maxsize=1)
def _profile_slopes_fraction(level: Fraction, x_min: Fraction) -> tuple[Fraction, ...]:
    return PiecewiseLinearFn(profile_vertices_scan(level, x_min)).slopes()


@lru_cache(maxsize=1)
def _form_pair_fraction(window: int, m: int) -> tuple[dict, dict]:
    return recip_slope_forms_fraction(window, m), recip_slope_forms_fraction(window, m + 1)


def _form_value(form: tuple[Fraction, Fraction], level: Fraction) -> Fraction:
    c0, c1 = form
    return c0 + c1 * level


def _eval_obstacle(w: dict) -> tuple[Fraction, Fraction]:
    return bellman_value_fraction(w["x"], w["A"], w["lambda"]), Fraction(1)


def _eval_concavity(w: dict) -> tuple[Fraction, Fraction]:
    mid_x = (w["x1"] + w["x2"]) / 2
    mid_a = (w["A1"] + w["A2"]) / 2
    lhs = bellman_value_fraction(mid_x, mid_a, w["lambda"])
    rhs = (
        bellman_value_fraction(w["x1"], w["A1"], w["lambda"])
        + bellman_value_fraction(w["x2"], w["A2"], w["lambda"])
    ) / 2
    return lhs, rhs


def _eval_jump(w: dict) -> tuple[Fraction, Fraction]:
    lhs = bellman_value_fraction(w["x"], w["A"] + 1, w["lambda"] + w["x"])
    return lhs, bellman_value_fraction(w["x"], w["A"], w["lambda"])


def _eval_fjg(w: dict) -> tuple[Fraction, Fraction]:
    return f_value_fraction(w["x"], w["lambda"] + w["x"]), g_value_fraction(w["x"], w["lambda"])


def _eval_gconsist(w: dict) -> tuple[Fraction, Fraction]:
    lhs = g_value_fraction(w["x"], w["lambda"])
    if w["lambda"] > 1:
        rhs = f_value_fraction(min(2 * w["x"], Fraction(1)), w["lambda"]) / 2
    else:
        rhs = bellman_value_fraction(w["x"], Fraction(1), w["lambda"])
    return lhs, rhs


def _eval_slopes_monotone(w: dict) -> tuple[Fraction, Fraction]:
    slopes = _profile_slopes_fraction(w["lambda"], w["x_min"])
    i = int(w["i"])
    return slopes[i], slopes[i + 1]


def _eval_slopes_mid_vs_low(w: dict) -> tuple[Fraction, Fraction]:
    forms, forms_next = _form_pair_fraction(int(w["window"]), int(w["m"]))
    level = w["lambda"]
    return _form_value(forms["mid"][0], level), _form_value(forms_next["low"][0], level)


def _eval_slopes_high_vs_mid(w: dict) -> tuple[Fraction, Fraction]:
    forms, forms_next = _form_pair_fraction(int(w["window"]), int(w["m"]))
    level = w["lambda"]
    return _form_value(forms["high"][0], level), _form_value(forms_next["mid"][0], level)


def _eval_slopes_form(w: dict) -> tuple[Fraction, Fraction]:
    window, m = int(w["window"]), int(w["m"])
    form = _form_pair_fraction(window, m)[0][FORM_NAMES[int(w["form"])]][0]
    return 1 / _form_value(form, w["lambda"]), segment_slope_fraction(m + 1, w["lambda"])


def _eval_dynamics(w: dict) -> tuple[Fraction, Fraction]:
    c1, c2, _ = _dynamics_instance(int(w["seed"]), int(w["index"]))
    return concat_identity(c1, c2, w["gamma"], w["lambda"])


def _both_positive_and_ge(lhs: Fraction, rhs: Fraction) -> bool:
    return lhs > 0 and rhs > 0 and lhs >= rhs


FORM_NAMES = {0: "low", 1: "mid", 2: "high"}

# Check name -> (Fraction evaluator of a witness dict, relation).
CHECKS_FRACTION = {
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


def _sample_obstacle(spec: SampleSpec):
    rng = random.Random(spec.seed)
    for _ in range(spec.count):
        x = sample_fraction(rng, Fraction(0), Fraction(1))
        a = sample_fraction(rng, Fraction(0), Fraction(2))
        level = sample_fraction(rng, Fraction(-5), Fraction(0))
        yield "obstacle", _witness(x=x, A=a, **{"lambda": level})


def _sample_concavity(spec: SampleSpec):
    for level in spec.lambda_grid or DEFAULT_CONCAVITY_GRID:
        rng = random.Random(f"{spec.seed}:{level}")
        for _ in range(spec.count):
            x1 = sample_fraction(rng, Fraction(0), Fraction(1))
            a1 = sample_fraction(rng, Fraction(0), Fraction(2))
            x2 = sample_fraction(rng, Fraction(0), Fraction(1))
            a2 = sample_fraction(rng, Fraction(0), Fraction(2))
            yield "concavity", _witness(x1=x1, A1=a1, x2=x2, A2=a2, **{"lambda": level})


def _sample_jump(spec: SampleSpec):
    rng = random.Random(spec.seed)
    for _ in range(spec.count):
        x = sample_fraction(rng, Fraction(0), Fraction(1))
        a = sample_fraction(rng, Fraction(0), Fraction(1))
        level = sample_fraction(rng, Fraction(-1), Fraction(5))
        yield "jump", _witness(x=x, A=a, **{"lambda": level})


def _sample_fjg(spec: SampleSpec):
    rng = random.Random(spec.seed)
    for _ in range(spec.count):
        x = sample_fraction(rng, Fraction(0), Fraction(1))
        level = sample_fraction(rng, Fraction(1, DENOMINATOR_BOUND), Fraction(6))
        yield "fjg", _witness(x=x, **{"lambda": level})


def _sample_gconsist(spec: SampleSpec):
    rng = random.Random(spec.seed)
    for i in range(spec.count):
        x = sample_fraction(rng, Fraction(0), Fraction(1))
        if i % 2 == 0:
            level = sample_fraction(rng, Fraction(1, DENOMINATOR_BOUND), Fraction(1))
        else:
            level = sample_fraction(rng, Fraction(1), Fraction(6))
            if level == 1:
                level = Fraction(3, 2)
        yield "gconsist", _witness(x=x, **{"lambda": level})


def _sample_slopes(spec: SampleSpec):
    for level in spec.lambda_grid or default_level_grid():
        for i in range(len(_profile_slopes_fraction(level, SLOPES_X_MIN)) - 1):
            yield "slopes:monotone", _witness(i=i, x_min=SLOPES_X_MIN, **{"lambda": level})
    for window in range(2, SLOPES_MAX_INDEX + 1):
        for m in range(max(1, window - 1), SLOPES_MAX_INDEX + 1):
            forms, forms_next = _form_pair_fraction(window, m)
            for fi, name in FORM_NAMES.items():
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


def _sample_dynamics(spec: SampleSpec):
    for index in range(spec.count):
        gamma = (Fraction(0), Fraction(1, 2), Fraction(1))[index % 3]
        level = Fraction(*_dynamics_instance(spec.seed, index)[2])
        yield "dynamics", _witness(seed=spec.seed, index=index, gamma=gamma, **{"lambda": level})


SUITES_FRACTION = {
    "obstacle": _sample_obstacle,
    "concavity": _sample_concavity,
    "jump": _sample_jump,
    "fjg": _sample_fjg,
    "slopes": _sample_slopes,
    "gconsist": _sample_gconsist,
    "dynamics": _sample_dynamics,
}


def run_suite_fraction(name: str, spec: SampleSpec) -> list[Violation]:
    """``run_suite`` with Fraction witnesses, evaluators and relations."""
    out = []
    for check, witness in SUITES_FRACTION[name](spec):
        evaluate, holds = CHECKS_FRACTION[check]
        lhs, rhs = evaluate(dict(witness))
        if not holds(lhs, rhs):
            out.append(Violation(check, witness, lhs, rhs))
    return out


class StepFunction(NamedTuple):
    """Function constant on the 2**depth uniform cells of one depth, tiling [0, 1)."""

    depth: int
    values: tuple[Fraction, ...]

    def level_set_measure(self, level: Fraction) -> Fraction:
        width = Fraction(1, 2**self.depth)
        return sum((width for v in self.values if v >= level), Fraction(0))

    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(sorted(set(self.values)))


def sparse_apply(subset: DyadicSet, seq: CarlesonSequence) -> StepFunction:
    """The operator as a uniform-depth step function, from its definition.

    The depth is the deeper of the set's and the support's resolution.  A
    cell's value is the sum, over the weighted intervals I containing it, of
    w times the share of I's cells that lie in the set.
    """
    depths = [iv.depth for iv in subset.intervals] + [iv.depth for iv, _ in seq.weights]
    depth = max(depths, default=0)
    inside = [False] * (2**depth)
    for iv in subset.intervals:
        span = 2 ** (depth - iv.depth)
        inside[iv.index * span : (iv.index + 1) * span] = [True] * span
    values = [Fraction(0)] * (2**depth)
    for iv, w in seq.weights:
        span = 2 ** (depth - iv.depth)
        cells = range(iv.index * span, (iv.index + 1) * span)
        share = Fraction(sum(inside[i] for i in cells), span)
        for i in cells:
            values[i] += w * share
    return StepFunction(depth, tuple(values))


def measure_sum(subset: DyadicSet) -> Fraction:
    """The sum of the set's interval lengths."""
    return sum((iv.measure for iv in subset.intervals), Fraction(0))


def height_sum(seq: CarlesonSequence) -> Fraction:
    """The sum of w * |I| over the weights."""
    return sum((w * iv.measure for iv, w in seq.weights), Fraction(0))


def scale_per_weight(weights: list[Fraction]) -> tuple[int, tuple[int, ...]]:
    """The lcm of every weight's denominator and each ``w * lcm``, weight by weight."""
    lcm = math.lcm(*(w.denominator for w in weights))
    return lcm, tuple(w.numerator * (lcm // w.denominator) for w in weights)


def carleson_constant_scan(seq: CarlesonSequence) -> Fraction:
    """The largest sum of w * |I| over the weights inside J, divided by |J|.

    J runs over every dyadic interval down to the deepest weight.
    """
    depth = max((iv.depth for iv, _ in seq.weights), default=0)
    return max(
        sum((w * iv.measure for iv, w in seq.weights if j.contains(iv)), Fraction(0)) / j.measure
        for j in intervals_to_depth(depth)
    )


def mask_to_sequence(depth: int, mask: int) -> CarlesonSequence:
    """The binary sequence with a unit weight on each interval the mask selects.

    Bits index ``intervals_to_depth(depth)``, as in ``iter_binary_carleson``.
    """
    ivs = intervals_to_depth(depth)
    return CarlesonSequence.from_mapping(
        {iv: Fraction(1) for j, iv in enumerate(ivs) if mask >> j & 1}
    )


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
        p, q = level.numerator * scale, level.denominator
        count = sum(n for value, n in cells.items() if value * q >= p)
        table[key] = max(table.get(key, Fraction(0)), Fraction(count, 1 << depth))


def _report(
    depth: int,
    exhaustive: bool,
    configs_scanned: int,
    table: dict[tuple[Fraction, Fraction, Fraction], Fraction],
) -> BruteForceReport:
    """Compare each maximum in ``table`` with the bound, in key order.

    The bound is the integer kernel ``verify._bound`` as it is when this is
    called, so a bound patched on ``verify`` reaches both this and the
    library's report.
    """
    entries = []
    for (x, a, level), max_v in sorted(table.items()):
        bound = Fraction(*verify._bound(_pair(x), _pair(a), _pair(level)))
        entries.append(ReportEntry(x, a, level, max_v, bound, max_v == bound))
    return BruteForceReport(
        depth=depth,
        exhaustive=exhaustive,
        configs_scanned=configs_scanned,
        entries=tuple(entries),
        domination=all(e.max_v <= e.bound for e in entries),
    )


def brute_reference(depth: int, lambda_values: Sequence[Fraction] = ()) -> BruteForceReport:
    """Pure-fraction reference enumeration (small depths only).

    Same table as ``brute_force_sup`` computed directly through the
    simulator, used to cross-check the integer recursion.
    """
    if depth > 2:
        raise DomainError("the reference path is meant for depth <= 2")
    cells = 2**depth
    table: dict[tuple[Fraction, Fraction, Fraction], Fraction] = {}
    scanned = 0
    for mask in iter_binary_carleson(depth):
        seq = mask_to_sequence(depth, mask)
        for emask in range(1 << cells):
            _scan(table, Config(DyadicSet.from_cells(depth, emask), seq), lambda_values)
            scanned += 1
    return _report(depth, True, scanned, table)


def brute_sampled_reference(
    depth: int, lambda_values: Sequence[Fraction], sample: int, seed: int
) -> BruteForceReport:
    """The sampled report through a ``Fraction`` table, over the same draws.

    Each configuration ``verify._sampled_configs`` draws is simulated and
    its level sets folded into the table one by one.
    """
    table: dict[tuple[Fraction, Fraction, Fraction], Fraction] = {}
    scanned = 0
    for config in _sampled_configs(depth, sample, seed):
        _scan(table, config, lambda_values)
        scanned += 1
    return _report(depth, False, scanned, table)


def _merge(tables: dict, key: tuple[int, int], v: list[int], hit: list[int]) -> None:
    if key in tables:
        v = list(map(max, v, tables[key][0]))
        hit = list(map(max, hit, tables[key][1]))
    tables[key] = (v, hit)


@lru_cache(maxsize=None)
def sup_tables_ordered(depth: int) -> tuple[dict, int]:
    """``verify._sup_tables`` with the halves over ordered pairs.

    Each ordered pair counts only hits in its left half; the swapped pair
    counts the right one.  Every candidate is merged into its key's maxima
    as it comes.  Cached: the callers only read the tables.
    """
    tables = {
        (xc, gamma): ([1, xc * gamma], [_MISSING, 1] if xc * gamma else [1, _MISSING])
        for xc in (0, 1)
        for gamma in (0, 1)
    }
    counts = {0: 1, 1: 1}
    for e in range(1, depth + 1):
        pairs: dict = {}
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


def brute_from_tables(depth: int, lambda_values: Sequence[Fraction] = ()) -> BruteForceReport:
    """The exhaustive report from ``sup_tables_ordered``, through a ``Fraction`` table.

    Every entry is a ``Fraction`` key and maximum, and ``_report`` sorts
    the keys and compares each maximum with the bound.
    """
    cells = 2**depth
    tables, sequences = sup_tables_ordered(depth)
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
            table[key] = max(table.get(key, Fraction(0)), Fraction(count, cells))
    return _report(depth, True, sequences << cells, table)


def brute_report_dict(report: BruteForceReport) -> dict:
    """The brute report's JSON as a dict, one dict per entry, for ``json.dumps``."""
    entries = [
        {
            "x": format_rational(e.x),
            "A": format_rational(e.height),
            "lambda": format_rational(e.level),
            "maxV": format_rational(e.max_v),
            "B": format_rational(e.bound),
            "attained": e.attained,
        }
        for e in report.entries
    ]
    return {
        "depth": report.depth,
        "exhaustive": report.exhaustive,
        "configs_scanned": report.configs_scanned,
        "domination": report.domination,
        "entries": entries,
    }


def config_to_json(config: Config) -> dict:
    """A configuration's JSON as a dict, one dict per interval and weight, for ``json.dumps``."""
    return {
        "E": {"intervals": [{"d": iv.depth, "i": iv.index} for iv in config.subset.intervals]},
        "alpha": {
            "weights": [
                {"d": iv.depth, "i": iv.index, "w": format_rational(w)}
                for iv, w in config.seq.weights
            ]
        },
    }
