"""Exact evaluation of the sharp level-set bound and its boundary profiles.

The central object is ``bellman_value(x, a, level)``: the best possible
measure of the set where a dyadic sparse averaging operator applied to an
indicator of measure ``x``, built from a weight sequence of height ``a``
(constant at most 2), reaches the given level.

Its structure is carried by two one-variable-family profiles.  ``f_value``
is the restriction to height a = 2 and ``g_value`` the restriction to
height a = 1.  Both are piecewise linear in x for each fixed level, with
kinks on an explicit family of polygonal level curves indexed by m; on the
m-th curve the profile equals 2**-m.  Between consecutive curves the value
is a linear interpolation along horizontal lines.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .geometry import PiecewiseLinearFn, PlanePoint, lerp
from .rational import DomainError

__all__ = [
    "Family",
    "RegionKind",
    "RegionTag",
    "vertex_f",
    "vertex_g",
    "curve_vertices",
    "curve_height",
    "curve_x",
    "origin_parameter",
    "f_value",
    "f_extended",
    "g_value",
    "f_region",
    "g_region",
    "classify_region",
    "bellman_value",
    "profile_vertices",
    "profile_slopes",
    "segment_slope",
    "recip_slope_forms",
    "corollary_bound",
]

ZERO = Fraction(0)
ONE = Fraction(1)


class Family(Enum):
    """The two curve families: F carries the a=2 profile, G the a=1 profile."""

    F = "F"
    G = "G"


def _exact(value: Fraction | int, name: str) -> Fraction:
    """An argument of a public entry point as a Fraction.

    Floats and bools are refused rather than rounded or read as 0/1, so no
    inexact value gets into the exact arithmetic or leaks out of it.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Rational) and not isinstance(value, bool):
        return Fraction(value)
    raise DomainError(f"{name} must be an int or a Fraction, got {value!r}")


def _index(value: int, name: str) -> int:
    """A curve or strip index argument of a public entry point, as an int."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DomainError(f"{name} must be an int, got {value!r}")


def _pow2(k: int) -> Fraction:
    return Fraction(1, 2**k) if k >= 0 else Fraction(2 ** (-k))


def _floor_log2(r: Fraction) -> int:
    """The largest integer e with 2**e <= r, for r > 0, read off bit lengths."""
    p, q = r.numerator, r.denominator
    e = p.bit_length() - q.bit_length()  # 2**(e-1) < r < 2**(e+1)
    at_least = p >= q << e if e >= 0 else p << -e >= q
    return e if at_least else e - 1


def _segment(x: Fraction) -> int:
    """The index k of the dyadic segment 2**-k < x <= 2**(1-k) holding 0 < x <= 1."""
    return 1 + _floor_log2(1 / x)


def _offset(family: Family) -> int:
    # The F and G formulas differ only in this factor s: vertex k of curve m
    # lies at level m - k + 3 - s * 2**-k, the segment ending at vertex k-1
    # has reciprocal slope 2**k - s, the origin segment 3 * 2**m - s, and
    # curve m tops out at level m + 3 - s.
    return 1 if family is Family.F else 2


def _vertex_level(family: Family, k: int, m: int) -> Fraction:
    return m - k + 3 - _offset(family) * _pow2(k)


def vertex_f(k: int, m: int) -> PlanePoint:
    """k-th vertex of the m-th F curve: (2**-k, m - k + 3 - 2**-k)."""
    if not 0 <= k <= m:
        raise DomainError(f"vertex indices need 0 <= k <= m, got k={k}, m={m}")
    return PlanePoint(_pow2(k), _vertex_level(Family.F, k, m))


def vertex_g(k: int, m: int) -> PlanePoint:
    """k-th vertex of the m-th G curve: (2**-k, m - k + 3 - 2**(1-k))."""
    if not 0 <= k <= m:
        raise DomainError(f"vertex indices need 0 <= k <= m, got k={k}, m={m}")
    return PlanePoint(_pow2(k), _vertex_level(Family.G, k, m))


def _vertex(family: Family, k: int, m: int) -> PlanePoint:
    return vertex_f(k, m) if family is Family.F else vertex_g(k, m)


def curve_vertices(family: Family, m: int) -> list[PlanePoint]:
    """Vertices of the m-th curve: origin, then k = m down to 0."""
    return [PlanePoint(ZERO, ZERO)] + [_vertex(family, k, m) for k in range(m, -1, -1)]


def origin_parameter(family: Family, m: int) -> Fraction:
    """Reciprocal slope of the m-th curve's segment through the origin."""
    if m < 0:
        raise DomainError(f"curve index must be nonnegative, got {m}")
    return Fraction(1, 3 * 2**m - _offset(family))


def _segment_denominator(family: Family, k: int) -> int:
    # Reciprocal slope of the segment ending at vertex k-1 is this over 1.
    return 2**k - _offset(family)


def curve_height(family: Family, m: int, x: Fraction) -> Fraction:
    """Level of the m-th curve above ``x`` in [0, 1]."""
    m, x = _index(m, "curve index"), _exact(x, "x")
    if not ZERO <= x <= ONE:
        raise DomainError(f"curve argument must lie in [0, 1], got {x}")
    if m < 0:
        raise DomainError(f"curve index must be nonnegative, got {m}")
    if x == 0:
        return ZERO
    k = _segment(x)
    if k > m:  # x <= 2**-m: the origin segment
        return x / origin_parameter(family, m)
    # Segment k; for G it is flat at level m + 1 when k = 1.
    return x * _segment_denominator(family, k) + (m - k + 2)


def _curve_top(family: Family, m: int) -> int:
    return m + 3 - _offset(family)


def curve_x(family: Family, m: int, level: Fraction) -> Fraction:
    """Inverse of ``curve_height``: the x at which curve m reaches ``level``.

    For the G family the inverse of the flat top segment is taken to be its
    left endpoint x = 1/2.
    """
    m, level = _index(m, "curve index"), _exact(level, "level")
    top = _curve_top(family, m)
    if not ZERO <= level <= top:
        raise DomainError(f"level {level} outside curve range [0, {top}]")
    # Vertex m, where the origin segment ends, lies below level 3, so a
    # higher level is past it without building 2**-m.
    if level < 3 and level <= _vertex_level(family, m, m):
        return level * origin_parameter(family, m)
    # Vertex k-1 lies at a level in [m-k+3, m-k+4), so the segment ending at
    # the first vertex at or above the level is k = m + 4 - ceil(level) or
    # the next one up, k - 1.  (For G, k - 1 >= 2: the flat top segment
    # k = 1 is never taken.)
    k = m + 4 - math.ceil(level)
    if level > _vertex_level(family, k - 1, m):
        k -= 1
    return (level - (m - k + 2)) / _segment_denominator(family, k)


def _strip(family: Family, x: Fraction, level: Fraction) -> tuple[int, bool]:
    """Strip index of (x, level) over the family's curves and a plateau flag.

    Strip m is the set where the level exceeds curve m-1 but not curve m
    (strip 0: at or below curve 0), so m is the first curve that reaches
    the level above x.  Curves 0 to k-1 pass over x's segment k on their
    origin segments, curves k and up on their segment k; on either part
    the curve's level above x is explicit in m and solved for it.  The
    profile is constant on strip 0 and wherever the level exceeds the top
    of curve m-1.  Requires 0 < x <= 1 and level > 0 (level > 1 for the G
    family).
    """
    s, k = _offset(family), _segment(x)
    # The first m with x * (3 * 2**m - s) >= level, i.e. 2**m >= (level + s*x) / (3*x).
    m = max(0, -_floor_log2(3 * x / (level + s * x)))
    if m >= k:
        # The first m >= k with curve_height = x * (2**k - s) + m - k + 2 >= level.
        m = max(k, math.ceil(level - x * _segment_denominator(family, k)) + k - 2)
    return m, m == 0 or level > _curve_top(family, m - 1)


def _strip_value(family: Family, x: Fraction, level: Fraction, m: int, plateau: bool) -> Fraction:
    """The profile over the family's curves at 0 < x <= 1 in strip m: 2**-m on curve m.

    Between curves m and m-1 it interpolates linearly along the horizontal
    line at ``level``, from 2**-m to 2**(1-m), except on a plateau.
    """
    if plateau:
        return _pow2(m)
    left = (curve_x(family, m, level), ONE)
    right = (curve_x(family, m - 1, level), Fraction(2))
    return lerp(left, right, x) * _pow2(m)


def _check_profile_args(x: Fraction, level: Fraction) -> None:
    if not ZERO <= x <= ONE:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if level <= 0:
        raise DomainError(f"level must be positive, got {level}")


def f_value(x: Fraction, level: Fraction) -> Fraction:
    """The a = 2 boundary profile.

    Piecewise linear in x: equal to 2**-m on the m-th F curve, interpolated
    horizontally between consecutive curves, 1 at and below curve 0, and 0
    on the axis x = 0.
    """
    x, level = _exact(x, "x"), _exact(level, "level")
    _check_profile_args(x, level)
    if x == 0:
        return ZERO
    return _strip_value(Family.F, x, level, *_strip(Family.F, x, level))


def f_extended(x: Fraction, level: Fraction) -> Fraction:
    """``f_value`` extended beyond x = 1 by its boundary value."""
    x, level = _exact(x, "x"), _exact(level, "level")
    if x < 0:
        raise DomainError(f"x must be nonnegative, got {x}")
    return f_value(min(x, ONE), level)


def g_value(x: Fraction, level: Fraction) -> Fraction:
    """The a = 1 boundary profile.

    For levels at most 1: half the rescaled a=2 profile left of level/4, a
    straight interpolation up to 1 on [level/4, level], and 1 beyond.  For
    larger levels: the same strip construction as ``f_value`` but over the
    G family of curves.
    """
    x, level = _exact(x, "x"), _exact(level, "level")
    _check_profile_args(x, level)
    if level <= 1:
        if 4 * x <= level:
            return f_value(2 * x, level) / 2
        if x <= level:
            return lerp((level / 4, Fraction(1, 2)), (level, ONE), x)
        return ONE
    if x == 0:
        return ZERO
    return _strip_value(Family.G, x, level, *_strip(Family.G, x, level))


class RegionKind(Enum):
    """Which closed-form branch of the bound applies."""

    OBSTACLE = "obstacle"
    FULL = "full"
    HEIGHT = "height"
    MIXED = "mixed"
    PROFILE = "profile"
    STRIP = "strip"
    ZERO = "zero"


@dataclass(frozen=True)
class RegionTag:
    kind: RegionKind
    strip: int | None = None
    plateau: bool = False

    def describe(self) -> str:
        if self.kind is not RegionKind.STRIP:
            return self.kind.value
        return f"strip m={self.strip}" + (", plateau" if self.plateau else "")


def _check_box(x: Fraction, a: Fraction) -> None:
    if not ZERO <= x <= ONE:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if not ZERO <= a <= 2:
        raise DomainError(f"height must lie in [0, 2], got {a}")


def classify_region(x: Fraction, a: Fraction, level: Fraction) -> RegionTag:
    """Locate (x, a, level) in the phase portrait of the bound.

    For levels in (0, 1] the (x, a) box splits into four polygons; boundary
    ties resolve by the fixed priority full > height > profile > mixed (the
    adjoining formulas agree on shared edges, so the tie-break is value
    neutral).  For larger levels the tag is the F-strip of the rescaled
    point (2x/a clamped to 1, level).
    """
    x, a, level = _exact(x, "x"), _exact(a, "height"), _exact(level, "level")
    _check_box(x, a)
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
    scaled = min(2 * x / a, ONE)
    m, plateau = _strip(Family.F, scaled, level)
    return RegionTag(RegionKind.STRIP, strip=m, plateau=plateau)


def bellman_value(x: Fraction, a: Fraction, level: Fraction) -> Fraction:
    """The sharp level-set bound at measure ``x``, height ``a``, given level."""
    x, a, level = _exact(x, "x"), _exact(a, "height"), _exact(level, "level")
    tag = classify_region(x, a, level)
    if tag.kind in (RegionKind.OBSTACLE, RegionKind.FULL):
        return ONE
    if tag.kind is RegionKind.HEIGHT:
        return a
    if tag.kind is RegionKind.MIXED:
        return (a + 2 * x / level) / 3
    if tag.kind is RegionKind.PROFILE:
        if a == 0:
            return ZERO
        return a / 2 * f_value(2 * x / a, level)
    if tag.kind is RegionKind.ZERO:
        return ZERO
    # Strip region: level > 1, and the tag holds the strip of the scaled point.
    scaled = min(2 * x / a, ONE)
    return a / 2 * _strip_value(Family.F, scaled, level, tag.strip, tag.plateau)


def f_region(x: Fraction, level: Fraction) -> RegionTag:
    """Strip tag of the a=2 profile at (x, level)."""
    return _profile_region(Family.F, x, level)


def g_region(x: Fraction, level: Fraction) -> RegionTag:
    """Region tag of the a=1 profile at (x, level)."""
    return _profile_region(Family.G, x, level)


def _profile_region(family: Family, x: Fraction, level: Fraction) -> RegionTag:
    # The branch of f_value or g_value taken at (x, level); below level 1
    # the a=1 profile has the three closed forms of g_value.
    x, level = _exact(x, "x"), _exact(level, "level")
    if not ZERO <= x <= ONE:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if level <= 0:
        return RegionTag(RegionKind.OBSTACLE)
    if family is Family.G and level <= 1:
        # classify_region at height 1, ties broken the same way.
        if x >= level:
            return RegionTag(RegionKind.FULL)
        if 4 * x <= level:
            return RegionTag(RegionKind.PROFILE)
        return RegionTag(RegionKind.MIXED)
    if x == 0:
        return RegionTag(RegionKind.ZERO)
    m, plateau = _strip(family, x, level)
    return RegionTag(RegionKind.STRIP, strip=m, plateau=plateau)


def profile_vertices(level: Fraction, x_min: Fraction) -> PiecewiseLinearFn:
    """Vertex list of ``f_value(., level)`` restricted to [x_min, 1].

    The full vertex set accumulates at x = 0, hence the positive left
    cutoff; the leftmost vertex is (x_min, f(x_min)).
    """
    if level <= 0:
        raise DomainError(f"level must be positive, got {level}")
    if not ZERO < x_min <= ONE:
        raise DomainError(f"x_min must lie in (0, 1], got {x_min}")
    # Curves first to last cross the level in [x_min, 1], left to right
    # from last, first and last being the strips of x = 1 and of x_min.
    # The ends take f's values unless a crossing is x_min itself; a curve
    # crossing at x = 1 (when the level is its top) gives way to f(1).
    first, _ = _strip(Family.F, ONE, level)
    last, _ = _strip(Family.F, x_min, level)
    crossings = ((curve_x(Family.F, m, level), _pow2(m)) for m in range(last, first - 1, -1))
    vertices = [(xm, value) for xm, value in crossings if x_min <= xm < 1]
    if not vertices or vertices[0][0] != x_min:
        vertices.insert(0, (x_min, f_value(x_min, level)))
    if vertices[-1][0] != 1:
        vertices.append((ONE, f_value(ONE, level)))
    return PiecewiseLinearFn(tuple(vertices))


def profile_slopes(level: Fraction, x_min: Fraction) -> tuple[Fraction, ...]:
    """Slopes of ``f_value(., level)`` on [x_min, 1], left to right.

    Concavity of the profile is the statement that this list is
    non-increasing.
    """
    return profile_vertices(level, x_min).slopes()


def segment_slope(strip: int, level: Fraction) -> Fraction:
    """Slope of the interpolation segment inside the given strip.

    The segment joins (curve_x(F, strip), 2**-strip) to
    (curve_x(F, strip - 1), 2**(1 - strip)); defined for levels at most
    strip + 1 (beyond that the strip is a plateau).
    """
    strip, level = _index(strip, "strip index"), _exact(level, "level")
    if strip < 1:
        raise DomainError(f"strip index must be at least 1, got {strip}")
    if not ZERO < level <= strip + 1:
        raise DomainError(f"level {level} outside (0, {strip + 1}]")
    gap = curve_x(Family.F, strip - 1, level) - curve_x(Family.F, strip, level)
    return 1 / (2**strip * gap)


LinearForm = tuple[Fraction, Fraction]  # value at level t is c0 + c1*t
LevelRange = tuple[Fraction, Fraction]  # half-open (lo, hi]


def recip_slope_forms(window: int, m: int) -> dict[str, tuple[LinearForm, LevelRange]]:
    """Closed forms of the reciprocal slope on strip m+1 for levels in (window, window+1].

    Returns the three linear-in-level forms ("low", "mid", "high") together
    with their level sub-ranges; as the level rises through the window the
    segment endpoints cross curve vertices, switching the active form.
    ``window = 2`` is the case where the lower endpoint still sits on an
    origin segment; larger windows use interior segments only.
    """
    if window < 2:
        raise DomainError(f"window must be at least 2, got {window}")
    s = m + 1  # strip index
    two = Fraction(2**s)
    if window == 2:
        if m < 1:
            raise DomainError("window 2 forms need m >= 1")
        x_m = origin_parameter(Family.F, m)
        x_m1 = origin_parameter(Family.F, m + 1)
        low = ((ZERO, two * (x_m - x_m1)), (Fraction(2), vertex_f(m, m).y))
        d_mid = Fraction(1, 2**m - 1) - x_m1
        mid = (
            (-2 * two / (2**m - 1), two * d_mid),
            (vertex_f(m, m).y, vertex_f(m + 1, m + 1).y),
        )
        d_high = Fraction(1, 2**m - 1) - Fraction(1, 2 ** (m + 1) - 1)
        high = ((-2 * two * d_high, two * d_high), (vertex_f(m + 1, m + 1).y, Fraction(3)))
        return {"low": low, "mid": mid, "high": high}
    k = window
    if m < k - 1:
        raise DomainError(f"window {k} forms need m >= {k - 1}, got m={m}")
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


def corollary_bound(n: int, big_n: int) -> Fraction:
    """Sharp bound at measure 2**-n and level big_n - 2**-n (an exact rational).

    The generic bound ``measure * 2**(3 - measure - level)`` has an integer
    exponent exactly on this lattice; requires big_n >= 3 so the level is
    at least 2.
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if big_n < 3:
        raise DomainError(f"the lattice bound needs big_n >= 3, got {big_n}")
    return _pow2(n) * _pow2(big_n - 3)
