"""Exact evaluation of the sharp level-set bound and its boundary profiles.

The central object is ``bellman_value(x, a, level)``: the best possible
measure of the set where a dyadic sparse averaging operator applied to an
indicator of measure ``x``, built from a weight sequence of height ``a``
(constant at most 2), reaches the given level.  The bound is for weights
0 or 1, a sparse family of intervals: a fractional weight can beat it.  At
(1, 3/2, 3/2), root weight 1/2 over two halves of root weight 1 reaches
level 3/2 on all of [0, 1), where the bound is 3/4.

Its structure is carried by two one-variable-family profiles.  ``f_value``
is the restriction to height a = 2 and ``g_value`` the restriction to
height a = 1.  Both are piecewise linear in x for each fixed level, with
kinks on an explicit family of polygonal level curves indexed by m; on the
m-th curve the profile equals 2**-m.  Between consecutive curves the value
is a linear interpolation along horizontal lines.

Evaluation runs on integers.  The public entry points take ``int`` or
``Fraction`` arguments, refuse floats and bools, and hand the numerators
and denominators of x, a and the level to a small kernel: ``_strip``
finds the strip that holds a point and ``_curve_x`` where a curve crosses
a level, each from bit lengths and one floor division, so in constant
time at any level; ``_strip_value`` interpolates between the two curves
of a strip.  The region tests and closed forms are integer comparisons
and products, and one ``Fraction`` is built per result.  The
``Fraction`` forms these replaced are kept in ``tests/reference.py`` as
the oracle of the differential tests.

The kernel's entries take and return rationals as (numerator, positive
denominator) pairs, not necessarily in lowest terms: ``_bound`` (the
bound, as ``_region`` then ``_region_value``), ``_f_value``,
``_f_extended``, ``_g_value``, ``_profile_slopes``, ``_segment_slope``,
``_recip_slope_forms`` and ``_vertex_level``, the one form of a curve
vertex's level.  They check nothing; the public functions check their
arguments and wrap them, and the verify suites call them directly.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import starmap
from typing import NamedTuple

from .geometry import PlanePoint
from .rational import DomainError, _exact, _index

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


def _floor_log2(n: int, d: int) -> int:
    """The largest integer e with 2**e <= n/d, for n, d > 0, read off bit lengths."""
    e = n.bit_length() - d.bit_length()  # 2**(e-1) < n/d < 2**(e+1)
    at_least = n >= d << e if e >= 0 else n << -e >= d
    return e if at_least else e - 1


def _segment(p: int, q: int) -> int:
    """The index k of the dyadic segment 2**-k < x <= 2**(1-k) holding x = p/q in (0, 1]."""
    return 1 + _floor_log2(q, p)


def _offset(family: Family) -> int:
    # The level curves of both families, which differ only in this offset s.
    # Curve m is a polygon from the origin through vertices k = m, m-1, ..., 0,
    # vertex k at (2**-k, m - k + 3 - s * 2**-k); vertex 0, at x = 1, is its
    # top m + 3 - s.  Slopes are rises per unit of x: the origin segment has
    # slope 3 * 2**m - s, and segment k, from vertex k to vertex k-1 over
    # 2**-k < x <= 2**(1-k), has slope 2**k - s (flat for G at k = 1).
    return 1 if family is Family.F else 2


def _vertex_level(s: int, k: int, m: int) -> tuple[int, int]:
    """The level of vertex k of curve m for offset s, as a numerator and denominator."""
    return ((m - k + 3) << k) - s, 1 << k


def _curve_index(m: int) -> int:
    m = _index(m, "curve index")
    if m < 0:
        raise DomainError(f"curve index must be nonnegative, got {m}")
    return m


def _vertex(family: Family, k: int, m: int) -> PlanePoint:
    k, m = _index(k, "vertex index"), _index(m, "curve index")
    if not 0 <= k <= m:
        raise DomainError(f"vertex indices need 0 <= k <= m, got k={k}, m={m}")
    return PlanePoint(Fraction(1, 1 << k), Fraction(*_vertex_level(_offset(family), k, m)))


def vertex_f(k: int, m: int) -> PlanePoint:
    """k-th vertex of the m-th F curve: (2**-k, m - k + 3 - 2**-k)."""
    return _vertex(Family.F, k, m)


def vertex_g(k: int, m: int) -> PlanePoint:
    """k-th vertex of the m-th G curve: (2**-k, m - k + 3 - 2**(1-k))."""
    return _vertex(Family.G, k, m)


def curve_vertices(family: Family, m: int) -> list[PlanePoint]:
    """Vertices of the m-th curve: origin, then k = m down to 0."""
    m = _curve_index(m)
    return [PlanePoint(ZERO, ZERO)] + [_vertex(family, k, m) for k in range(m, -1, -1)]


def origin_parameter(family: Family, m: int) -> Fraction:
    """Reciprocal slope of the m-th curve's segment through the origin."""
    m = _curve_index(m)
    return Fraction(1, (3 << m) - _offset(family))


def curve_height(family: Family, m: int, x: Fraction) -> Fraction:
    """Level of the m-th curve above ``x`` in [0, 1]."""
    m, x = _curve_index(m), _exact(x, "x")
    p, q = x.numerator, x.denominator
    if not 0 <= p <= q:
        raise DomainError(f"curve argument must lie in [0, 1], got {x}")
    if p == 0:
        return ZERO
    s, k = _offset(family), _segment(p, q)
    if k > m:  # x <= 2**-m: the origin segment
        return Fraction(p * ((3 << m) - s), q)
    # Segment k; for G it is flat at level m + 1 when k = 1.
    return Fraction(p * ((1 << k) - s) + (m - k + 2) * q, q)


# The kernel.  A point is given by the integer numerators and denominators
# of its coordinates (denominators positive, not necessarily in lowest
# terms); s is the family's offset.  Each function solves its closed form
# on those integers and returns integers, and the public entry points build
# one Fraction from them.

Pair = tuple[int, int]  # a rational as (numerator, positive denominator)


def _curve_x(s: int, m: int, num: int, den: int) -> tuple[int, int]:
    """The x at which curve m reaches level num/den, as a numerator and denominator.

    Requires 0 <= level <= the curve's top.  For the G family the inverse
    of the flat top segment is taken to be its left endpoint x = 1/2.
    """
    # Vertex m, where the origin segment ends, lies at level 3 - s * 2**-m,
    # below 3, so a higher level is past it without building 2**m.
    if num < 3 * den:
        origin = (3 << m) - s  # the origin segment's slope
        if num << m <= origin * den:
            return num, den * origin
    # Vertex k-1 lies at a level in [m-k+3, m-k+4), so the segment ending at
    # the first vertex at or above the level is k = m + 4 - ceil(level) or
    # the next one up, k - 1.  (For G, k - 1 >= 2: the flat top segment
    # k = 1 is never taken.)
    k = m + 4 + (-num // den)  # m + 4 - ceil(level)
    if num << (k - 1) > (((m - k + 4) << (k - 1)) - s) * den:
        k -= 1
    return num - (m - k + 2) * den, den * ((1 << k) - s)


def _strip(s: int, p: int, q: int, num: int, den: int) -> tuple[int, bool]:
    """Strip index of (x, level) = (p/q, num/den) over the family's curves and a plateau flag.

    Strip m is the set where the level exceeds curve m-1 but not curve m
    (strip 0: at or below curve 0), so m is the first curve that reaches
    the level above x.  Curves 0 to k-1 pass over x's segment k on their
    origin segments, curves k and up on their segment k; on either part
    the curve's level above x is explicit in m and solved for it.  The
    profile is constant on strip 0 and wherever the level exceeds the top
    of curve m-1.  Requires 0 < x <= 1 and level > 0 (level > 1 for the G
    family).
    """
    k = _segment(p, q)
    # The first m with x * (3 * 2**m - s) >= level, i.e. 2**m >= (level + s*x) / (3*x).
    m = max(0, -_floor_log2(3 * p * den, num * q + s * p * den))
    if m >= k:
        # The first m >= k with curve_height = x * (2**k - s) + m - k + 2 >= level,
        # i.e. m - k + 2 >= ceil(level - x * (2**k - s)).
        m = max(k, k - 2 - (((1 << k) - s) * p * den - num * q) // (den * q))
    return m, m == 0 or num > (m + 2 - s) * den


def _strip_value(
    s: int, p: int, q: int, num: int, den: int, m: int, plateau: bool
) -> tuple[int, int]:
    """The profile over the family's curves at 0 < x = p/q <= 1 in strip m: 2**-m on curve m.

    Between curves m and m-1 it interpolates linearly along the horizontal
    line at the level, from 2**-m to 2**(1-m), except on a plateau.
    """
    if plateau:
        return 1, 1 << m
    left_p, left_q = _curve_x(s, m, num, den)
    right_p, right_q = _curve_x(s, m - 1, num, den)
    # x - left and right - left, over the common denominator q * left_q * right_q.
    rise = (p * left_q - left_p * q) * right_q
    run = (right_p * left_q - left_p * right_q) * q
    if run <= 0:
        raise DomainError("segment endpoints must be ordered by x")
    if not 0 <= rise <= run:
        raise DomainError(f"x={Fraction(p, q)} outside strip {m}'s segment")
    return run + rise, run << m


def _profile(s: int, p: int, q: int, num: int, den: int) -> tuple[int, int]:
    """The profile over the family's curves at 0 <= x = p/q <= 1: 0 on the axis x = 0."""
    if p == 0:
        return 0, 1
    return _strip_value(s, p, q, num, den, *_strip(s, p, q, num, den))


def curve_x(family: Family, m: int, level: Fraction) -> Fraction:
    """Inverse of ``curve_height``: the x at which curve m reaches ``level``.

    For the G family the inverse of the flat top segment is taken to be its
    left endpoint x = 1/2.
    """
    m, level = _curve_index(m), _exact(level, "level")
    s, num, den = _offset(family), level.numerator, level.denominator
    top = _vertex_level(s, 0, m)[0]  # vertex 0, over 1 << 0
    if not 0 <= num <= top * den:
        raise DomainError(f"level {level} outside curve range [0, {top}]")
    return Fraction(*_curve_x(s, m, num, den))


def _f_value(x: Pair, level: Pair) -> Pair:
    """``f_value`` at 0 <= x <= 1 and level > 0."""
    return _profile(1, *x, *level)


def _f_extended(x: Pair, level: Pair) -> Pair:
    """``f_extended`` at x >= 0 and level > 0."""
    return _profile(1, *(x if x[0] <= x[1] else (1, 1)), *level)


def _g_value(x: Pair, level: Pair) -> Pair:
    """``g_value`` at 0 <= x <= 1 and level > 0."""
    (p, q), (num, den) = x, level
    if num <= den:
        if 4 * p * den <= num * q:
            f_num, f_den = _profile(1, 2 * p, q, num, den)
            return f_num, 2 * f_den
        if p * den <= num * q:
            # The line from (level/4, 1/2) to (level, 1): (level + 2x) / (3 * level).
            return num * q + 2 * p * den, 3 * num * q
        return 1, 1
    return _profile(2, p, q, num, den)


def _pair(value: Fraction) -> Pair:
    return value.numerator, value.denominator


def _check_profile_args(x: Fraction, level: Fraction) -> None:
    if not 0 <= x.numerator <= x.denominator:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if level.numerator <= 0:
        raise DomainError(f"level must be positive, got {level}")


def f_value(x: Fraction, level: Fraction) -> Fraction:
    """The a = 2 boundary profile.

    Piecewise linear in x: equal to 2**-m on the m-th F curve, interpolated
    horizontally between consecutive curves, 1 at and below curve 0, and 0
    on the axis x = 0.
    """
    x, level = _exact(x, "x"), _exact(level, "level")
    _check_profile_args(x, level)
    return Fraction(*_f_value(_pair(x), _pair(level)))


def f_extended(x: Fraction, level: Fraction) -> Fraction:
    """``f_value`` extended beyond x = 1 by its boundary value."""
    x, level = _exact(x, "x"), _exact(level, "level")
    if x < 0:
        raise DomainError(f"x must be nonnegative, got {x}")
    _check_profile_args(min(x, ONE), level)
    return Fraction(*_f_extended(_pair(x), _pair(level)))


def g_value(x: Fraction, level: Fraction) -> Fraction:
    """The a = 1 boundary profile.

    For levels at most 1: half the rescaled a=2 profile left of level/4, a
    straight interpolation up to 1 on [level/4, level], and 1 beyond.  For
    larger levels: the same strip construction as ``f_value`` but over the
    G family of curves.
    """
    x, level = _exact(x, "x"), _exact(level, "level")
    _check_profile_args(x, level)
    return Fraction(*_g_value(_pair(x), _pair(level)))


class RegionKind(Enum):
    """Which closed-form branch of the bound applies."""

    OBSTACLE = "obstacle"
    FULL = "full"
    HEIGHT = "height"
    MIXED = "mixed"
    PROFILE = "profile"
    STRIP = "strip"
    ZERO = "zero"


class RegionTag(NamedTuple):
    kind: RegionKind
    strip: int | None = None
    plateau: bool = False

    def describe(self) -> str:
        if self.kind is not RegionKind.STRIP:
            return self.kind.value
        return f"strip m={self.strip}" + (", plateau" if self.plateau else "")


_OBSTACLE = RegionTag(RegionKind.OBSTACLE)
_FULL = RegionTag(RegionKind.FULL)
_HEIGHT = RegionTag(RegionKind.HEIGHT)
_MIXED = RegionTag(RegionKind.MIXED)
_PROFILE = RegionTag(RegionKind.PROFILE)
_ZERO = RegionTag(RegionKind.ZERO)


def _check_box(x: Fraction, a: Fraction) -> None:
    if not 0 <= x.numerator <= x.denominator:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if not 0 <= a.numerator <= 2 * a.denominator:
        raise DomainError(f"height must lie in [0, 2], got {a}")


def _scaled(xn: int, xd: int, an: int, ad: int) -> tuple[int, int]:
    """The point min(2x/a, 1) of the F profile that carries the bound at level > 1."""
    p, q = 2 * xn * ad, an * xd
    return (p, q) if p < q else (1, 1)


def _region(x: Pair, a: Pair, level: Pair) -> RegionTag:
    """``classify_region`` at x in [0, 1] and a in [0, 2]."""
    (xn, xd), (an, ad), (num, den) = x, a, level
    if num <= 0:
        return _OBSTACLE
    if num <= den:
        # x and the level's factor, both over xd * den * ad: the edges
        # 2x = level * (3 - a), x = level * a and 4x = level * a.
        u, w = xn * den * ad, num * xd
        if an >= ad and 2 * u >= w * (3 * ad - an):
            return _FULL
        if an <= ad and u >= w * an:
            return _HEIGHT
        if 4 * u <= w * an:
            return _PROFILE
        return _MIXED
    if an == 0 or xn == 0:
        return _ZERO
    return RegionTag(RegionKind.STRIP, *_strip(1, *_scaled(xn, xd, an, ad), num, den))


def _region_value(tag: RegionTag, x: Pair, a: Pair, level: Pair) -> Pair:
    """The bound at x in [0, 1] and a in [0, 2], in the region ``tag`` that holds the point."""
    kind = tag.kind
    if kind is RegionKind.OBSTACLE or kind is RegionKind.FULL:
        return 1, 1
    if kind is RegionKind.HEIGHT:
        return a
    if kind is RegionKind.ZERO:
        return 0, 1
    (xn, xd), (an, ad), (num, den) = x, a, level
    if kind is RegionKind.MIXED:
        # (a + 2x / level) / 3
        return an * xd * num + 2 * xn * den * ad, 3 * ad * xd * num
    # Profile (level <= 1) or strip (level > 1): a/2 times the F profile at
    # min(2x/a, 1), where a > 0 (a = 0 is a height or zero point).
    p, q = _scaled(xn, xd, an, ad)
    if kind is RegionKind.STRIP:
        f_num, f_den = _strip_value(1, p, q, num, den, tag.strip, tag.plateau)
    else:
        f_num, f_den = _profile(1, p, q, num, den)
    return an * f_num, 2 * ad * f_den


def _bound(x: Pair, a: Pair, level: Pair) -> Pair:
    """``bellman_value`` at x in [0, 1] and a in [0, 2]."""
    return _region_value(_region(x, a, level), x, a, level)


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
    return _region(_pair(x), _pair(a), _pair(level))


def bellman_value(x: Fraction, a: Fraction, level: Fraction) -> Fraction:
    """The sharp level-set bound at measure ``x``, height ``a``, given level.

    The supremum is over weight sequences with weights in {0, 1} and
    Carleson constant at most 2; fractional weights are not covered.
    """
    x, a, level = _exact(x, "x"), _exact(a, "height"), _exact(level, "level")
    # One classify_region call, looked up at call time, so a wrapper
    # installed on the module's name sees every evaluation's region.
    tag = classify_region(x, a, level)
    return Fraction(*_region_value(tag, _pair(x), _pair(a), _pair(level)))


def f_region(x: Fraction, level: Fraction) -> RegionTag:
    """Strip tag of the a=2 profile at (x, level)."""
    return _profile_region(Family.F, x, level)


def g_region(x: Fraction, level: Fraction) -> RegionTag:
    """Region tag of the a=1 profile at (x, level)."""
    return _profile_region(Family.G, x, level)


def _profile_region(family: Family, x: Fraction, level: Fraction) -> RegionTag:
    # The branch of f_value or g_value taken at (x, level); at levels up to
    # 1 the a=1 profile's branch is the bound's region at height 1, so its
    # ties are broken by classify_region itself.
    x, level = _exact(x, "x"), _exact(level, "level")
    p, q, num, den = x.numerator, x.denominator, level.numerator, level.denominator
    if not 0 <= p <= q:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if num <= 0:
        return _OBSTACLE
    if family is Family.G and num <= den:
        return classify_region(x, ONE, level)
    if p == 0:
        return _ZERO
    m, plateau = _strip(_offset(family), p, q, num, den)
    return RegionTag(RegionKind.STRIP, strip=m, plateau=plateau)


def _profile_vertices(level: Pair, x_min: Pair) -> list[tuple[Pair, Pair]]:
    """``profile_vertices`` at level > 0 and 0 < x_min <= 1, as (x, value) pairs."""
    # Curves first to last cross the level in [x_min, 1], left to right
    # from last, first and last being the strips of x = 1 and of x_min.
    # The ends take f's values unless a crossing is x_min itself; a curve
    # crossing at x = 1 (when the level is its top) gives way to f(1).
    (num, den), (xn, xd) = level, x_min
    first, _ = _strip(1, 1, 1, num, den)
    last, _ = _strip(1, xn, xd, num, den)
    vertices = []
    for m in range(last, first - 1, -1):
        p, q = _curve_x(1, m, num, den)
        if xn * q <= p * xd and p < q:
            vertices.append(((p, q), (1, 1 << m)))
    if not vertices or vertices[0][0][0] * xd != xn * vertices[0][0][1]:
        vertices.insert(0, (x_min, _f_value(x_min, level)))
    if vertices[-1][0][0] != vertices[-1][0][1]:
        vertices.append(((1, 1), _f_value((1, 1), level)))
    return vertices


def _profile_slopes(level: Pair, x_min: Pair) -> tuple[Pair, ...]:
    """``profile_slopes`` at level > 0 and 0 < x_min <= 1."""
    vertices = _profile_vertices(level, x_min)
    return tuple(
        ((y2n * y1d - y1n * y2d) * x1d * x2d, (x2n * x1d - x1n * x2d) * y1d * y2d)
        for ((x1n, x1d), (y1n, y1d)), ((x2n, x2d), (y2n, y2d)) in zip(vertices, vertices[1:])
    )


def _check_profile_window(level: Fraction, x_min: Fraction) -> tuple[Pair, Pair]:
    level, x_min = _exact(level, "level"), _exact(x_min, "x_min")
    if level <= 0:
        raise DomainError(f"level must be positive, got {level}")
    if not ZERO < x_min <= ONE:
        raise DomainError(f"x_min must lie in (0, 1], got {x_min}")
    return _pair(level), _pair(x_min)


def profile_vertices(level: Fraction, x_min: Fraction) -> tuple[PlanePoint, ...]:
    """Vertices of ``f_value(., level)`` restricted to [x_min, 1], left to right.

    The full vertex set accumulates at x = 0, hence the positive left
    cutoff; the leftmost vertex is (x_min, f(x_min)).
    """
    vertices = _profile_vertices(*_check_profile_window(level, x_min))
    return tuple(PlanePoint(Fraction(*x), Fraction(*y)) for x, y in vertices)


def profile_slopes(level: Fraction, x_min: Fraction) -> tuple[Fraction, ...]:
    """Slopes of ``f_value(., level)`` on [x_min, 1], left to right.

    Concavity of the profile is the statement that this list is
    non-increasing.
    """
    slopes = _profile_slopes(*_check_profile_window(level, x_min))
    return tuple(Fraction(*slope) for slope in slopes)


def _segment_slope(strip: int, level: Pair) -> Pair:
    """``segment_slope`` at strip >= 1 and 0 < level <= strip + 1."""
    left_p, left_q = _curve_x(1, strip, *level)
    right_p, right_q = _curve_x(1, strip - 1, *level)
    # 1 / (2**strip * (right - left))
    return left_q * right_q, (right_p * left_q - left_p * right_q) << strip


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
    return Fraction(*_segment_slope(strip, _pair(level)))


LinearForm = tuple[Fraction, Fraction]  # value at level t is c0 + c1*t
LevelRange = tuple[Fraction, Fraction]  # half-open (lo, hi]


def _recip_slope_forms(window: int, m: int) -> dict[str, tuple[tuple, tuple]]:
    """``recip_slope_forms`` at 2 <= window <= m + 1, as unreduced pairs."""
    two = 2 << m  # 2**s, s = m + 1 the strip index

    def form(c: int, a: int, b: int) -> tuple[Pair, Pair]:
        # c1 = 2**s (1/a - 1/b) = 2**s (b - a) / (a b), and c0 = -c c1
        return (-c * two * (b - a), a * b), (two * (b - a), a * b)

    k = window  # the ranges end at k, at two curve vertices and at k + 1
    ends = (k, 1), _vertex_level(1, m - k + 2, m), _vertex_level(1, m - k + 3, m + 1), (k + 1, 1)
    if k == 2:  # the segment's lower end still on an origin segment
        lo, hi = (1 << m) - 1, (6 << m) - 1
        low, mid_c0, high = form(0, (3 << m) - 1, hi), (-2 * two, lo), form(2, lo, (2 << m) - 1)
    else:
        top = 1 << (m - k + 2)
        lo, hi = top - 1, 4 * top - 1
        low, high = form(k - 1, 2 * top - 1, hi), form(k, lo, 2 * top - 1)
        mid_c0 = (two * ((k - 1) * lo - k * hi), lo * hi)
    mid = mid_c0, form(0, lo, hi)[1]
    return {"low": (low, ends[0:2]), "mid": (mid, ends[1:3]), "high": (high, ends[2:4])}


def recip_slope_forms(window: int, m: int) -> dict[str, tuple[LinearForm, LevelRange]]:
    """Closed forms of the reciprocal slope on strip m+1 for levels in (window, window+1].

    Returns the three linear-in-level forms ("low", "mid", "high") together
    with their level sub-ranges; as the level rises through the window the
    segment endpoints cross curve vertices, switching the active form.
    ``window = 2`` is the case where the lower endpoint still sits on an
    origin segment; larger windows use interior segments only.
    """
    return {
        name: (tuple(starmap(Fraction, form)), tuple(starmap(Fraction, levels)))
        for name, (form, levels) in _recip_slope_forms(*_check_window(window, m)).items()
    }


def _check_window(window: int, m: int) -> tuple[int, int]:
    """The window and curve index of ``recip_slope_forms``, checked."""
    window, m = _index(window, "window"), _index(m, "curve index")
    if not 2 <= window <= m + 1:
        raise DomainError(f"slope forms need 2 <= window <= m + 1, got window={window}, m={m}")
    return window, m


def _corollary_point(n: int, big_n: int) -> tuple[int, int]:
    """The checked lattice point (n, big_n) of ``corollary_bound``; builds nothing."""
    n, big_n = _index(n, "n"), _index(big_n, "big_n")
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if big_n < 3:
        raise DomainError(f"the lattice bound needs big_n >= 3, got {big_n}")
    return n, big_n


def corollary_bound(n: int, big_n: int) -> Fraction:
    """Sharp bound at measure 2**-n and level big_n - 2**-n (an exact rational).

    The generic bound ``measure * 2**(3 - measure - level)`` has an integer
    exponent exactly on this lattice; requires big_n >= 3 so the level is
    at least 2.
    """
    n, big_n = _corollary_point(n, big_n)
    return Fraction(1, 1 << (n + big_n - 3))
