"""Exact evaluation of the sharp level-set bound and its boundary profiles.

The central object is ``bellman_value(x, a, level)``: the best possible
measure of the set where a dyadic sparse averaging operator applied to an
indicator of measure ``x``, built from a weight sequence of height ``a``
(constant at most 2), reaches the given level.  The bound is for weights
0 or 1, a sparse family of intervals: a fractional weight can beat it.  At
(1, 3/2, 3/2), root weight 1/2 over two halves of root weight 1 reaches
level 3/2 on all of [0, 1), where the bound is 3/4.

Its structure is carried by two profiles, ``f_value`` at height a = 2
and ``g_value`` at height a = 1, each piecewise linear in x at a fixed
level with kinks on polygonal level curves indexed by m (families F and
G): 2**-m on the m-th curve, interpolated along horizontal lines between
curves.  G curve m at x is F curve m - 1 at min(2x, 1), so above level 1
g is half of f there; at every level g is the bound itself at height 1.

Evaluation runs on integers, over the F curves only.  The public entry
points take ``int`` or ``Fraction`` arguments, refuse floats and bools,
and hand the numerators and denominators of x, a and the level to a small
kernel: ``_strip`` finds the strip that holds a point and ``_curve_x``
where a curve crosses a level, each from bit lengths and one floor
division, so in constant time at any level; ``_strip_value`` interpolates
between the two curves of a strip.  The region tests and closed forms are
integer comparisons and products, and one ``Fraction`` is built per
result.  The ``Fraction`` forms these replaced are kept in
``tests/reference.py`` as the oracle of the differential tests.

The kernel's entries take and return rationals as (numerator, positive
denominator) pairs, not necessarily in lowest terms: ``_bound_row``,
``_bound``, ``_f_value``, ``_f_extended``, ``_g_value``,
``_profile_vertices``, ``_profile_slopes``, ``_segment_slope``,
``_recip_slope_forms`` and ``_vertex_level``, the one form of an F
vertex's level.  They check nothing: the public functions that wrap them
check their arguments, and the verify suites call them directly.  The
region tests and closed forms of the bound, and so of g, are written once, in
``_bound_row(x, a, levels)``: it scales x once for the point (x, a) and
gives each level a plain ``(kind, m, plateau, num, den)`` tuple, since the
brute report reads a whole row of levels per (x, a) and building a
``RegionTag`` costs about 0.5 us.  ``_bound`` is its one-level case;
``classify_region`` reads one level's tag, without a strip's value, and
alone builds the named tuple.  ``_g_value`` is ``_bound`` at a = 1, and
``g_region`` is ``classify_region`` there with G's strip index, one up.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple

from .geometry import PlanePoint
from .rational import DomainError, _exact, _index

__all__ = [
    "Family",
    "RegionKind",
    "RegionTag",
    "vertex_f",
    "curve_vertices",
    "curve_height",
    "curve_x",
    "f_value",
    "f_extended",
    "g_value",
    "f_region",
    "g_region",
    "classify_region",
    "bellman_value",
    "profile_slopes",
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


def _vertex_level(k: int, m: int) -> tuple[int, int]:
    """The level of vertex k of F curve m, as a numerator and denominator."""
    # F curve m is a polygon from the origin through vertices k = m, ..., 0,
    # vertex k at (2**-k, m - k + 3 - 2**-k), to its top m + 2 at x = 1.  Its
    # origin segment rises 3 * 2**m - 1 per unit of x, and segment k, from
    # vertex k to vertex k-1 over 2**-k < x <= 2**(1-k), rises 2**k - 1.
    return ((m - k + 3) << k) - 1, 1 << k


def _curve_index(m: int) -> int:
    m = _index(m, "curve index")
    if m < 0:
        raise DomainError(f"curve index must be nonnegative, got {m}")
    return m


def _vertex(family: Family, k: int, m: int) -> PlanePoint:
    k, m = _index(k, "vertex index"), _index(m, "curve index")
    if not 0 <= k <= m:
        raise DomainError(f"vertex indices need 0 <= k <= m, got k={k}, m={m}")
    num, den = _vertex_level(k, m)  # G's lies 2**-k lower: it is F curve m - 1's vertex k - 1
    return PlanePoint(Fraction(1, den), Fraction(num - (family is Family.G), den))


def vertex_f(k: int, m: int) -> PlanePoint:
    """k-th vertex of the m-th F curve: (2**-k, m - k + 3 - 2**-k)."""
    return _vertex(Family.F, k, m)


def curve_vertices(family: Family, m: int) -> list[PlanePoint]:
    """Vertices of the m-th curve: origin, then k = m down to 0."""
    m = _curve_index(m)
    return [PlanePoint(ZERO, ZERO)] + [_vertex(family, k, m) for k in range(m, -1, -1)]


def curve_height(family: Family, m: int, x: Fraction) -> Fraction:
    """Level of the m-th curve above ``x`` in [0, 1]."""
    m, x = _curve_index(m), _exact(x, "x")
    p, q = x.numerator, x.denominator
    if not 0 <= p <= q:
        raise DomainError(f"curve argument must lie in [0, 1], got {x}")
    if family is Family.G:  # F curve m - 1 at min(2x, 1); G curve 0 is the line level = x
        if m == 0:
            return x
        m, p = m - 1, min(2 * p, q)
    if p == 0:
        return ZERO
    k = 1 + _floor_log2(q, p)  # 2**-k < x <= 2**(1-k)
    if k > m:  # x <= 2**-m: the origin segment
        return Fraction(p * ((3 << m) - 1), q)
    return Fraction(p * ((1 << k) - 1) + (m - k + 2) * q, q)


# The kernel, over the F curves: closed forms solved on the integer
# numerators and denominators of a point, as the module docstring says.

Pair = tuple[int, int]  # a rational as (numerator, positive denominator)


def _curve_x(m: int, num: int, den: int) -> tuple[int, int]:
    """The x at which F curve m reaches level num/den, as a numerator and denominator.

    Requires 0 <= level <= the curve's top m + 2.
    """
    # Vertex m, where the origin segment ends, lies at level 3 - 2**-m,
    # below 3, so a higher level is past it without building 2**m.
    if num < 3 * den:
        origin = (3 << m) - 1  # the origin segment's slope
        if num << m <= origin * den:
            return num, den * origin
    # Vertex k-1 lies at a level in [m-k+3, m-k+4), so the segment ending at
    # the first vertex at or above the level is k = m + 4 - ceil(level) or
    # the next one up, k - 1.
    k = m + 4 + (-num // den)  # m + 4 - ceil(level)
    if num << (k - 1) > (((m - k + 4) << (k - 1)) - 1) * den:
        k -= 1
    return num - (m - k + 2) * den, den * ((1 << k) - 1)


def _strip(p: int, q: int, num: int, den: int) -> tuple[int, bool]:
    """Strip index of (x, level) = (p/q, num/den) over the F curves and a plateau flag.

    Strip m is the set where the level exceeds curve m-1 but not curve m
    (strip 0: at or below curve 0), so m is the first curve that reaches
    the level above x.  Curves 0 to k-1 pass over x's segment k on their
    origin segments, curves k and up on their segment k; on either part
    the curve's level above x is explicit in m and solved for it.  The
    profile is constant on strip 0 and wherever the level exceeds the top
    of curve m-1.  Requires 0 < x <= 1 and level > 0.
    """
    # x's dyadic segment k, 2**-k < x <= 2**(1-k).  Each bound at a level
    # above 1 runs this, so max is written out as two tests.
    k = 1 + _floor_log2(q, p)
    # The first m with x * (3 * 2**m - 1) >= level, i.e. 2**m >= (level + x) / (3*x).
    m = -_floor_log2(3 * p * den, num * q + p * den)
    if m < 0:
        m = 0
    if m >= k:
        # The first m >= k with curve_height = x * (2**k - 1) + m - k + 2 >= level,
        # i.e. m - k + 2 >= ceil(level - x * (2**k - 1)).
        m = k - 2 - (((1 << k) - 1) * p * den - num * q) // (den * q)
        if m < k:
            m = k
    return m, m == 0 or num > (m + 1) * den


def _strip_value(p: int, q: int, num: int, den: int, m: int, plateau: bool) -> tuple[int, int]:
    """The profile over the F curves at 0 < x = p/q <= 1 in strip m: 2**-m on curve m.

    Between curves m and m-1 it interpolates linearly along the horizontal
    line at the level, from 2**-m to 2**(1-m), except on a plateau.
    """
    if plateau:
        return 1, 1 << m
    left_p, left_q = _curve_x(m, num, den)
    right_p, right_q = _curve_x(m - 1, num, den)
    # x - left and right - left, over the common denominator q * left_q * right_q.
    rise = (p * left_q - left_p * q) * right_q
    run = (right_p * left_q - left_p * right_q) * q
    if run <= 0:
        raise DomainError("segment endpoints must be ordered by x")
    if not 0 <= rise <= run:
        raise DomainError(f"x={Fraction(p, q)} outside strip {m}'s segment")
    return run + rise, run << m


def _profile(p: int, q: int, num: int, den: int) -> tuple[int, int]:
    """The F profile at 0 <= x = p/q <= 1: 0 on the axis x = 0."""
    if p == 0:
        return 0, 1
    return _strip_value(p, q, num, den, *_strip(p, q, num, den))


def curve_x(family: Family, m: int, level: Fraction) -> Fraction:
    """Inverse of ``curve_height``: the x at which curve m reaches ``level``.

    G curve m is F curve m - 1 at 2x: its crossing is half of F's, so the
    inverse of its flat top on [1/2, 1] is 1/2; G curve 0 is the line level = x.
    """
    m, level = _curve_index(m), _exact(level, "level")
    num, den, g = level.numerator, level.denominator, family is Family.G
    top = m + 2 - g
    if not 0 <= num <= top * den:
        raise DomainError(f"level {level} outside curve range [0, {top}]")
    if g and m == 0:
        return level
    p, q = _curve_x(m - g, num, den)
    return Fraction(p, q << g)


def _f_value(x: Pair, level: Pair) -> Pair:
    """``f_value`` at 0 <= x <= 1 and level > 0."""
    return _profile(*x, *level)


def _f_extended(x: Pair, level: Pair) -> Pair:
    """``f_extended`` at x >= 0 and level > 0."""
    return _profile(*(x if x[0] <= x[1] else (1, 1)), *level)


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
    """The a = 1 boundary profile: the bound ``bellman_value(x, 1, level)``.

    For levels at most 1: half the rescaled a=2 profile left of level/4, a
    straight interpolation up to 1 on [level/4, level], and 1 beyond.  For
    larger levels: half of the a=2 profile at min(2x, 1), which is the strip
    construction of ``f_value`` over the G family of curves.
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
_ZERO = RegionTag(RegionKind.ZERO)

# A point's entry in a row of the bound: its kind, strip and plateau flag
# (as in a RegionTag) and the value's numerator and denominator.  The kinds
# are globals: each read of an Enum member is a class attribute lookup,
# about 0.15 us on Python 3.10 and 3.11.
RowEntry = tuple[RegionKind, int | None, bool, int | None, int | None]
_HEIGHT_KIND = RegionKind.HEIGHT
_MIXED_KIND = RegionKind.MIXED
_PROFILE_KIND = RegionKind.PROFILE
_STRIP_KIND = RegionKind.STRIP
_OBSTACLE_ENTRY = (RegionKind.OBSTACLE, None, False, 1, 1)
_FULL_ENTRY = (RegionKind.FULL, None, False, 1, 1)
_ZERO_ENTRY = (RegionKind.ZERO, None, False, 0, 1)


def _bound_row(x: Pair, a: Pair, levels: Iterable[Pair], values: bool = True) -> list[RowEntry]:
    """The bound's region and value at x in [0, 1], a in [0, 2] and each of ``levels``, in order.

    Without ``values`` a strip entry's value, about 2**-level and too large
    to build at a far level, is (None, None); its tag costs the same anywhere.
    """
    (xn, xd), (an, ad) = x, a
    # The point min(2x/a, 1) of the F profile, which carries the bound at
    # profile and strip points, a/2 times its value there (there a > 0).
    p, q = 2 * xn * ad, an * xd
    if p >= q:
        p = q = 1
    xa = xn * ad
    row = []
    append = row.append
    for num, den in levels:
        if num <= 0:
            append(_OBSTACLE_ENTRY)
        elif num <= den:
            # x and the level's factor, both over xd * den * ad: the edges
            # 2x = level * (3 - a), x = level * a and 4x = level * a.
            u, w = xa * den, num * xd
            if an >= ad and 2 * u >= w * (3 * ad - an):
                append(_FULL_ENTRY)
            elif an <= ad and u >= w * an:
                append((_HEIGHT_KIND, None, False, an, ad))
            elif 4 * u <= w * an:
                f_num, f_den = _profile(p, q, num, den)
                append((_PROFILE_KIND, None, False, an * f_num, 2 * ad * f_den))
            else:  # (a + 2x / level) / 3
                append((_MIXED_KIND, None, False, an * w + 2 * u, 3 * ad * w))
        elif an == 0 or xn == 0:
            append(_ZERO_ENTRY)
        else:
            m, plateau = _strip(p, q, num, den)
            if values:
                f_num, f_den = _strip_value(p, q, num, den, m, plateau)
                append((_STRIP_KIND, m, plateau, an * f_num, 2 * ad * f_den))
            else:
                append((_STRIP_KIND, m, plateau, None, None))
    return row


def _bound(x: Pair, a: Pair, level: Pair) -> Pair:
    """``bellman_value`` at x in [0, 1] and a in [0, 2]: the one-level row."""
    return _bound_row(x, a, (level,))[0][3:]


def _g_value(x: Pair, level: Pair) -> Pair:
    """``g_value`` at 0 <= x <= 1 and level > 0: the bound at height 1."""
    return _bound(x, (1, 1), level)


def classify_region(x: Fraction, a: Fraction, level: Fraction) -> RegionTag:
    """Locate (x, a, level) in the phase portrait of the bound.

    For levels in (0, 1] the (x, a) box splits into four polygons; boundary
    ties resolve by the fixed priority full > height > profile > mixed (the
    adjoining formulas agree on shared edges, so the tie-break is value
    neutral).  For larger levels the tag is the F-strip of the rescaled
    point (2x/a clamped to 1, level).
    """
    x, a, level = _pair(_exact(x, "x")), _pair(_exact(a, "height")), _pair(_exact(level, "level"))
    if not 0 <= x[0] <= x[1]:
        raise DomainError(f"x must lie in [0, 1], got {Fraction(*x)}")
    if not 0 <= a[0] <= 2 * a[1]:
        raise DomainError(f"height must lie in [0, 2], got {Fraction(*a)}")
    (entry,) = _bound_row(x, a, (level,), values=False)
    return tuple.__new__(RegionTag, entry[:3])  # without the named tuple's slower __new__


def bellman_value(x: Fraction, a: Fraction, level: Fraction) -> Fraction:
    """The sharp level-set bound at measure ``x``, height ``a``, given level.

    The supremum is over weight sequences with weights in {0, 1} and
    Carleson constant at most 2; fractional weights are not covered.
    """
    x, a, level = _exact(x, "x"), _exact(a, "height"), _exact(level, "level")
    # One classify_region call, looked up at call time, so a wrapper
    # installed on the module's name sees every evaluation's region; the
    # value is the same one-level row, evaluated again.
    classify_region(x, a, level)
    ((_, _, _, num, den),) = _bound_row(_pair(x), _pair(a), (_pair(level),))
    return Fraction(num, den)


def f_region(x: Fraction, level: Fraction) -> RegionTag:
    """Strip tag of the a=2 profile at (x, level)."""
    x, level = _exact(x, "x"), _exact(level, "level")
    p, q, num, den = x.numerator, x.denominator, level.numerator, level.denominator
    if not 0 <= p <= q:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if num <= 0:
        return _OBSTACLE
    if p == 0:
        return _ZERO
    return RegionTag(RegionKind.STRIP, *_strip(p, q, num, den))


def g_region(x: Fraction, level: Fraction) -> RegionTag:
    """Region tag of the a=1 profile: the bound's at height 1, where G strip m + 1 is F's m."""
    kind, strip, plateau = tag = classify_region(x, ONE, level)
    return RegionTag(kind, strip + 1, plateau) if kind is RegionKind.STRIP else tag


def _profile_vertices(level: Pair, x_min: Pair) -> list[tuple[Pair, Pair]]:
    """The (x, f) vertices of ``f_value(., level)`` on [x_min, 1], 0 < x_min <= 1, left to right."""
    # Curves first to last cross the level in [x_min, 1], left to right
    # from last, first and last being the strips of x = 1 and of x_min.
    # The ends take f's values unless a crossing is x_min itself; a curve
    # crossing at x = 1 (when the level is its top) gives way to f(1).
    (num, den), (xn, xd) = level, x_min
    first, _ = _strip(1, 1, num, den)
    last, _ = _strip(xn, xd, num, den)
    vertices = []
    for m in range(last, first - 1, -1):
        p, q = _curve_x(m, num, den)
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


def profile_slopes(level: Fraction, x_min: Fraction) -> tuple[Fraction, ...]:
    """Slopes of ``f_value(., level)`` on [x_min, 1], left to right.

    Concavity of the profile is the statement that this list is
    non-increasing.
    """
    slopes = _profile_slopes(*_check_profile_window(level, x_min))
    return tuple(Fraction(*slope) for slope in slopes)


def _segment_slope(strip: int, level: Pair) -> Pair:
    """The profile's slope in strip >= 1 at 0 < level <= strip + 1, between its two curves."""
    left_p, left_q = _curve_x(strip, *level)
    right_p, right_q = _curve_x(strip - 1, *level)
    # 1 / (2**strip * (right - left))
    return left_q * right_q, (right_p * left_q - left_p * right_q) << strip


def _recip_slope_forms(window: int, m: int) -> dict[str, tuple[tuple, tuple]]:
    """Strip m + 1's reciprocal slope c0 + c1 * level, by level range in (window, window + 1]."""
    two = 2 << m  # 2**s, s = m + 1 the strip index

    def form(c: int, a: int, b: int) -> tuple[Pair, Pair]:
        # c1 = 2**s (1/a - 1/b) = 2**s (b - a) / (a b), and c0 = -c c1
        return (-c * two * (b - a), a * b), (two * (b - a), a * b)

    k = window  # the ranges end at k, at two curve vertices and at k + 1
    ends = (k, 1), _vertex_level(m - k + 2, m), _vertex_level(m - k + 3, m + 1), (k + 1, 1)
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


def _check_window(window: int, m: int) -> tuple[int, int]:
    """The window and curve index of ``_recip_slope_forms``, checked."""
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
