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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .geometry import PiecewiseLinearFn, PlanePoint
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


def _pow2(k: int) -> Fraction:
    return Fraction(1, 2**k) if k >= 0 else Fraction(2 ** (-k))


def _floor_log2(n: int, d: int) -> int:
    """The largest integer e with 2**e <= n/d, for n, d > 0, read off bit lengths."""
    e = n.bit_length() - d.bit_length()  # 2**(e-1) < n/d < 2**(e+1)
    at_least = n >= d << e if e >= 0 else n << -e >= d
    return e if at_least else e - 1


def _segment(p: int, q: int) -> int:
    """The index k of the dyadic segment 2**-k < x <= 2**(1-k) holding x = p/q in (0, 1]."""
    return 1 + _floor_log2(q, p)


def _offset(family: Family) -> int:
    # The F and G formulas differ only in this factor s: vertex k of curve m
    # lies at level m - k + 3 - s * 2**-k, the segment ending at vertex k-1
    # has reciprocal slope 2**k - s, the origin segment 3 * 2**m - s, and
    # curve m tops out at level m + 3 - s.
    return 1 if family is Family.F else 2


def _vertex_level(family: Family, k: int, m: int) -> Fraction:
    return m - k + 3 - _offset(family) * _pow2(k)


def _curve_index(m: int) -> int:
    m = _index(m, "curve index")
    if m < 0:
        raise DomainError(f"curve index must be nonnegative, got {m}")
    return m


def _vertex(family: Family, k: int, m: int) -> PlanePoint:
    k, m = _index(k, "vertex index"), _index(m, "curve index")
    if not 0 <= k <= m:
        raise DomainError(f"vertex indices need 0 <= k <= m, got k={k}, m={m}")
    return PlanePoint(_pow2(k), _vertex_level(family, k, m))


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
    return Fraction(1, 3 * 2**m - _offset(family))


def _segment_denominator(family: Family, k: int) -> int:
    # Reciprocal slope of the segment ending at vertex k-1 is this over 1.
    return 2**k - _offset(family)


def curve_height(family: Family, m: int, x: Fraction) -> Fraction:
    """Level of the m-th curve above ``x`` in [0, 1]."""
    m, x = _curve_index(m), _exact(x, "x")
    if not ZERO <= x <= ONE:
        raise DomainError(f"curve argument must lie in [0, 1], got {x}")
    if x == 0:
        return ZERO
    k = _segment(x.numerator, x.denominator)
    if k > m:  # x <= 2**-m: the origin segment
        return x / origin_parameter(family, m)
    # Segment k; for G it is flat at level m + 1 when k = 1.
    return x * _segment_denominator(family, k) + (m - k + 2)


def _curve_top(family: Family, m: int) -> int:
    return m + 3 - _offset(family)


# The kernel.  A point is given by the integer numerators and denominators
# of its coordinates (denominators positive, not necessarily in lowest
# terms); s is the family's offset.  Each function solves its closed form
# on those integers and returns integers, and the public entry points build
# one Fraction from them.


def _curve_x(s: int, m: int, num: int, den: int) -> tuple[int, int]:
    """The x at which curve m reaches level num/den, as a numerator and denominator.

    Requires 0 <= level <= the curve's top.  For the G family the inverse
    of the flat top segment is taken to be its left endpoint x = 1/2.
    """
    # Vertex m, where the origin segment ends, lies at level 3 - s * 2**-m,
    # below 3, so a higher level is past it without building 2**m.
    if num < 3 * den:
        origin = (3 << m) - s  # the origin segment's reciprocal slope
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
    top = _curve_top(family, m)
    num, den = level.numerator, level.denominator
    if not 0 <= num <= top * den:
        raise DomainError(f"level {level} outside curve range [0, {top}]")
    return Fraction(*_curve_x(_offset(family), m, num, den))


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
    return Fraction(*_profile(1, x.numerator, x.denominator, level.numerator, level.denominator))


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
    p, q, num, den = x.numerator, x.denominator, level.numerator, level.denominator
    if num <= den:
        if 4 * p * den <= num * q:
            f_num, f_den = _profile(1, 2 * p, q, num, den)
            return Fraction(f_num, 2 * f_den)
        if p * den <= num * q:
            # The line from (level/4, 1/2) to (level, 1): (level + 2x) / (3 * level).
            return Fraction(num * q + 2 * p * den, 3 * num * q)
        return ONE
    return Fraction(*_profile(2, p, q, num, den))


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
    xn, xd, an, ad = x.numerator, x.denominator, a.numerator, a.denominator
    num, den = level.numerator, level.denominator
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
    m, plateau = _strip(1, *_scaled(xn, xd, an, ad), num, den)
    return RegionTag(RegionKind.STRIP, strip=m, plateau=plateau)


def bellman_value(x: Fraction, a: Fraction, level: Fraction) -> Fraction:
    """The sharp level-set bound at measure ``x``, height ``a``, given level."""
    x, a, level = _exact(x, "x"), _exact(a, "height"), _exact(level, "level")
    # One classify_region call, looked up at call time, so a wrapper
    # installed on the module's name sees every evaluation's region.
    tag = classify_region(x, a, level)
    kind = tag.kind
    if kind is RegionKind.OBSTACLE or kind is RegionKind.FULL:
        return ONE
    if kind is RegionKind.HEIGHT:
        return a
    if kind is RegionKind.ZERO:
        return ZERO
    xn, xd, an, ad = x.numerator, x.denominator, a.numerator, a.denominator
    num, den = level.numerator, level.denominator
    if kind is RegionKind.MIXED:
        # (a + 2x / level) / 3
        return Fraction(an * xd * num + 2 * xn * den * ad, 3 * ad * xd * num)
    # Profile (level <= 1) or strip (level > 1): a/2 times the F profile at
    # min(2x/a, 1), where a > 0 (a = 0 is a height or zero point).
    p, q = _scaled(xn, xd, an, ad)
    if kind is RegionKind.STRIP:
        f_num, f_den = _strip_value(1, p, q, num, den, tag.strip, tag.plateau)
    else:
        f_num, f_den = _profile(1, p, q, num, den)
    return Fraction(an * f_num, 2 * ad * f_den)


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


def profile_vertices(level: Fraction, x_min: Fraction) -> PiecewiseLinearFn:
    """Vertex list of ``f_value(., level)`` restricted to [x_min, 1].

    The full vertex set accumulates at x = 0, hence the positive left
    cutoff; the leftmost vertex is (x_min, f(x_min)).
    """
    level, x_min = _exact(level, "level"), _exact(x_min, "x_min")
    if level <= 0:
        raise DomainError(f"level must be positive, got {level}")
    if not ZERO < x_min <= ONE:
        raise DomainError(f"x_min must lie in (0, 1], got {x_min}")
    # Curves first to last cross the level in [x_min, 1], left to right
    # from last, first and last being the strips of x = 1 and of x_min.
    # The ends take f's values unless a crossing is x_min itself; a curve
    # crossing at x = 1 (when the level is its top) gives way to f(1).
    num, den = level.numerator, level.denominator
    first, _ = _strip(1, 1, 1, num, den)
    last, _ = _strip(1, x_min.numerator, x_min.denominator, num, den)
    crossings = (
        (Fraction(*_curve_x(1, m, num, den)), _pow2(m)) for m in range(last, first - 1, -1)
    )
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
    left_p, left_q = _curve_x(1, strip, level.numerator, level.denominator)
    right_p, right_q = _curve_x(1, strip - 1, level.numerator, level.denominator)
    # 1 / (2**strip * (right - left))
    return Fraction(left_q * right_q, (right_p * left_q - left_p * right_q) << strip)


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
    window, m = _index(window, "window"), _index(m, "curve index")
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
    n, big_n = _index(n, "n"), _index(big_n, "big_n")
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if big_n < 3:
        raise DomainError(f"the lattice bound needs big_n >= 3, got {big_n}")
    return _pow2(n) * _pow2(big_n - 3)
