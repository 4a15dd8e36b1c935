"""The integer kernel of ``candidate`` against its Fraction forms.

``bellman_value``, ``classify_region``, ``f_value``, ``g_value``,
``f_region``, ``g_region`` and ``curve_x`` evaluate on the numerators and
denominators of their arguments; ``tests/reference.py`` keeps the same
closed forms in ``Fraction`` arithmetic, with ``lerp`` for the
interpolation.  Points are drawn on the region edges on purpose: x = level,
4x = level * a, 2x = level * (3 - a), x = 0, a = 0, the curve vertices and
the points where a curve crosses the level, at levels up to 10**6 and x
down to 2**-64.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    bellman_value_fraction,
    classify_region_fraction,
    curve_top,
    curve_x_fraction,
    f_value_fraction,
    g_value_fraction,
    profile_region_fraction,
)
from sparsebound.candidate import (
    Family,
    RegionKind,
    bellman_value,
    classify_region,
    curve_x,
    f_region,
    f_value,
    g_region,
    g_value,
    vertex_f,
    vertex_g,
)

MAX_LEVEL = 2000
FAR_LEVEL = 10**6
MAX_EXPONENT = 64

families = st.sampled_from(list(Family))


def vertex(family, k, m):
    return (vertex_f if family is Family.F else vertex_g)(k, m)


@st.composite
def unit_points(draw):
    """x in [0, 1]: 0, or p/q in (0, 1] halved up to 64 times (p = q gives 2**-e exactly)."""
    if draw(st.integers(0, 15)) == 0:
        return F(0)
    q = draw(st.integers(1, 48))
    return F(draw(st.integers(1, q)), q * 2 ** draw(st.integers(0, MAX_EXPONENT)))


@st.composite
def levels(draw):
    """A level: at most 0, in (0, 1], up to 2000, near 10**6, a vertex level or near a curve top."""
    kind = draw(st.sampled_from(("nonpositive", "small", "fraction", "far", "vertex", "top")))
    q = draw(st.integers(1, 64))
    if kind == "nonpositive":
        return -F(draw(st.integers(0, 4 * q)), q)
    if kind == "small":
        return F(draw(st.integers(1, q)), q)
    if kind == "fraction":
        return F(draw(st.integers(q + 1, MAX_LEVEL * q)), q)
    if kind == "far":
        return FAR_LEVEL + F(draw(st.integers(-1000, 1000)), 7)
    if kind == "vertex":
        m = draw(st.integers(0, MAX_LEVEL))
        return vertex(draw(families), draw(st.integers(0, min(m, MAX_EXPONENT))), m).y
    # The top of curve m, m + 3 - s, or just below it.
    top = draw(st.integers(1, MAX_LEVEL))
    return top - F(draw(st.integers(0, 1)), 2 ** draw(st.integers(0, MAX_EXPONENT)))


@st.composite
def heights(draw):
    """a in [0, 2]: the ends, 1, or p/q with q up to 32."""
    if draw(st.booleans()):
        return F(draw(st.sampled_from((0, 1, 2))))
    q = draw(st.integers(1, 32))
    return F(draw(st.integers(0, 2 * q)), q)


EDGES = ("free", "x = level", "4x = level a", "2x = level (3 - a)", "x = 0", "a = 0", "vertex")


@st.composite
def bound_points(draw):
    """(x, a, level) in the box, often on an edge between two regions or on a curve vertex."""
    x, a, level = draw(unit_points()), draw(heights()), draw(levels())
    edge = draw(st.sampled_from(EDGES))
    if edge == "x = level":
        x = level
    elif edge == "4x = level a":
        x = level * a / 4
    elif edge == "2x = level (3 - a)":
        x = level * (3 - a) / 2
    elif edge == "x = 0":
        x = F(0)
    elif edge == "a = 0":
        a = F(0)
    elif edge == "vertex":
        # The scaled point 2x/a on vertex k of F curve m, at its level.
        m = draw(st.integers(0, MAX_LEVEL))
        k = draw(st.integers(0, min(m, MAX_EXPONENT)))
        a = a or F(2)
        point = vertex_f(k, m)
        x, level = a * point.x / 2, point.y
    return min(max(x, F(0)), F(1)), a, level


@st.composite
def profile_points(draw):
    """(family, x, level) with x in [0, 1] and level > 0, often on a curve vertex or crossing."""
    family, x, level = draw(families), draw(unit_points()), draw(levels())
    if level <= 0:
        level = 1 - level
    edge = draw(st.sampled_from(("free", "vertex", "crossing", "x = level", "4x = level")))
    if edge == "vertex":
        m = draw(st.integers(0, MAX_LEVEL))
        x, level = vertex(family, draw(st.integers(0, min(m, MAX_EXPONENT))), m)
    elif edge == "crossing" and level <= MAX_LEVEL:
        # Where a curve at or above the first to reach the level crosses it.
        first = max(0, -(-level // 1) - curve_top(family, 0))
        x = curve_x_fraction(family, first + draw(st.integers(0, 70)), level)
    elif edge == "x = level":
        x = level
    elif edge == "4x = level":
        x = level / 4
    return family, min(x, F(1)), level


@settings(max_examples=400, deadline=None)
@given(point=bound_points())
def test_bellman_value_matches_fraction_form(point):
    x, a, level = point
    assert classify_region(x, a, level) == classify_region_fraction(x, a, level)
    value = bellman_value(x, a, level)
    assert type(value) is F
    assert value == bellman_value_fraction(x, a, level)


@settings(max_examples=400, deadline=None)
@given(point=profile_points())
def test_profiles_match_fraction_form(point):
    family, x, level = point
    value, region = (f_value, f_region) if family is Family.F else (g_value, g_region)
    oracle = f_value_fraction if family is Family.F else g_value_fraction
    assert region(x, level) == profile_region_fraction(family, x, level)
    result = value(x, level)
    assert type(result) is F
    assert result == oracle(x, level)


@st.composite
def curve_levels(draw):
    """A family, a curve and a level in [0, its top]: anywhere, on a vertex, or near the top."""
    family = draw(families)
    far = draw(st.booleans())
    m = draw(st.integers(FAR_LEVEL, FAR_LEVEL + 70) if far else st.integers(0, MAX_LEVEL))
    top = curve_top(family, m)
    kind = draw(st.sampled_from(("any", "vertex", "near")))
    if kind == "vertex":
        k = draw(st.integers(0, min(m, MAX_EXPONENT)))
        return family, m, vertex(family, k, m).y
    if kind == "near" or far:  # a far curve's origin segment ends below level 3
        return family, m, top - F(draw(st.integers(0, 7)), draw(st.integers(8, 64)))
    q = draw(st.integers(1, 64))
    return family, m, F(draw(st.integers(0, top * q)), q)


@settings(max_examples=300, deadline=None)
@given(point=curve_levels())
def test_curve_x_matches_fraction_form(point):
    family, m, level = point
    x = curve_x(family, m, level)
    assert type(x) is F
    assert x == curve_x_fraction(family, m, level)


def test_every_region_kind_on_the_edges():
    # A grid through every edge: each kind is met, and both forms agree.
    seen = set()
    for a in (F(0), F(1, 4), F(1, 2), F(1), F(3, 2), F(7, 4), F(2)):
        for level in (F(-1), F(0), F(1, 8), F(1, 2), F(1), F(5, 2), F(3), F(7, 2), F(10**6)):
            edges = {F(0), F(1), level, level * a / 4, level * (3 - a) / 2, a / 4, F(1, 2**64)}
            for x in sorted(v for v in edges if 0 <= v <= 1):
                tag = classify_region(x, a, level)
                assert tag == classify_region_fraction(x, a, level), (x, a, level)
                assert bellman_value(x, a, level) == bellman_value_fraction(x, a, level)
                seen.add(tag.kind)
    assert seen == set(RegionKind)
