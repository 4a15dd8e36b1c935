"""The integer kernel of ``candidate`` against its Fraction forms.

``bellman_value``, ``classify_region``, ``f_value``, ``g_value``,
``f_region``, ``g_region``, ``curve_x`` and ``_recip_slope_forms`` evaluate on the numerators and
denominators of their arguments; ``tests/reference.py`` keeps the same
closed forms in ``Fraction`` arithmetic, with ``lerp`` for the
interpolation.  Points are drawn on the region edges on purpose: x = level,
4x = level * a, 2x = level * (3 - a), x = 0, a = 0, the curve vertices and
the points where a curve crosses the level, at levels up to 10**6 and x
down to 2**-64.  The kernel's own entries are also fed numerators and
denominators that share a factor, as the verify suites feed them, and
``_bound_row`` whole rows of levels at one point, as the brute report
feeds it.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    _vertex_level,
    bellman_value_fraction,
    classify_region_fraction,
    curve_top,
    curve_x_fraction,
    f_value_fraction,
    g_value_fraction,
    profile_region_fraction,
    recip_slope_forms_fraction,
)
from sparsebound.candidate import (
    Family,
    RegionKind,
    RegionTag,
    _bound,
    _bound_row,
    _f_extended,
    _f_value,
    _g_value,
    _recip_slope_forms,
    bellman_value,
    classify_region,
    curve_x,
    f_region,
    f_value,
    g_region,
    g_value,
    vertex_f,
)
from sparsebound.geometry import PlanePoint

MAX_LEVEL = 2000
FAR_LEVEL = 10**6
MAX_EXPONENT = 64

families = st.sampled_from(list(Family))


def vertex(family, k, m):
    return PlanePoint(F(1, 2**k), _vertex_level(family, k, m))


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
    # An integer level in [1, MAX_LEVEL], or just below one: every curve top
    # is such a level (F curve m tops out at m + 2, G curve m at m + 1).
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


def unreduced(value, k):
    """``value`` as a (numerator, denominator) pair with both multiplied by k."""
    return value.numerator * k, value.denominator * k


factors = st.integers(1, 7)


@settings(max_examples=400, deadline=None)
@given(point=bound_points(), ks=st.tuples(factors, factors, factors))
def test_bound_entry_on_unreduced_inputs(point, ks):
    # The kernel's denominators need not be in lowest terms: the verify
    # suites feed it sums and midpoints as they come.
    x, a, level = point
    pairs = [unreduced(value, k) for value, k in zip(point, ks)]
    assert F(*_bound(*pairs)) == bellman_value_fraction(x, a, level)


@settings(max_examples=400, deadline=None)
@given(point=profile_points(), ks=st.tuples(factors, factors))
def test_profile_entries_on_unreduced_inputs(point, ks):
    family, x, level = point
    if family is Family.F:
        entry, oracle = _f_value, f_value_fraction
    else:
        entry, oracle = _g_value, g_value_fraction
    x_pair, level_pair = unreduced(x, ks[0]), unreduced(level, ks[1])
    assert F(*entry(x_pair, level_pair)) == oracle(x, level)
    # f beyond x = 1 by its boundary value, at 2x in [0, 2].
    doubled = (2 * x_pair[0], x_pair[1])
    assert F(*_f_extended(doubled, level_pair)) == f_value_fraction(min(2 * x, F(1)), level)


# One level of a row beside those of ``levels()``: exactly 1, an integer
# (where a strip's plateau begins), just above one, or above 1000.
row_level = st.one_of(
    levels(),
    st.just(F(1)),
    st.integers(2, MAX_LEVEL).map(F),
    st.builds(lambda k, e: k + F(1, 2**e), st.integers(1, MAX_LEVEL), st.integers(0, MAX_EXPONENT)),
    st.builds(lambda n, q: F(1000 * q + n, q), st.integers(1, 10**7), st.integers(1, 7)),
)


@st.composite
def row_points(draw):
    """(x, a) and a rising list of levels with repeats, some on the point's own region edges."""
    x, a, level = draw(bound_points())
    if a and draw(st.booleans()):
        # The scaled point 2x/a anywhere in (0, 1]: at (1/2, 1) every integer
        # level above 1 is a plateau edge.
        q = draw(st.integers(1, 48))
        x = min(a * F(draw(st.integers(1, q)), q) / 2, F(1))
    # The levels at which (x, a) lies on the height, profile and full edges.
    edges = [x / a, 4 * x / a, 2 * x / (3 - a)] if a else []
    return x, a, sorted([level, level, *edges, *draw(st.lists(row_level, max_size=10))])


@settings(max_examples=250, deadline=None)
@given(point=row_points(), ks=st.tuples(factors, factors))
def test_bound_row_matches_fraction_forms(point, ks):
    # One row per (x, a), as the brute report reads it: each entry is that
    # level's region and value, as the Fraction forms give them.
    x, a, row_levels = point
    pairs = [unreduced(t, k) for k, t in enumerate(row_levels, 1)]
    x_pair, a_pair = unreduced(x, ks[0]), unreduced(a, ks[1])
    row = _bound_row(x_pair, a_pair, pairs)
    assert len(row) == len(row_levels)
    # The tags alone, as classify_region reads them: the same, with no strip value built.
    tags = _bound_row(x_pair, a_pair, pairs, values=False)
    assert [entry[:3] for entry in tags] == [entry[:3] for entry in row]
    assert all(entry[3:] == (None, None) for entry in tags if entry[0] is RegionKind.STRIP)
    for level, (kind, strip, plateau, num, den) in zip(row_levels, row):
        assert (kind, strip, plateau) == classify_region_fraction(x, a, level), level
        assert F(num, den) == bellman_value_fraction(x, a, level), level


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


# (function, arguments, describe()) at every kind each public function returns.
PUBLIC_TAGS = [
    (classify_region, (F(1, 3), F(2), F(-1)), "obstacle"),
    (classify_region, (F(1), F(2), F(1)), "full"),
    (classify_region, (F(3, 4), F(1, 2), F(1, 2)), "height"),
    (classify_region, (F(1, 4), F(1), F(1, 2)), "mixed"),
    (classify_region, (F(7, 80), F(1), F(1, 2)), "profile"),
    (classify_region, (F(1, 3), F(2), F(3)), "strip m=2"),
    (classify_region, (F(1, 2), F(2), F(5, 2)), "strip m=1, plateau"),
    (classify_region, (F(1, 32), F(2), F(FAR_LEVEL)), "strip m=1000003"),
    (classify_region, (F(0), F(2), F(3)), "zero"),
    (f_region, (F(1, 2), F(0)), "obstacle"),
    (f_region, (F(1, 3), F(3)), "strip m=2"),
    (f_region, (F(1), F(7, 2)), "strip m=2, plateau"),
    (f_region, (F(1, 2**20), F(FAR_LEVEL)), "strip m=1000018"),
    (f_region, (F(0), F(3)), "zero"),
    (g_region, (F(1, 2), F(-1)), "obstacle"),
    (g_region, (F(3, 4), F(1, 2)), "full"),
    (g_region, (F(1, 2), F(1)), "mixed"),
    (g_region, (F(1, 10), F(1)), "profile"),
    (g_region, (F(1, 3), F(3, 2)), "strip m=2"),
    (g_region, (F(1), F(5, 2)), "strip m=2, plateau"),
    (g_region, (F(1, 3), F(FAR_LEVEL)), "strip m=1000000"),
    (g_region, (F(0), F(5, 2)), "zero"),
]


def test_public_region_functions_return_region_tags():
    # The kernel hands a strip back as a plain tuple, which == cannot tell
    # from a tag with the same fields; the public functions return tags.
    for region, args, text in PUBLIC_TAGS:
        tag = region(*args)
        assert type(tag) is RegionTag, (region.__name__, args)
        assert tag.describe() == text, (region.__name__, args)
    assert {region(*args).kind for region, args, _ in PUBLIC_TAGS} == set(RegionKind)


def test_recip_slope_forms_match_fraction_form():
    # The integer forms, unreduced pairs from differences of reciprocals,
    # against the forms built from the curve vertices in Fractions.
    for window in range(2, 15):
        for m in range(max(1, window - 1), 17):
            want = recip_slope_forms_fraction(window, m)
            got = {
                name: tuple(tuple(F(*pair) for pair in part) for part in form)
                for name, form in _recip_slope_forms(window, m).items()
            }
            assert got == want, (window, m)
