"""The G family, read from F, against the reference's own G kernel.

``candidate`` keeps the F curves only, and reads g off the bound at
height 1: ``_g_value`` is ``_bound`` at a = 1 and ``g_region`` is
``classify_region`` there, a strip up, so g has no region tests of its
own.  Above level 1 that makes g at x half of f at min(2x, 1), G's strip
F's strip there plus one, G curve m F curve m - 1 at min(2x, 1) and G
curve 0 the line level = x.  The ``verify`` suite ``gconsist`` compares g
with the bound at height 1 up to level 1 and with half of f above it, so
at every level it checks a code path against itself.  This test is the
independent check: ``tests/reference.py`` builds the G curves from their
own offset, in ``Fraction`` arithmetic (``strip_fraction``,
``curve_x_fraction``, ``g_value_fraction``) or by scanning the segments
(``curve_height_scan``), and every public G entry must agree with it:

- on the grid x = i/128, level = j/16 up to 14;
- at every G vertex level of the curves below ``VERTEX_CURVES``, and
  2**-20 above and below it;
- at and around the integer levels, where a strip's plateau flips;
- at x = 1/2, where the clamp min(2x, 1) begins and G's flat top ends;
- at one far level.

The identity the library assumes, g and its regions as the bound's at
height 1, is checked between the reference's two independent forms.
"""

from fractions import Fraction as F

import pytest

from reference import (
    _vertex_level,
    bellman_value_fraction,
    classify_region_fraction,
    curve_height_scan,
    curve_top,
    curve_x_fraction,
    curve_x_scan,
    g_value_fraction,
    profile_region_fraction,
)
from sparsebound.candidate import (
    Family,
    RegionKind,
    curve_height,
    curve_vertices,
    curve_x,
    g_region,
    g_value,
)
from sparsebound.geometry import PlanePoint

G = Family.G
EPS = F(1, 2**20)
GRID_X = [F(i, 128) for i in range(129)]
GRID_LEVELS = [F(j, 16) for j in range(-1, 14 * 16 + 1)]
VERTEX_CURVES = 12  # vertex levels of G curves 0..11
CURVES = 40  # curve indices checked for curve_height, curve_vertices and the origin segment
FAR_LEVEL = 10**6 + F(1, 3)


def near(value):
    """``value`` and 2**-20 either side of it."""
    return (value - EPS, value, value + EPS)


def vertex_levels():
    return sorted({_vertex_level(G, k, m) for m in range(VERTEX_CURVES) for k in range(m + 1)})


def assert_profile_matches(x, level):
    assert g_region(x, level) == profile_region_fraction(G, x, level), (x, level)
    if level > 0:
        assert g_value(x, level) == g_value_fraction(x, level), (x, level)


def assert_crossings_match(level):
    # Every G curve that reaches the level, and the first few that pass above it.
    if level < 0:
        return
    first = max(0, int(level) - 1)
    for m in range(first, first + 8):
        if level <= curve_top(G, m):
            assert curve_x(G, m, level) == curve_x_fraction(G, m, level), (m, level)


def test_grid():
    for level in GRID_LEVELS:
        for x in GRID_X:
            assert_profile_matches(x, level)
        assert_crossings_match(level)


def test_vertex_levels():
    edges = (x for k in range(VERTEX_CURVES) for x in near(F(1, 2**k)) if x <= 1)
    xs = sorted({*GRID_X[::8], *edges})
    for vertex_level in vertex_levels():
        for level in near(vertex_level):
            for x in xs:
                assert_profile_matches(x, level)
            assert_crossings_match(level)


def test_plateau_flips():
    # G strip m is a plateau above level m, the top of G curve m - 1.
    xs = sorted({*GRID_X, *near(F(1, 2))})
    for n in range(1, 15):
        for level in near(F(n)):
            for x in xs:
                assert_profile_matches(x, level)
            assert_crossings_match(level)


def test_half():
    # At x = 1/2 the clamp begins, and on [1/2, 1] each G curve m >= 1 is flat at m + 1.
    for level in [*GRID_LEVELS, *vertex_levels()]:
        for x in near(F(1, 2)):
            assert_profile_matches(x, level)
    for m in range(CURVES):
        for x in (*near(F(1, 2)), F(3, 4), F(1)):
            assert curve_height(G, m, x) == curve_height_scan(G, m, x), (m, x)
        assert curve_x(G, m, F(m + 1)) == curve_x_fraction(G, m, F(m + 1))


def test_curves():
    xs = sorted({*GRID_X, *(x for k in range(CURVES) for x in near(F(1, 2**k)) if 0 <= x <= 1)})
    for m in range(CURVES):
        # The origin segment ends at vertex m: curve_x there and a third of the way up.
        for level in (_vertex_level(G, m, m) / 3, _vertex_level(G, m, m)):
            assert curve_x(G, m, level) == curve_x_scan(G, m, level), (m, level)
        expected = [PlanePoint(F(0), F(0))]
        expected += [PlanePoint(F(1, 2**k), _vertex_level(G, k, m)) for k in range(m, -1, -1)]
        assert curve_vertices(G, m) == expected
        for x in xs:
            assert curve_height(G, m, x) == curve_height_scan(G, m, x), (m, x)


def test_g_is_the_bound_at_height_1():
    # The reference's G kernel against its bound at a = 1, both in Fraction
    # arithmetic: the full grid up to level 1, every eighth x above it.
    for level in sorted({*GRID_LEVELS, *vertex_levels()}):
        for x in GRID_X if level <= 1 else GRID_X[::8]:
            tag = classify_region_fraction(x, F(1), level)
            if tag.kind is RegionKind.STRIP:  # G strip m + 1 is F strip m at min(2x, 1)
                tag = tag._replace(strip=tag.strip + 1)
            assert profile_region_fraction(G, x, level) == tag, (x, level)
            if level > 0:
                assert g_value_fraction(x, level) == bellman_value_fraction(x, F(1), level), (x, level)


@pytest.mark.parametrize("x", [F(0), F(1, 2**40), F(1, 3), F(1, 2), F(5, 7), F(1)])
def test_far_level(x, time_limit):
    with time_limit(5):
        assert_profile_matches(x, FAR_LEVEL)
        m = 10**6 + 3  # a curve above the level
        assert curve_x(G, m, FAR_LEVEL) == curve_x_fraction(G, m, FAR_LEVEL)
        assert curve_height(G, m, x) == curve_height_scan(G, m, x)
        assert curve_x(G, m, F(1, 3)) == curve_x_scan(G, m, F(1, 3))  # on the origin segment
