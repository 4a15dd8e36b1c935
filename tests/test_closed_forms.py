"""Closed-form curve and strip indices: against the scans, and at far levels.

``curve_x``, ``curve_height``, ``candidate._strip`` and ``profile_vertices``
read the segment and strip indices off the point itself.  The scans they
replaced stay in ``tests/reference.py`` as the oracle; a scan costs time
linear in the level, so the differential tests stay below level 2000.

The far-level tests check values that do not come from the code under
test: the lattice values 2**-n * 2**(3-N) at (2**-n, N - 2**-n), the
vertex formulas for the strip indices, and the lattice brackets around
x = 1/3.  They run under a time limit that a scan over the level overruns.
At level 10**12 a value of the bound has a 10**12-bit denominator, so
there only the region tags and curve indices are checked.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    curve_height_scan,
    curve_top,
    curve_x_scan,
    profile_scan,
    profile_vertices_scan,
    strip_scan,
)
from sparsebound import cli
from sparsebound.candidate import (
    Family,
    RegionKind,
    _strip,
    bellman_value,
    classify_region,
    curve_height,
    curve_x,
    f_region,
    f_value,
    g_region,
    g_value,
    profile_vertices,
    vertex_f,
    vertex_g,
)
from sparsebound.rational import parse_rational

MAX_LEVEL = 2000
MAX_EXPONENT = 64  # x goes down to 2**-64 and a little below
FAR_LEVELS = (10**6, 10**12)

families = st.sampled_from(list(Family))


@st.composite
def unit_points(draw):
    """x in (0, 1]: p/q in (0, 1] halved up to 64 times (p = q gives 2**-e exactly)."""
    q = draw(st.integers(1, 48))
    p = draw(st.integers(1, q))
    return F(p, q * 2 ** draw(st.integers(0, MAX_EXPONENT)))


@st.composite
def levels_up_to(draw, top):
    """A level in (0, top]: a fraction, an integer, or the level of a vertex."""
    kind = draw(st.sampled_from(("fraction", "integer", "vertex")))
    if kind == "integer":
        return F(draw(st.integers(1, top)))
    if kind == "vertex" and top >= 2:
        family = draw(families)
        m = draw(st.integers(0, top - 2))
        k = draw(st.integers(0, min(m, MAX_EXPONENT)))
        return (vertex_f if family is Family.F else vertex_g)(k, m).y
    q = draw(st.integers(1, 64))
    return F(draw(st.integers(1, top * q)), q)


@st.composite
def curve_levels(draw):
    """A family, a curve index up to MAX_LEVEL and a level in [0, top of that curve]."""
    family = draw(families)
    m = draw(st.integers(0, MAX_LEVEL))
    top = curve_top(family, m)
    kind = draw(st.sampled_from(("any", "vertex", "near")))
    if kind == "vertex":
        k = draw(st.integers(0, m))
        return family, m, (vertex_f if family is Family.F else vertex_g)(k, m).y
    if kind == "near":  # at the top or just below it
        return family, m, top - F(draw(st.integers(0, 3)), draw(st.integers(4, 8)))
    q = draw(st.integers(1, 64))
    return family, m, F(draw(st.integers(0, top * q)), q)


@settings(max_examples=300, deadline=None)
@given(family=families, m=st.integers(0, MAX_LEVEL), x=unit_points())
def test_curve_height_matches_scan(family, m, x):
    assert curve_height(family, m, x) == curve_height_scan(family, m, x)


@settings(max_examples=300, deadline=None)
@given(point=curve_levels())
def test_curve_x_matches_scan(point):
    family, m, level = point
    assert curve_x(family, m, level) == curve_x_scan(family, m, level)


@settings(max_examples=300, deadline=None)
@given(family=families, x=unit_points(), level=levels_up_to(MAX_LEVEL))
def test_strip_matches_scan(family, x, level):
    if family is Family.G and level <= 1:
        level += 1
    s = 1 if family is Family.F else 2
    strip = _strip(s, x.numerator, x.denominator, level.numerator, level.denominator)
    assert strip == strip_scan(family, x, level)


@settings(max_examples=80, deadline=None)
@given(x=unit_points(), level=levels_up_to(MAX_LEVEL), a=st.fractions(F(1, 8), 2, max_denominator=16))
def test_profiles_match_scan(x, level, a):
    assert f_value(x, level) == profile_scan(Family.F, x, level)
    if level > 1:
        assert g_value(x, level) == profile_scan(Family.G, x, level)
        # B(x, a, level) is a/2 times f at the scaled point min(2x/a, 1).
        assert bellman_value(x * a / 2, a, level) == a / 2 * profile_scan(Family.F, x, level)
        assert bellman_value(F(1), a, level) == a / 2 * profile_scan(Family.F, F(1), level)


@settings(max_examples=30, deadline=None)
@given(level=levels_up_to(MAX_LEVEL), x_min=unit_points())
def test_profile_vertices_match_scan(level, x_min):
    assert profile_vertices(level, x_min) == profile_vertices_scan(level, x_min)


def test_profile_vertices_match_scan_on_edges():
    # x_min on a kink, at x = 1 (one vertex), and integer levels, where a curve ends at x = 1.
    for level in (F(1, 3), F(1), F(2), F(5, 2), F(3), F(7, 2), F(10), F(11, 4)):
        for x_min in (F(1), F(1, 2), F(1, 4), F(1, 3), F(1, 2**40)):
            assert profile_vertices(level, x_min) == profile_vertices_scan(level, x_min)
        kink = curve_x(Family.F, math.ceil(level) + 3, level)
        assert profile_vertices(level, kink) == profile_vertices_scan(level, kink)


# Far levels.  Lattice point n of level N: x = 2**-n at level N - 2**-n,
# vertex n of F curve N + n - 3, where the bound is 2**-n * 2**(3 - N).


def lattice_value(n, big_n):
    return F(1, 2**n) * F(2) ** (3 - big_n)


LATTICE_NS = (0, 1, 2, 5, MAX_EXPONENT)


@pytest.mark.parametrize("n", LATTICE_NS)
def test_values_at_far_lattice_points(n, time_limit):
    big_n = 10**6
    x = F(1, 2**n)
    expected = lattice_value(n, big_n)
    with time_limit(5):
        assert bellman_value(x, 2, big_n - x) == expected
        assert f_value(x, big_n - x) == expected
        # g(x, level) = B(x, 1, level) = f(2x, level) / 2 above level 1.
        assert g_value(x / 2, big_n - x) == expected / 2
        assert bellman_value(x / 2, 1, big_n - x) == expected / 2


@pytest.mark.parametrize("big_n", FAR_LEVELS)
@pytest.mark.parametrize("n", LATTICE_NS)
def test_strips_at_far_vertices(big_n, n, time_limit):
    # (2**-n, N - 2**-n) is vertex n of F curve N + n - 3, and
    # (2**-n, N - 2**(1-n)) is vertex n of G curve N + n - 3: each lies in
    # that curve's strip, a plateau if above the top of the curve below.
    m = big_n + n - 3
    x = F(1, 2**n)
    with time_limit(2):
        for tag, level, below_top in (
            (f_region(x, big_n - x), big_n - x, m + 1),
            (classify_region(x, 2, big_n - x), big_n - x, m + 1),
            (g_region(x, big_n - 2 * x), big_n - 2 * x, m),
        ):
            assert tag.kind is RegionKind.STRIP
            assert (tag.strip, tag.plateau) == (m, level > below_top)


@pytest.mark.parametrize("big", FAR_LEVELS)
def test_far_strips_bracket_the_level(big, time_limit):
    rng = random.Random(big)
    with time_limit(5):
        for _ in range(40):
            x = F(rng.randint(1, 2**20), 2**20) / 2 ** rng.randint(0, MAX_EXPONENT - 20)
            level = big + F(rng.randint(-1000, 1000), 7)
            for family, region in ((Family.F, f_region), (Family.G, g_region)):
                m = region(x, level).strip
                assert curve_height(family, m - 1, x) < level <= curve_height(family, m, x)


@pytest.mark.parametrize("level", [10**6 - F(1, 4), 10**6, 10**12, 10**12 + F(2, 3)])
def test_curve_x_inverts_curve_height_at_far_levels(level, time_limit):
    with time_limit(2):
        for family in Family:
            first = math.ceil(level) - curve_top(family, 0)  # the first curve to reach the level
            for m in (first, first + 1, first + 7, first + MAX_EXPONENT):
                x = curve_x(family, m, level)
                assert 0 < x <= 1
                assert curve_height(family, m, x) == level


@pytest.mark.parametrize("level", [10**6 - F(1, 4), 10**6, 10**6 + F(3, 7)])
def test_third_between_lattice_brackets(level, time_limit):
    # B rises with x and falls with the level: at x = 1/3 it lies above the
    # x = 1/4 lattice value at the nearest lattice level above, and below
    # the x = 1/2 value at the nearest one below.
    above = math.ceil(level + F(1, 4))
    below = math.floor(level + F(1, 2))
    with time_limit(5):
        value = bellman_value(F(1, 3), 2, level)
    assert lattice_value(2, above) <= value <= lattice_value(1, below)


@pytest.mark.parametrize(
    "argv, expected",
    [
        # Lattice point 5 of level 10**6: vertex 5 of F curve 1000002.
        (["B", "1/32", "2", "31999999/32"], (lattice_value(5, 10**6), "strip m=1000002")),
        # The same level at x = 1/64 is vertex 6 of G curve 1000003, and g is half of f at 2x.
        (["g", "1/64", "31999999/32"], (lattice_value(5, 10**6) / 2, "strip m=1000003")),
    ],
)
def test_eval_at_far_level(argv, expected, time_limit, capsys):
    with time_limit(20):
        assert cli.main(["eval", "--which", *argv]) == 0
    value, tag = capsys.readouterr().out.rstrip("\n").split(" ", 1)
    assert (parse_rational(value), tag) == (expected[0], f"({expected[1]})")


@pytest.mark.parametrize("big", FAR_LEVELS)
def test_eval_of_zero_at_far_level(big, capsys):
    assert cli.main(["eval", "--which", "B", "0", "2", str(big)]) == 0
    assert cli.main(["eval", "--which", "g", "0", str(big)]) == 0
    assert capsys.readouterr().out == "0 (zero)\n0 (zero)\n"
