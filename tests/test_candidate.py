import random
from fractions import Fraction as F

import pytest

from lemmas import jump_map, scale_map
from reference import PiecewiseLinearFn, f_value_nodes
from sparsebound.candidate import (
    Family,
    RegionKind,
    _pair,
    _profile_vertices,
    _recip_slope_forms,
    _segment_slope,
    bellman_value,
    classify_region,
    corollary_bound,
    curve_height,
    curve_vertices,
    curve_x,
    f_extended,
    f_region,
    f_value,
    g_region,
    g_value,
    profile_slopes,
    vertex_f,
)
from sparsebound.extremal import corollary_config, curve_vertex_config
from sparsebound.geometry import PlanePoint
from sparsebound.rational import DomainError


def frac_grid(rng, lo, hi, bound=64):
    q = rng.randint(1, bound)
    p = rng.randint(int(lo * q), int(hi * q))
    return F(p, q)


def kernel_vertices(level, x_min):
    """``candidate._profile_vertices`` at ``Fraction`` arguments, as pairs of ``Fraction``s."""
    return tuple((F(*x), F(*y)) for x, y in _profile_vertices(_pair(level), _pair(x_min)))


def kernel_forms(window, m):
    """``candidate._recip_slope_forms`` with its pairs as ``Fraction``s."""
    forms = _recip_slope_forms(window, m).items()
    return {name: tuple(tuple(F(*pair) for pair in part) for part in form) for name, form in forms}


def test_vertex_values():
    assert vertex_f(0, 0) == PlanePoint(F(1), F(2))
    assert vertex_f(1, 1) == PlanePoint(F(1, 2), F(5, 2))
    assert vertex_f(1, 2) == PlanePoint(F(1, 2), F(7, 2))
    assert curve_vertices(Family.G, 1)[1] == PlanePoint(F(1, 2), F(2))  # vertex k = 1
    assert curve_vertices(Family.G, 0)[1] == PlanePoint(F(1), F(1))  # vertex k = 0
    assert jump_map(curve_vertices(Family.G, 3)[2]) == vertex_f(2, 3)
    with pytest.raises(DomainError):
        vertex_f(3, 2)
    with pytest.raises(DomainError):
        vertex_f(-1, 2)
    with pytest.raises(DomainError):
        curve_vertices(Family.F, -1)


def test_vertex_transport():
    # curve_vertices lists the origin, then vertices k = m down to 0.
    for m in range(13):
        g_vertices = curve_vertices(Family.G, m)[1:]
        assert [jump_map(p) for p in g_vertices] == [vertex_f(k, m) for k in range(m, -1, -1)]
    for m in range(1, 13):
        scaled = [scale_map(vertex_f(k - 1, m - 1)) for k in range(m, 0, -1)]
        assert scaled == curve_vertices(Family.G, m)[1:-1]


def test_curve_height_values():
    assert curve_height(Family.F, 1, F(1, 2)) == F(5, 2)
    assert curve_height(Family.F, 0, F(1)) == F(2)
    assert curve_height(Family.F, 2, F(1, 8)) == F(11, 8)
    assert curve_height(Family.G, 1, F(3, 4)) == F(2)
    assert curve_height(Family.G, 0, F(2, 3)) == F(2, 3)
    with pytest.raises(DomainError):
        curve_height(Family.F, 1, F(3, 2))


def test_curve_height_passes_through_vertices():
    for family in Family:
        for m in range(9):
            for p in curve_vertices(family, m):
                assert curve_height(family, m, p.x) == p.y


def test_curves_strictly_ordered_in_m():
    rng = random.Random(11)
    for _ in range(200):
        x = F(rng.randint(1, 64), 64)
        m = rng.randint(1, 9)
        assert curve_height(Family.F, m, x) > curve_height(Family.F, m - 1, x)
        assert curve_height(Family.G, m, x) > curve_height(Family.G, m - 1, x)


def test_curve_x_values():
    assert curve_x(Family.F, 0, F(2)) == F(1)
    assert curve_x(Family.F, 1, F(5, 2)) == F(1, 2)
    for m in range(9):
        level = F(3) - F(1, 2**m)
        assert curve_x(Family.F, m, level) == level / (3 * 2**m - 1)
        assert curve_x(Family.F, m, F(1, 7)) == F(1, 7) / (3 * 2**m - 1)
    assert curve_x(Family.G, 1, F(2)) == F(1, 2)
    assert curve_x(Family.G, 3, F(4)) == F(1, 2)
    with pytest.raises(DomainError):
        curve_x(Family.F, 0, F(5, 2))


def test_curve_x_inverts_curve_height():
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randint(0, 8)
        top = m + 2
        level = F(rng.randint(0, top * 32), 32)
        x = curve_x(Family.F, m, level)
        assert curve_height(Family.F, m, x) == level
        top_g = m + 1
        level = F(rng.randint(0, top_g * 32), 32)
        x = curve_x(Family.G, m, level)
        assert curve_height(Family.G, m, x) == level


def test_f_on_curve_vertices():
    for m in range(13):
        for k in range(m + 1):
            p = vertex_f(k, m)
            assert f_value(p.x, p.y) == F(1, 2**m)


def test_f_point_values():
    for k in range(9):
        assert f_value(F(1, 2**k), 3 - F(1, 2**k)) == F(1, 2**k)
    assert f_value(F(1), F(7, 2)) == F(1, 4)
    assert f_value(F(4, 15), F(1)) == F(11, 18)
    assert f_value(F(7, 40), F(1, 2)) == F(3, 4)
    assert f_value(F(0), F(3)) == F(0)
    with pytest.raises(DomainError):
        f_value(F(1, 2), F(0))
    with pytest.raises(DomainError):
        f_value(F(3, 2), F(1))


def test_f_plateaus_at_right_edge():
    for m in range(9):
        for level in (F(m) + F(3, 2), F(m + 2)):
            if level > 1:
                assert f_value(F(1), level) == F(1, 2**m)


def test_strip_formula_matches_node_interpolation_below_one():
    rng = random.Random(17)
    for _ in range(200):
        x = F(rng.randint(0, 128), 128)
        level = F(rng.randint(1, 96), 96)
        assert f_value(x, level) == f_value_nodes(x, level)


def test_strip_membership_is_coherent():
    rng = random.Random(23)
    for _ in range(200):
        x = F(rng.randint(1, 64), 64)
        level = F(rng.randint(1, 64 * 6), 64)
        if level <= curve_height(Family.F, 0, x):
            continue
        m = 1
        while level > curve_height(Family.F, m, x):
            m += 1
        assert curve_height(Family.F, m - 1, x) < level <= curve_height(Family.F, m, x)


def test_f_extended():
    assert f_extended(F(2), F(2)) == F(1)
    assert f_extended(F(3, 2), F(7, 2)) == F(1, 4)
    assert f_extended(F(1, 2), F(5, 2)) == F(1, 2)
    with pytest.raises(DomainError):
        f_extended(F(-1, 2), F(1))


def test_f_monotone_in_level():
    rng = random.Random(31)
    for _ in range(300):
        x = F(rng.randint(0, 64), 64)
        l1 = F(rng.randint(1, 160), 16)
        l2 = l1 + F(rng.randint(1, 64), 16)
        assert f_value(x, l1) >= f_value(x, l2)


def test_g_point_values():
    assert g_value(F(1, 10), F(1)) == F(1, 4)
    assert g_value(F(5, 8), F(1)) == F(3, 4)
    assert g_value(F(1, 2), F(2)) == F(1, 2)
    assert g_value(F(1), F(1)) == F(1)
    assert g_value(F(0), F(3)) == F(0)
    with pytest.raises(DomainError):
        g_value(F(1, 2), F(-1))


def test_g_on_curve_vertices():
    for m in range(1, 13):
        for p in curve_vertices(Family.G, m):
            if p.y > 0:
                assert g_value(p.x, p.y) == F(1, 2**m)


def test_g_matches_height_one_bound():
    rng = random.Random(41)
    for _ in range(300):
        x = F(rng.randint(0, 64), 64)
        level = F(rng.randint(1, 64 * 6), 64)
        lhs = g_value(x, level)
        if level > 1:
            assert lhs == f_extended(2 * x, level) / 2
        assert lhs == bellman_value(x, F(1), level)


def test_region_classification():
    assert classify_region(F(3, 4), F(1, 2), F(1, 2)).kind is RegionKind.HEIGHT
    assert classify_region(F(1, 4), F(1), F(1, 2)).kind is RegionKind.MIXED
    assert classify_region(F(7, 80), F(1), F(1, 2)).kind is RegionKind.PROFILE
    assert classify_region(F(1), F(2), F(1)).kind is RegionKind.FULL
    assert classify_region(F(1, 3), F(2), F(-1)).kind is RegionKind.OBSTACLE
    tag = classify_region(F(1, 2), F(2), F(5, 2))
    assert tag.kind is RegionKind.STRIP and tag.strip == 1 and tag.plateau
    with pytest.raises(DomainError):
        classify_region(F(3, 2), F(1), F(1))
    with pytest.raises(DomainError):
        classify_region(F(1, 2), F(5, 2), F(1))


def test_profile_region_tags():
    tag = f_region(F(1), F(7, 2))
    assert tag.kind is RegionKind.STRIP and tag.strip == 2 and tag.plateau
    assert "strip m=2" in tag.describe()
    assert g_region(F(1, 10), F(1)).kind is RegionKind.PROFILE
    assert g_region(F(1, 2), F(2)).kind is RegionKind.STRIP


def test_g_region_breaks_ties_as_classify_region():
    # g is B at height 1, and both name the same branch, edges included:
    # x = level (full over mixed) and x = level / 4 (profile over mixed).
    levels = [F(j, 16) for j in range(1, 17)] + [F(1, 3), F(5, 7), F(1, 1000)]
    for level in levels:
        xs = {F(i, 64) for i in range(65)} | {level, level / 4}
        for x in sorted(xs):
            assert g_region(x, level).kind is classify_region(x, 1, level).kind, (x, level)


def test_bellman_point_values():
    for x, a in ((F(0), F(0)), (F(1), F(2)), (F(1, 3), F(7, 4))):
        assert bellman_value(x, a, F(-1)) == F(1)
        assert bellman_value(x, a, F(0)) == F(1)
    assert bellman_value(F(1, 2), F(2), F(5, 2)) == F(1, 2)
    assert bellman_value(F(1, 4), F(1), F(1, 2)) == F(2, 3)
    assert bellman_value(F(1, 4), F(1), F(5, 2)) == F(1, 4)
    assert bellman_value(F(1, 2), F(0), F(1, 8)) == F(0)
    assert bellman_value(F(1, 2), F(0), F(3, 2)) == F(0)


def test_bellman_discontinuity_in_level_is_real():
    assert bellman_value(F(1), F(1), F(1)) == F(1)
    assert bellman_value(F(1), F(1), F(101, 100)) == F(1, 2)


def test_region_formulas_agree_on_shared_boundaries():
    rng = random.Random(53)
    for _ in range(200):
        level = F(rng.randint(1, 32), 32)
        a = F(rng.randint(0, 32), 32)
        # height/mixed boundary: x = level * a with a <= 1
        x = level * a
        if x <= 1:
            assert (a + 2 * x / level) / 3 == a
            assert bellman_value(x, a, level) == a
        # mixed/profile boundary: x = level * a / 4
        x = level * a / 4
        if a > 0:
            lhs = (a + 2 * x / level) / 3
            rhs = a / 2 * f_value(2 * x / a, level)
            assert lhs == rhs == bellman_value(x, a, level)
        # full/mixed boundary: the segment from (level, 1) to (level/2, 2)
        t = F(rng.randint(0, 16), 16)
        a = 1 + t
        x = level * (3 - a) / 2
        if x <= 1:
            assert (a + 2 * x / level) / 3 == F(1) == bellman_value(x, a, level)


def test_bellman_homogeneous_above_level_one():
    rng = random.Random(59)
    for _ in range(300):
        x = F(rng.randint(0, 32), 32)
        a = F(rng.randint(0, 64), 32)
        t = F(rng.randint(1, 16), 16)
        level = F(rng.randint(17, 96), 16)
        assert bellman_value(t * x, t * a, level) == t * bellman_value(x, a, level)


def test_profile_vertices_and_slopes():
    vertices = kernel_vertices(F(1), F(1, 5))
    assert vertices == ((F(1, 5), F(1, 2)), (F(1, 2), F(1)), (F(1), F(1)))
    assert kernel_vertices(F(5, 2), F(1, 2)) == ((F(1, 2), F(1, 2)), (F(1), F(1, 2)))
    vertices = kernel_vertices(F(7, 2), F(1, 4))
    assert vertices == ((F(1, 4), F(9, 64)), (F(1, 2), F(1, 4)), (F(1), F(1, 4)))
    assert profile_slopes(F(1), F(1, 5)) == (F(5, 3), F(0))
    with pytest.raises(DomainError):
        profile_slopes(F(1), F(0))


def test_profile_vertices_match_pointwise_values():
    rng = random.Random(61)
    for _ in range(60):
        level = F(rng.randint(1, 80), 8)
        fn = PiecewiseLinearFn(kernel_vertices(level, F(1, 512)))
        for _ in range(5):
            x = F(rng.randint(1, 512), 512)
            assert fn.value(x) == f_value(x, level)


def test_profile_slopes_non_increasing_left_to_right():
    for j in range(1, 41):
        level = F(j, 4)
        slopes = profile_slopes(level, F(1, 4096))
        assert all(s1 >= s2 for s1, s2 in zip(slopes, slopes[1:]))


def test_recip_slope_forms_match_segment_slopes():
    for window in range(2, 8):
        for m in range(max(1, window - 1), 8):
            for (c0, c1), (lo, hi) in kernel_forms(window, m).values():
                probe = (lo + hi) / 2
                assert 1 / (c0 + c1 * probe) == F(*_segment_slope(m + 1, _pair(probe)))


def test_recip_slope_form_ranges_tile_the_window():
    for window in range(2, 8):
        for m in range(max(1, window - 1), 8):
            forms = kernel_forms(window, m)
            assert forms["low"][1][0] == window
            assert forms["low"][1][1] == forms["mid"][1][0]
            assert forms["mid"][1][1] == forms["high"][1][0]
            assert forms["high"][1][1] == window + 1


def test_corollary_bound_values():
    assert corollary_bound(0, 3) == F(1)
    assert corollary_bound(1, 3) == F(1, 2)
    assert corollary_bound(1, 4) == F(1, 4)
    assert corollary_bound(0, 3) == bellman_value(F(1), F(2), F(2))
    assert corollary_bound(1, 3) == bellman_value(F(1, 2), F(2), F(5, 2))
    assert corollary_bound(1, 4) == bellman_value(F(1, 2), F(2), F(7, 2))
    with pytest.raises(DomainError):
        corollary_bound(0, 2)
    with pytest.raises(DomainError):
        corollary_bound(-1, 3)


# Each public entry point: integer arguments inside its domain, the
# positions that take a rational, and those that take a curve or strip
# index (an int only).
ENTRY_POINTS = {
    "bellman_value": (bellman_value, (1, 2, 3), (0, 1, 2), ()),
    "classify_region": (classify_region, (1, 1, 1), (0, 1, 2), ()),
    "f_value": (f_value, (1, 3), (0, 1), ()),
    "g_value": (g_value, (1, 3), (0, 1), ()),
    "f_extended": (f_extended, (2, 3), (0, 1), ()),
    "f_region": (f_region, (1, 3), (0, 1), ()),
    "g_region": (g_region, (1, 3), (0, 1), ()),
    "curve_x": (curve_x, (Family.F, 3, 2), (2,), (1,)),
    "curve_height": (curve_height, (Family.G, 2, 1), (2,), (1,)),
    "vertex_f": (vertex_f, (1, 2), (), (0, 1)),
    "curve_vertices": (curve_vertices, (Family.F, 2), (), (1,)),
    "corollary_bound": (corollary_bound, (1, 3), (), (0, 1)),
    "profile_slopes": (profile_slopes, (1, 1), (0, 1), ()),
    "curve_vertex_config": (curve_vertex_config, (2, 1), (), (0, 1)),
    "corollary_config": (corollary_config, (1, 3), (), (0, 1)),
}


def numbers_in(result):
    """The numbers a result holds: through tuples and lists."""
    if isinstance(result, (tuple, list)):
        for item in result:
            yield from numbers_in(item)
    else:
        yield result


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", [0.5, 1.0, True, False], ids=["0.5", "1.0", "True", "False"])
def test_entry_points_refuse_floats_and_bools(name, bad):
    fn, args, rationals, indices = ENTRY_POINTS[name]
    for position in rationals + indices:
        with pytest.raises(DomainError):
            fn(*args[:position], bad, *args[position + 1 :])


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_convert_ints(name):
    fn, args, rationals, _ = ENTRY_POINTS[name]
    result = fn(*args)
    assert result == fn(*(F(v) if i in rationals else v for i, v in enumerate(args)))
    if not name.endswith(("region", "config")):
        assert all(type(v) is F for v in numbers_in(result))


def test_in_domain_floats_and_bools_refused():
    # Values a float or bool would pass through unnoticed, were it not checked.
    for fn, args in (
        (vertex_f, (True, 2)),
        (vertex_f, (1.0, 2)),
        (curve_vertex_config, (2, True)),
        (curve_vertex_config, (2.0, 1)),
        (profile_slopes, (F(5, 2), 0.25)),
        (corollary_bound, (1, 3.0)),
    ):
        with pytest.raises(DomainError):
            fn(*args)
