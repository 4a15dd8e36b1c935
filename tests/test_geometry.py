from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemmas import (
    AngleSector,
    Ray,
    jump_map,
    jump_parameter,
    jump_ray,
    jump_sector,
    ray_x,
    scale_map,
    sector_interp_value,
    step_map,
)
from reference import PiecewiseLinearFn
from sparsebound.geometry import PlanePoint, lerp
from sparsebound.rational import DomainError

fractions_01 = st.fractions(min_value=0, max_value=1, max_denominator=64)
fractions_pos = st.fractions(min_value=F(1, 64), max_value=8, max_denominator=64)


def test_lerp_identity_line():
    assert lerp((F(0), F(0)), (F(1), F(1)), F(1, 2)) == F(1, 2)


def test_lerp_hand_values():
    assert lerp((F(1, 5), F(1, 2)), (F(1, 3), F(1)), F(4, 15)) == F(3, 4)
    assert lerp((F(1, 4), F(1, 2)), (F(1), F(1)), F(5, 8)) == F(3, 4)


def test_lerp_errors():
    with pytest.raises(DomainError):
        lerp((F(0), F(0)), (F(1), F(1)), F(2))
    with pytest.raises(DomainError):
        lerp((F(1), F(0)), (F(1), F(1)), F(1))
    with pytest.raises(DomainError):
        lerp((F(1), F(0)), (F(0), F(1)), F(1, 2))


@given(
    x1=st.fractions(min_value=0, max_value=1, max_denominator=32),
    gap=st.fractions(min_value=F(1, 32), max_value=2, max_denominator=32),
    y1=st.fractions(min_value=-4, max_value=4, max_denominator=32),
    y2=st.fractions(min_value=-4, max_value=4, max_denominator=32),
)
def test_lerp_exact_at_endpoints(x1, gap, y1, y2):
    p1, p2 = (x1, y1), (x1 + gap, y2)
    assert lerp(p1, p2, p1[0]) == y1
    assert lerp(p1, p2, p2[0]) == y2


def test_jump_map_values():
    assert jump_map(PlanePoint(F(1, 2), F(2))) == PlanePoint(F(1, 2), F(5, 2))
    assert jump_map(PlanePoint(F(0), F(7))) == PlanePoint(F(0), F(7))
    assert jump_map(PlanePoint(F(1), F(2))) == PlanePoint(F(1), F(3))


def test_scale_map_values():
    assert scale_map(PlanePoint(F(1), F(2))) == PlanePoint(F(1, 2), F(2))
    assert scale_map(PlanePoint(F(0), F(5))) == PlanePoint(F(0), F(5))
    assert scale_map(PlanePoint(F(1, 4), F(3))) == PlanePoint(F(1, 8), F(3))


def test_step_map_advances_curve_endpoints():
    for k in range(9):
        p = PlanePoint(F(1, 2**k), 3 - F(1, 2**k))
        q = PlanePoint(F(1, 2 ** (k + 1)), 3 - F(1, 2 ** (k + 1)))
        assert step_map(p) == q
    assert step_map(PlanePoint(F(0), F(11, 3))) == PlanePoint(F(0), F(11, 3))
    m = 4
    assert step_map(PlanePoint(F(1), F(m + 2))) == PlanePoint(F(1, 2), F(m) + F(5, 2))


@given(x=fractions_01, y=st.fractions(min_value=-2, max_value=6, max_denominator=64))
def test_step_is_scale_then_jump(x, y):
    p = PlanePoint(x, y)
    assert step_map(p) == jump_map(scale_map(p))


def test_jump_parameter_values():
    assert jump_parameter(F(1)) == F(1, 2)
    for m in range(11):
        assert jump_parameter(F(1, 3 * 2**m - 2)) == F(1, 3 * 2**m - 1)
    for k in range(2, 12):
        assert jump_parameter(F(1, 2**k - 2)) == F(1, 2**k - 1)
    with pytest.raises(DomainError):
        jump_parameter(F(0))
    with pytest.raises(DomainError):
        jump_parameter(F(-1, 2))


@given(
    a2=st.fractions(min_value=F(1, 32), max_value=4, max_denominator=32),
    d1=st.fractions(min_value=F(1, 32), max_value=2, max_denominator=32),
    d2=st.fractions(min_value=F(1, 32), max_value=2, max_denominator=32),
)
def test_jump_parameter_concave(a2, d1, d2):
    a, a1 = a2 + d1, a2 + d1 + d2
    lhs = (jump_parameter(a1) - jump_parameter(a2)) / (a1 - a2)
    rhs = (jump_parameter(a) - jump_parameter(a2)) / (a - a2)
    assert lhs <= rhs


def test_ray_values():
    assert ray_x(Ray(PlanePoint(F(0), F(0)), F(1, 3)), F(1)) == F(1, 3)
    assert ray_x(Ray(PlanePoint(F(0), F(0)), F(7, 5)), F(0)) == F(0)
    assert ray_x(Ray(PlanePoint(F(1), F(2)), F(1, 2)), F(4)) == F(2)
    with pytest.raises(DomainError):
        ray_x(Ray(PlanePoint(F(0), F(1)), F(1)), F(1, 2))
    with pytest.raises(DomainError):
        Ray(PlanePoint(F(0), F(0)), F(0))


def test_jump_ray_values():
    assert jump_ray(Ray(PlanePoint(F(0), F(0)), F(1))) == Ray(PlanePoint(F(0), F(0)), F(1, 2))
    for k in range(2, 8):
        m = k + 3
        before = Ray(PlanePoint(F(0), F(m - k + 1)), F(1, 2**k - 2))
        after = jump_ray(before)
        assert after == Ray(PlanePoint(F(0), F(m - k + 1)), F(1, 2**k - 1))
    assert jump_ray(Ray(PlanePoint(F(1, 2), F(2)), F(1, 4))) == Ray(
        PlanePoint(F(1, 2), F(5, 2)), F(1, 5)
    )


@given(
    cx=fractions_01,
    cy=st.fractions(min_value=0, max_value=4, max_denominator=32),
    a=fractions_pos,
    t=st.fractions(min_value=0, max_value=6, max_denominator=32),
)
def test_jumped_point_stays_on_jumped_ray(cx, cy, a, t):
    ray = Ray(PlanePoint(cx, cy), a)
    level = cy + t
    point = PlanePoint(ray_x(ray, level), level)
    image = jump_map(point)
    assert ray_x(jump_ray(ray), image.y) == image.x


def test_jump_sector_values():
    s = AngleSector(PlanePoint(F(0), F(0)), F(1, 4), F(1))
    assert jump_sector(s) == AngleSector(PlanePoint(F(0), F(0)), F(1, 5), F(1, 2))
    s = AngleSector(PlanePoint(F(1), F(1)), F(1, 3), F(1, 2))
    assert jump_sector(s) == AngleSector(PlanePoint(F(1), F(2)), F(1, 4), F(1, 3))
    for m in range(1, 8):
        y_lo, y_hi = F(1, 3 * 2**m - 2), F(1, 3 * 2 ** (m - 1) - 2)
        jumped = jump_sector(AngleSector(PlanePoint(F(0), F(0)), y_lo, y_hi))
        assert (jumped.a_lo, jumped.a_hi) == (F(1, 3 * 2**m - 1), F(1, 3 * 2 ** (m - 1) - 1))


def test_sector_interp_endpoints_and_midpoint():
    s = AngleSector(PlanePoint(F(0), F(0)), F(1, 4), F(1, 2))
    v_lo, v_hi = F(1, 4), F(1, 2)
    assert sector_interp_value(s, v_lo, v_hi, s.a_lo) == v_lo
    assert sector_interp_value(s, v_lo, v_hi, s.a_hi) == v_hi
    assert sector_interp_value(s, v_lo, v_hi, F(3, 8)) == F(3, 8)
    with pytest.raises(DomainError):
        sector_interp_value(s, v_lo, v_hi, F(1, 8))


@given(
    a2=st.fractions(min_value=F(1, 16), max_value=2, max_denominator=16),
    d1=st.fractions(min_value=F(1, 16), max_value=1, max_denominator=16),
    d2=st.fractions(min_value=0, max_value=1, max_denominator=16),
    v2=st.fractions(min_value=F(1, 16), max_value=1, max_denominator=16),
    dv=st.fractions(min_value=F(1, 16), max_value=1, max_denominator=16),
)
@settings(max_examples=300)
def test_jumped_interpolant_dominates(a2, d1, d2, v2, dv):
    # Transporting a two-edge interpolant through the jump never lowers it.
    a1 = a2 + d1 + d2
    a = a2 + d1
    v1 = v2 + dv
    sector = AngleSector(PlanePoint(F(1, 3), F(1, 2)), a2, a1)
    g_val = sector_interp_value(sector, v2, v1, a)
    f_val = sector_interp_value(jump_sector(sector), v2, v1, jump_parameter(a))
    assert f_val >= g_val


def test_piecewise_linear_fn():
    fn = PiecewiseLinearFn(((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(1))))
    assert fn.value(F(1, 4)) == F(1, 2)
    assert fn.value(F(0)) == F(0)
    assert fn.value(F(3, 4)) == F(1)
    assert fn.slopes() == (F(2), F(0))
    with pytest.raises(DomainError):
        fn.value(F(2))
    with pytest.raises(DomainError):
        PiecewiseLinearFn(((F(0), F(0)), (F(0), F(1))))
    with pytest.raises(DomainError):
        PiecewiseLinearFn(())
