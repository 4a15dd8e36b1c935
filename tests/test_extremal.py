import random
from fractions import Fraction as F

import pytest

from sparsebound.candidate import bellman_value, vertex_f
from sparsebound.dyadic import (
    ROOT,
    CarlesonSequence,
    Config,
    DyadicSet,
    carleson_constant,
    concat_configs,
)
from sparsebound.extremal import (
    Base,
    Halve,
    Jump,
    MixZero,
    attainment_report,
    base_double_config,
    EXTREMIZER_CURVE_CAP,
    corollary_config,
    curve_vertex_config,
    curve_vertex_recipe,
    curve_vertex_target,
    interpret,
    tower_config,
    x1_chain_recipe,
)
from sparsebound.rational import DomainError


def test_extremizers_above_the_cap_are_refused(time_limit):
    # Refused before any weight is built: curve m has 2**(m+2) - 1 weights.
    with time_limit(1):
        for m, k in ((EXTREMIZER_CURVE_CAP + 1, 0), (EXTREMIZER_CURVE_CAP + 1, 5), (64, 3)):
            with pytest.raises(DomainError, match="capped"):
                curve_vertex_config(m, k)
        # corollary n N is the extremizer of curve N + n - 3.
        for n, big_n in ((0, EXTREMIZER_CURVE_CAP + 4), (EXTREMIZER_CURVE_CAP, 4), (3, 64)):
            with pytest.raises(DomainError, match="capped"):
                corollary_config(n, big_n)


def test_base_double_config():
    c = base_double_config(F(1))
    assert (c.measure, c.height) == (F(1), F(2))
    assert c.level_set(F(2)) == F(1) == bellman_value(F(1), F(2), F(2))
    c = base_double_config(F(1, 2))
    assert c.level_set(F(1)) == F(1) == bellman_value(F(1, 2), F(2), F(1))
    c = base_double_config(F(1, 4))
    assert c.level_set(F(1, 2)) == F(1)
    # averages are equidistributed over the two halves
    for half in ROOT.children():
        assert sum(iv.measure for iv in c.subset.intervals if half.contains(iv)) == F(1, 8)


def test_x1_chain_config():
    for m, level, expected in ((0, F(2), F(1)), (1, F(3), F(1, 2)), (3, F(5), F(1, 8))):
        c = interpret(x1_chain_recipe(m))
        assert (c.measure, c.height) == (F(1), F(2))
        assert c.level_set(level) == expected == bellman_value(F(1), F(2), level)


def test_curve_vertex_configs_small():
    for m, k in ((0, 0), (1, 1), (3, 2)):
        c = curve_vertex_config(m, k)
        point = vertex_f(k, m)
        assert c.measure == point.x
        assert c.height == F(2)
        assert carleson_constant(c.seq) <= 2
        assert c.level_set(point.y) == F(1, 2**m) == bellman_value(point.x, F(2), point.y)
    with pytest.raises(DomainError):
        curve_vertex_config(1, 2)


def test_recipe_step_algebra():
    # Jump shifts the attained level by the measure; Halve halves everything.
    node = curve_vertex_recipe(3, 2)
    while not isinstance(node, Base):
        if isinstance(node, Jump):
            inner = interpret(node.inner)
            outer = interpret(node)
            assert outer.measure == inner.measure
            assert outer.height == inner.height + 1
            for j in range(-2, 9):
                level = F(j, 2)
                assert outer.level_set(level + outer.measure) == inner.level_set(level)
        elif isinstance(node, Halve):
            inner = interpret(node.inner)
            outer = interpret(node)
            assert outer.measure == inner.measure / 2
            assert outer.height == inner.height / 2
            for j in range(1, 9):
                level = F(j, 2)
                assert outer.level_set(level) == inner.level_set(level) / 2
        elif isinstance(node, MixZero):
            inner = interpret(node.inner)
            outer = interpret(node)
            assert outer.measure == (inner.measure + 1) / 2
            assert outer.height == inner.height / 2
            for j in range(1, 9):
                level = F(j, 2)
                assert outer.level_set(level) == inner.level_set(level) / 2
        node = node.inner


def test_desugared_moves_match_concatenation():
    base = Base(F(1, 2))
    config = interpret(base)
    assert interpret(Jump(base)) == concat_configs(config, config, F(1))


def test_constructed_heights_stay_carleson():
    for m in range(6):
        for k in range(m + 1):
            c = curve_vertex_config(m, k)
            assert carleson_constant(c.seq) <= 2


def test_corollary_config_examples():
    c = corollary_config(0, 3)
    assert c.level_set(F(2)) == F(1)
    c = corollary_config(1, 3)
    assert c.level_set(F(5, 2)) == F(1, 2)
    c = corollary_config(2, 4)
    assert c.level_set(F(15, 4)) == F(1, 8)
    with pytest.raises(DomainError):
        corollary_config(0, 2)


def test_tower_config():
    for n in (2, 5):
        c = tower_config(n)
        assert c.measure == F(1)
        assert c.height == 2 - F(1, 2**n)
        assert carleson_constant(c.seq) <= 2
        assert c.level_set(F(0)) == F(1)
    c = tower_config(2)
    assert c.level_set(F(2)) == F(1, 2)
    assert c.level_set(F(3)) == F(1, 4)


def test_indices_are_ints():
    refused = [
        lambda: tower_config(True),
        lambda: tower_config(2.0),
        lambda: tower_config(-1),
        lambda: x1_chain_recipe(True),
        lambda: x1_chain_recipe(1.0),
        lambda: curve_vertex_recipe(2.0, 1),
        lambda: curve_vertex_recipe(2, True),
        lambda: curve_vertex_recipe(1, 2),
    ]
    for call in refused:
        with pytest.raises(DomainError):
            call()
    assert tower_config(1).height == F(3, 2)
    assert curve_vertex_recipe(1, 0) == x1_chain_recipe(1)


def test_mix_config():
    c = curve_vertex_config(2, 1)
    point = vertex_f(1, 2)
    same = concat_configs(c, c, F(0))
    assert (same.measure, same.height) == (c.measure, c.height)
    assert same.level_set(point.y) == c.level_set(point.y)
    halved = concat_configs(c, Config.empty(), F(0))
    assert halved.measure == c.measure / 2
    assert halved.height == c.height / 2
    assert halved.level_set(point.y) == c.level_set(point.y) / 2


def test_mix_averages_level_sets_pointwise():
    rng = random.Random(13)
    c1 = curve_vertex_config(2, 0)
    c2 = curve_vertex_config(2, 1)
    mixed = concat_configs(c1, c2, F(0))
    for _ in range(20):
        level = F(rng.randint(0, 40), 8)
        assert mixed.level_set(level) == (c1.level_set(level) + c2.level_set(level)) / 2


def test_segment_interior_attainment_by_pad_and_jump():
    # Pad the full-measure chain with bare mass, then jump: attains the bound
    # at an interior point of the top segment of curve m.
    for m in (1, 2, 3):
        x = F(3, 4)
        pad = Config(DyadicSet.prefix(2 * x - 1), CarlesonSequence.empty())
        padded = concat_configs(interpret(x1_chain_recipe(m - 1)), pad, F(0))
        config = concat_configs(padded, padded, F(1))
        level = m + 1 + x
        assert config.measure == x
        assert config.height == F(2)
        assert config.level_set(level) == F(1, 2**m) == bellman_value(x, F(2), level)


def test_attainment_report():
    config = curve_vertex_config(1, 1)
    report = attainment_report(config, curve_vertex_target(1, 1))
    assert report["attained"] is True
    assert report["achieved_V"] == "1/2"
    assert report["target"]["lambda"] == "5/2"
