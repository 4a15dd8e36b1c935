"""Tests of the benchmark's own oracles, on cases worked out by hand."""

from fractions import Fraction as F

import pytest

from oracles import SupTable, parse_rational, simulate


def _config(sets, weights):
    return {
        "E": {"intervals": [{"d": d, "i": i} for d, i in sets]},
        "alpha": {"weights": [{"d": d, "i": i, "w": w} for d, i, w in weights]},
    }


def test_tower_level_sets_halve():
    # Full set, unit weights on [0, 2**-j) for j = 0..n: the operator counts
    # the weighted prefixes containing the point, so {T >= k} = [0, 2**(1-k)).
    n = 5
    sim = simulate(_config([(0, 0)], [(j, 0, "1") for j in range(n + 1)]))
    assert sim.measure == 1
    assert sim.height == 2 - F(1, 2**n)
    assert sim.carleson == 2 - F(1, 2**n)
    for level in range(1, n + 2):
        assert sim.level_set(F(level)) == F(2) ** (1 - level)
    assert sim.level_set(F(1, 2)) == 1
    assert sim.level_set(F(n + 2)) == 0


def test_depth_one_by_hand():
    # Left half, unit weight on the root: the operator is 1/2 everywhere.
    sim = simulate(_config([(1, 0)], [(0, 0, "1")]))
    assert (sim.measure, sim.height, sim.carleson) == (F(1, 2), 1, 1)
    assert sim.level_set(F(1, 2)) == 1
    assert sim.level_set(F(3, 4)) == 0
    # Add the left child: 3/2 on the left half, 1/2 on the right.
    sim = simulate(_config([(1, 0)], [(0, 0, "1"), (1, 0, "1")]))
    assert (sim.height, sim.carleson) == (F(3, 2), F(3, 2))
    assert sim.level_set(F(1)) == F(1, 2)
    assert sim.level_set(F(3, 2)) == F(1, 2)
    assert sim.level_set(F(1, 2)) == 1
    # Right half, weight 1 on the empty left child and 1/2 on the right one.
    sim = simulate(_config([(1, 1)], [(1, 0, "1"), (1, 1, "1/2")]))
    assert (sim.measure, sim.height, sim.carleson) == (F(1, 2), F(3, 4), 1)
    assert sim.level_set(F(1, 2)) == F(1, 2)
    assert sim.level_set(F(1, 4)) == F(1, 2)
    assert sim.level_set(F(0)) == 1


def test_simulate_rejects_bad_input():
    with pytest.raises(ValueError):
        simulate(_config([(1, 0), (2, 1)], []))  # [1/4, 1/2) lies inside [0, 1/2)
    with pytest.raises(ValueError):
        simulate(_config([(1, 2)], []))
    with pytest.raises(ValueError):
        simulate(_config([], [(0, 0, "3/2")]))


def test_parse_rational_beyond_digit_limit():
    assert parse_rational("-3/6") == F(-1, 2)
    assert parse_rational("1/1" + "0" * 5000) == F(1, 10**5000)


def test_enumerator_depth_one():
    table = SupTable(1)
    assert len(table.sequences) == 8  # no family on three intervals exceeds 2
    assert table.configs == 32
    assert table.sup(F(1), F(2), F(2)) == 1  # root and both children
    assert table.sup(F(1, 2), F(1), F(1, 2)) == 1  # root alone: 1/2 everywhere
    assert table.sup(F(1, 2), F(1), F(1)) == F(1, 2)  # both children, set on one
    assert table.sup(F(1, 2), F(3, 2), F(3, 2)) == F(1, 2)  # root and one child
    assert table.sup(F(1, 3), F(1), F(1)) is None


def test_enumerator_depth_two():
    table = SupTable(2)
    # Root sum r + s/2 + g/4 <= 2 with r the root, s the children, g the
    # grandchildren chosen; it fails for 25 of the 128 families
    # (r = 1 with s = 1, g >= 3, or s = 2, g >= 1).
    assert len(table.sequences) == 103
    # Full-measure chains: 2**-max(0, ceil(level) - 2) at x = 1, height 2.
    for level, value in ((F(1, 3), 1), (F(2), 1), (F(5, 2), F(1, 2)), (F(3), F(1, 2))):
        assert table.sup(F(1), F(2), level) == value
    with pytest.raises(ValueError):
        SupTable(3)
