import random
from fractions import Fraction as F

import pytest

from reference import sparse_apply
from sparsebound.dyadic import (
    CarlesonSequence,
    Config,
    DyadicInterval,
    DyadicSet,
    ROOT,
    carleson_constant,
    carleson_height,
    concat_identity,
    concat_seqs,
    concat_sets,
    config_to_json,
    level_set_measure,
    step_pieces,
    value_breakpoints,
)
from sparsebound.rational import DomainError, parse_rational


def iv(d, i):
    return DyadicInterval(d, i)


def tower(n):
    return CarlesonSequence.from_mapping({iv(j, 0): F(1) for j in range(n + 1)})


def random_config(rng, set_depth=3, seq_depth=2):
    subset = DyadicSet.from_cells(set_depth, rng.getrandbits(2**set_depth))
    mapping = {}
    for d in range(seq_depth + 1):
        for i in range(2**d):
            r = rng.random()
            if r < 0.3:
                mapping[iv(d, i)] = F(1)
            elif r < 0.45:
                mapping[iv(d, i)] = F(rng.randint(1, 4), 4)
    return Config.build(subset, CarlesonSequence.from_mapping(mapping))


def test_interval_basics():
    j = iv(2, 3)
    assert j.measure == F(1, 4)
    assert j.left == F(3, 4)
    assert j.parent() == iv(1, 1)
    assert j.children() == (iv(3, 6), iv(3, 7))
    assert iv(0, 0).contains(j)
    assert not j.contains(iv(0, 0))
    with pytest.raises(DomainError):
        iv(1, 2)
    with pytest.raises(DomainError):
        ROOT.parent()


def test_set_canonicalization():
    merged = DyadicSet.from_intervals([iv(1, 0), iv(1, 1)])
    assert merged == DyadicSet.full()
    nested = DyadicSet.from_intervals([iv(1, 0), iv(2, 1)])
    assert nested.intervals == (iv(1, 0),)
    cascade = DyadicSet.from_intervals([iv(2, 0), iv(2, 1), iv(2, 2), iv(2, 3)])
    assert cascade == DyadicSet.full()
    assert DyadicSet.from_intervals([iv(2, 2), iv(2, 0)]).intervals == (iv(2, 0), iv(2, 2))


def test_prefix_sets():
    assert DyadicSet.prefix(F(1)) == DyadicSet.full()
    assert DyadicSet.prefix(F(0)) == DyadicSet.empty()
    assert DyadicSet.prefix(F(5, 8)).intervals == (iv(1, 0), iv(3, 4))
    assert DyadicSet.prefix(F(5, 8)).measure == F(5, 8)
    with pytest.raises(DomainError):
        DyadicSet.prefix(F(1, 3))


def test_intersection_measure():
    # A unit weight on I alone makes the operator |E n I| / |I| on I.
    e = DyadicSet.prefix(F(5, 8))
    for region, measure in (
        (ROOT, F(5, 8)), (iv(1, 0), F(1, 2)), (iv(1, 1), F(1, 8)), (iv(3, 4), F(1, 8)), (iv(3, 5), F(0)),
    ):
        seq = CarlesonSequence.from_mapping({region: F(1)})
        for piece, value in step_pieces(e, seq):
            if region.contains(piece):
                assert value == measure / region.measure


def test_carleson_height_examples():
    assert carleson_height(CarlesonSequence.empty()) == F(0)
    assert carleson_height(CarlesonSequence.from_mapping({ROOT: F(1)})) == F(1)
    for n in range(6):
        assert carleson_height(tower(n)) == 2 - F(1, 2**n)
    seq = tower(3)
    assert carleson_height(seq, iv(1, 0)) == 2 - F(1, 4)
    assert carleson_height(seq, iv(1, 1)) == F(0)


def test_carleson_constant_examples():
    for n in range(6):
        assert carleson_constant(tower(n)) == 2 - F(1, 2**n) <= 2
    children = CarlesonSequence.from_mapping({iv(1, 0): F(1), iv(1, 1): F(1)})
    assert carleson_constant(children) == F(1)
    assert carleson_constant(CarlesonSequence.empty()) == F(0)
    stacked = CarlesonSequence.from_mapping(
        {ROOT: F(1), iv(1, 0): F(1), iv(1, 1): F(1), **{iv(2, i): F(1) for i in range(4)}}
    )
    assert carleson_constant(stacked) == F(3) > 2


def test_sparse_apply_examples():
    full = DyadicSet.full()
    root_only = CarlesonSequence.from_mapping({ROOT: F(1)})
    assert sparse_apply(full, root_only).values == (F(1),)
    half = DyadicSet.prefix(F(1, 2))
    assert sparse_apply(half, root_only).values == (F(1, 2), F(1, 2))
    step = sparse_apply(full, tower(2))
    assert step.depth == 2
    assert step.values == (F(3), F(2), F(1), F(1))


def test_sparse_apply_counts_containing_intervals():
    # Indicator of the whole interval: the operator counts weighted ancestors.
    n = 4
    step = sparse_apply(DyadicSet.full(), tower(n))
    assert step.values[0] == n + 1
    for j in range(n):
        cell_index = 2 ** (n - j - 1)  # leftmost cell of [2**-(j+1), 2**-j)
        assert step.values[cell_index] == j + 1


def test_pieces_match_uniform_cells():
    rng = random.Random(2)
    for _ in range(40):
        config = random_config(rng)
        step = sparse_apply(config.subset, config.seq)
        for piece, value in step_pieces(config.subset, config.seq):
            span = 2 ** (step.depth - piece.depth)
            start = piece.index * span
            assert all(step.values[start + i] == value for i in range(span))
        for level in set(step.values) | {F(0), F(1, 3), F(7, 2)}:
            assert step.level_set_measure(level) == config.level_set(level)
        assert value_breakpoints(config.subset, config.seq) == step.breakpoints()


def test_level_set_examples():
    full = DyadicSet.full()
    assert level_set_measure(full, tower(4), F(-2)) == F(1)
    assert level_set_measure(full, tower(4), F(0)) == F(1)
    for n in (3, 5):
        for lam in range(1, n + 2):
            assert level_set_measure(full, tower(n), F(lam)) == F(1, 2 ** (lam - 1))
    assert level_set_measure(full, CarlesonSequence.empty(), F(1, 2)) == F(0)


def test_sparse_apply_additive_in_disjoint_supports():
    rng = random.Random(3)
    for _ in range(30):
        e = DyadicSet.from_cells(3, rng.getrandbits(8))
        left = {iv(2, i): F(rng.randint(1, 4), 4) for i in range(2) if rng.random() < 0.7}
        right = {iv(2, i): F(rng.randint(1, 4), 4) for i in range(2, 4) if rng.random() < 0.7}
        s1 = CarlesonSequence.from_mapping(left)
        s2 = CarlesonSequence.from_mapping(right)
        union = CarlesonSequence.from_mapping({**left, **right})
        v1 = sparse_apply(e, s1)
        v2 = sparse_apply(e, s2)
        vu = sparse_apply(e, union)
        depth = max(v1.depth, v2.depth, vu.depth)

        def lift(sf, i):
            return sf.values[i >> (depth - sf.depth)]

        for i in range(2**depth):
            assert lift(vu, i) == lift(v1, i) + lift(v2, i)


def test_concat_sets_examples():
    full = DyadicSet.full()
    assert concat_sets(full, full) == full
    assert concat_sets(full, DyadicSet.empty()) == DyadicSet.prefix(F(1, 2))
    lhs = concat_sets(DyadicSet.prefix(F(1, 2)), DyadicSet.from_intervals([iv(1, 1)]))
    assert lhs.intervals == (iv(2, 0), iv(2, 3))


def test_concat_sets_measure_additivity():
    rng = random.Random(4)
    for _ in range(50):
        e1 = DyadicSet.from_cells(3, rng.getrandbits(8))
        e2 = DyadicSet.from_cells(3, rng.getrandbits(8))
        assert concat_sets(e1, e2).measure == (e1.measure + e2.measure) / 2


def test_concat_seqs_height_identity():
    empty = CarlesonSequence.empty()
    assert carleson_height(concat_seqs(empty, empty, F(0))) == F(0)
    root1 = CarlesonSequence.from_mapping({ROOT: F(1)})
    assert carleson_height(concat_seqs(root1, root1, F(1))) == F(2)
    assert carleson_height(concat_seqs(tower(3), empty, F(0))) == (2 - F(1, 8)) / 2
    rng = random.Random(6)
    for _ in range(50):
        c1, c2 = random_config(rng), random_config(rng)
        gamma = F(rng.randint(0, 4), 4)
        combined = concat_seqs(c1.seq, c2.seq, gamma)
        assert carleson_height(combined) == (c1.height + c2.height) / 2 + gamma
    with pytest.raises(DomainError):
        concat_seqs(empty, empty, F(3, 2))


def test_check_dynamics_examples():
    rng = random.Random(8)
    c1, c2 = random_config(rng), random_config(rng)
    lhs, rhs = concat_identity(c1, c2, F(0), F(3, 4))
    assert lhs == rhs
    lhs, rhs = concat_identity(c1, c1, F(1), F(3, 2))
    assert lhs == rhs
    for _ in range(60):
        a, b = random_config(rng), random_config(rng)
        gamma = (F(0), F(1, 2), F(1))[rng.randint(0, 2)]
        level = F(rng.randint(-8, 40), 8)
        lhs, rhs = concat_identity(a, b, gamma, level)
        assert lhs == rhs


def test_level_set_monotone_and_obstacle():
    rng = random.Random(9)
    for _ in range(30):
        config = random_config(rng)
        assert config.level_set(F(-1)) == F(1)
        assert config.level_set(F(0)) == F(1)
        levels = sorted(F(rng.randint(0, 32), 8) for _ in range(4))
        values = [config.level_set(l) for l in levels]
        assert all(v1 >= v2 for v1, v2 in zip(values, values[1:]))


def test_config_json_round_trip():
    def config_from_json(data):
        subset = DyadicSet.from_intervals(
            iv(int(item["d"]), int(item["i"])) for item in data["E"]["intervals"]
        )
        mapping = {
            iv(int(item["d"]), int(item["i"])): parse_rational(item["w"])
            for item in data["alpha"]["weights"]
        }
        return Config.build(subset, CarlesonSequence.from_mapping(mapping))

    rng = random.Random(10)
    for _ in range(10):
        config = random_config(rng)
        data = config_to_json(config)
        back = config_from_json(data)
        assert back.subset == config.subset
        assert back.seq == config.seq
        assert back.measure == config.measure
        assert back.height == config.height


def test_weight_validation():
    with pytest.raises(DomainError):
        CarlesonSequence.from_mapping({ROOT: F(3, 2)})
    seq = CarlesonSequence.from_mapping({ROOT: F(0), iv(1, 1): F(1)})
    assert seq.weights == ((iv(1, 1), F(1)),)
    assert CarlesonSequence.from_mapping({ROOT: F(1, 2)}).weights == ((ROOT, F(1, 2)),)
