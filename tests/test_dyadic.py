import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import carleson_constant_scan, height_sum, measure_sum, sparse_apply
from sparsebound.dyadic import (
    CarlesonSequence,
    Config,
    DyadicInterval,
    DyadicSet,
    ROOT,
    carleson_constant,
    carleson_height,
    concat_configs,
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
    return Config(subset, CarlesonSequence.from_mapping(mapping))


@st.composite
def intervals(draw, max_depth=6):
    depth = draw(st.integers(0, max_depth))
    return iv(depth, draw(st.integers(0, 2**depth - 1)))


@st.composite
def interval_lists(draw):
    """Intervals with nesting, duplicates and complete sibling families, shuffled."""
    out = draw(st.lists(intervals(), max_size=12))
    for top in draw(st.lists(intervals(4), max_size=3)):
        k = draw(st.integers(1, 2))
        out += [iv(top.depth + k, (top.index << k) + j) for j in range(2**k)]
    out += out[: draw(st.integers(0, len(out)))]
    return draw(st.permutations(out))


@st.composite
def sequences(draw, max_depth=8):
    """Weights with denominators up to 12, on intervals down to a drawn depth; maybe none."""
    depth = draw(st.integers(0, max_depth))
    weights = st.fractions(0, 1, max_denominator=12)
    return CarlesonSequence.from_mapping(
        draw(st.dictionaries(intervals(depth), weights, max_size=12))
    )


@st.composite
def configs(draw):
    """A set and a weight sequence, their depths drawn independently up to 8.

    The set is drawn from cell masks, from interval lists (empty ones too),
    or as the full set, and may hold a weighted node or one of its ancestors.
    """
    seq = draw(sequences())
    depth = draw(st.integers(0, 8))
    chosen = draw(st.lists(intervals(depth), max_size=10))
    if seq.weights and draw(st.booleans()):
        node, _ = draw(st.sampled_from(seq.weights))
        up = draw(st.integers(0, node.depth))
        chosen.append(iv(node.depth - up, node.index >> up))
    masks = st.integers(0, 2 ** 2**depth - 1)
    subset = draw(
        st.one_of(
            st.builds(DyadicSet.from_cells, st.just(depth), masks),
            st.just(DyadicSet.from_intervals(chosen)),
            st.just(DyadicSet(tuple(chosen))),
            st.just(DyadicSet.full()),
        )
    )
    return Config(subset, seq)


def cells_of(intervals_, depth=6):
    spans = ((j.index << (depth - j.depth), 2 ** (depth - j.depth)) for j in intervals_)
    return {cell for start, span in spans for cell in range(start, start + span)}


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


def test_raw_constructor_is_canonical():
    covered = DyadicSet((ROOT, iv(1, 0)))
    assert covered == DyadicSet.full() and covered.measure == F(1)
    halves = DyadicSet((iv(1, 0), iv(1, 1)))
    assert halves == DyadicSet.full()
    assert concat_sets(halves, halves).intervals == (ROOT,)
    assert DyadicSet((iv(2, 3), iv(2, 3), iv(3, 0))).intervals == (iv(3, 0), iv(2, 3))
    assert DyadicSet(()) == DyadicSet.empty()


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


@settings(max_examples=300, deadline=None)
@given(configs())
def test_pieces_match_uniform_cells(config):
    step = sparse_apply(config.subset, config.seq)
    pieces = step_pieces(config.subset, config.seq)
    weighted = [j for j, _ in config.seq.weights]
    end = F(0)
    for piece, value in pieces:
        assert piece.left == end
        end += piece.measure
        span = 2 ** (step.depth - piece.depth)
        assert set(step.values[piece.index * span : (piece.index + 1) * span]) == {value}
        # The walk splits a node only while a weight lies strictly inside it.
        assert not any(piece.contains(j) and j != piece for j in weighted)
        if piece.depth:
            parent = piece.parent()
            assert any(parent.contains(j) and j != parent for j in weighted)
    assert end == 1
    values = step.breakpoints()
    assert config.breakpoints() == values
    assert value_breakpoints(config.subset, config.seq) == values
    between = [(a + b) / 2 for a, b in zip(values, values[1:])]
    below = (values[0] - 1, F(0), F(-1, 7))
    for level in (*values, *between, *below, values[-1] + F(1, 3)):
        assert config.level_set(level) == step.level_set_measure(level)
        assert level_set_measure(config.subset, config.seq, level) == step.level_set_measure(level)


@settings(max_examples=100, deadline=None)
@given(configs(), st.randoms(use_true_random=False))
def test_walks_do_not_depend_on_order(config, rng):
    # Built directly, a set's intervals and a sequence's weights may come in any order.
    intervals, weights = list(config.subset.intervals), list(config.seq.weights)
    rng.shuffle(intervals)
    rng.shuffle(weights)
    subset, seq = DyadicSet(tuple(intervals)), CarlesonSequence(tuple(weights))
    assert carleson_constant(seq) == carleson_constant(config.seq)
    assert step_pieces(subset, seq) == step_pieces(config.subset, config.seq)
    for level in config.breakpoints():
        assert level_set_measure(subset, seq, level) == config.level_set(level)


def test_repeated_node_weights_add():
    # Built directly, a sequence may list a node twice; every walk adds the weights.
    seq = CarlesonSequence(((ROOT, F(1, 2)), (ROOT, F(1, 2))))
    full = DyadicSet.full()
    assert carleson_constant(seq) == carleson_height(seq) == F(1)
    assert step_pieces(full, seq) == [(ROOT, F(1))]
    assert level_set_measure(full, seq, F(1)) == F(1)


@settings(max_examples=100, deadline=None)
@given(configs(), st.data())
def test_split_weight_changes_nothing(config, data):
    # One weight split into two halves on the same node: the same operator.
    weights = list(config.seq.weights)
    if weights:
        pos = data.draw(st.integers(0, len(weights) - 1))
        node, w = weights[pos]
        weights[pos : pos + 1] = [(node, w / 2), (node, w / 2)]
    seq = CarlesonSequence(tuple(weights))
    assert carleson_constant(seq) == carleson_constant(config.seq)
    assert step_pieces(config.subset, seq) == step_pieces(config.subset, config.seq)
    for level in (*config.breakpoints(), F(0), F(-1)):
        assert level_set_measure(config.subset, seq, level) == config.level_set(level)


def test_config_is_its_set_and_sequence():
    assert [field.name for field in dataclasses.fields(Config)] == ["subset", "seq"]
    full = Config(DyadicSet.full(), CarlesonSequence.empty())
    assert (full.measure, full.height) == (F(1), F(0))
    with pytest.raises(TypeError):
        Config(DyadicSet.full(), CarlesonSequence.empty(), F(1, 2), F(7))


@settings(max_examples=300, deadline=None)
@given(configs(), st.data())
def test_measure_and_height_match_fraction_sums(config, data):
    assert config.measure == measure_sum(config.subset)
    assert config.height == height_sum(config.seq)
    assert type(config.measure) is type(config.height) is F
    # The same weights built directly: shuffled, with one split in two
    # halves on its node.
    weights = data.draw(st.permutations(config.seq.weights))
    if weights:
        node, w = weights[0]
        weights[:1] = [(node, w / 2), (node, w / 2)]
    raw = Config(config.subset, CarlesonSequence(tuple(weights)))
    assert raw.height == height_sum(raw.seq) == config.height
    assert type(raw.height) is F


def _concat_by_rebuilding(c1, c2, gamma):
    """``concat_configs`` through canonicalisation and validation of the halved inputs."""
    halved = [iv(j.depth + 1, j.index) for j in c1.subset.intervals]
    halved += [iv(j.depth + 1, j.index + 2**j.depth) for j in c2.subset.intervals]
    mapping = {ROOT: gamma}
    mapping.update({iv(j.depth + 1, j.index): w for j, w in c1.seq.weights})
    mapping.update({iv(j.depth + 1, j.index + 2**j.depth): w for j, w in c2.seq.weights})
    return Config(DyadicSet.from_intervals(halved), CarlesonSequence.from_mapping(mapping))


FULL = Config.full_unweighted()
GAMMAS = st.sampled_from([F(0), F(1, 2), F(1)])


@settings(max_examples=300, deadline=None)
@given(configs(), configs(), GAMMAS)
@example(FULL, FULL, F(0))
@example(FULL, FULL, F(1, 2))
@example(FULL, FULL, F(1))
@example(Config.empty(), Config.empty(), F(0))
def test_concat_configs_matches_rebuild(c1, c2, gamma):
    got = concat_configs(c1, c2, gamma)
    want = _concat_by_rebuilding(c1, c2, gamma)
    assert got.subset == want.subset
    assert got.seq == want.seq
    assert got.measure == want.measure == want.subset.measure
    assert got.height == want.height == carleson_height(want.seq)
    assert type(got.measure) is type(got.height) is F
    # The paper's concatenation identities, checked rather than assumed.
    assert got.measure == (c1.measure + c2.measure) / 2
    assert got.height == gamma + (c1.height + c2.height) / 2
    assert concat_sets(c1.subset, c2.subset) == want.subset
    assert concat_seqs(c1.seq, c2.seq, gamma) == want.seq


@settings(max_examples=300, deadline=None)
@given(interval_lists())
def test_from_intervals_is_canonical(given_intervals):
    got = DyadicSet.from_intervals(given_intervals).intervals
    assert DyadicSet(tuple(given_intervals)).intervals == got
    assert cells_of(got) == cells_of(given_intervals)
    assert list(got) == sorted(got, key=lambda j: j.left)
    for a in range(len(got)):
        for b in range(len(got)):
            assert a == b or not got[a].contains(got[b])
    assert not any(j.depth and iv(j.depth, j.index ^ 1) in got for j in got)


@settings(max_examples=200, deadline=None)
@given(sequences())
def test_carleson_constant_matches_scan(seq):
    assert carleson_constant(seq) == carleson_constant_scan(seq)


def test_deep_interval():
    # 2000 levels down: the descent is a loop, not a recursion.
    for deep in (iv(2000, 0), iv(2000, 2**2000 - 1)):
        subset = DyadicSet.from_intervals([deep])
        seq = CarlesonSequence.from_mapping({deep: F(1)})
        assert subset.intervals == (deep,)
        assert carleson_constant(seq) == F(1)
        assert level_set_measure(subset, seq, F(1)) == F(1, 2**2000)


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
        return Config(subset, CarlesonSequence.from_mapping(mapping))

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
    empty = CarlesonSequence.empty()
    refused = [
        lambda: CarlesonSequence.from_mapping({ROOT: 0.5}),
        lambda: CarlesonSequence.from_mapping({ROOT: True}),
        lambda: CarlesonSequence.from_mapping({iv(1, 0): 1.0}),
        lambda: CarlesonSequence.from_mapping({ROOT: 0.0}),
        lambda: CarlesonSequence(((ROOT, 0.5),)),
        lambda: CarlesonSequence(((ROOT, True),)),
        lambda: CarlesonSequence(((ROOT, F(3)),)),
        lambda: CarlesonSequence(((iv(1, 0), F(1, 2)), (iv(1, 1), F(-1, 2)))),
        lambda: DyadicSet.prefix(0.25),
        lambda: DyadicSet.prefix(True),
        lambda: concat_seqs(empty, empty, 0.5),
        lambda: concat_seqs(empty, empty, True),
        lambda: concat_configs(Config.empty(), Config.empty(), 0.5),
        lambda: level_set_measure(DyadicSet.full(), empty, 0.5),
        lambda: level_set_measure(DyadicSet.full(), empty, False),
        lambda: Config.full_unweighted().level_set(0.5),
    ]
    for call in refused:
        with pytest.raises(DomainError):
            call()
    assert CarlesonSequence.from_mapping({ROOT: 1}).weights == ((ROOT, F(1)),)
    assert CarlesonSequence(((ROOT, 1),)).weights == ((ROOT, F(1)),)
    assert type(CarlesonSequence(((ROOT, 1),)).weights[0][1]) is F
    assert type(CarlesonSequence.from_mapping({ROOT: 1}).weights[0][1]) is F
    assert DyadicSet.prefix(0) == DyadicSet.empty()
    assert level_set_measure(DyadicSet.full(), empty, 0) == F(1)
    seq = CarlesonSequence.from_mapping({ROOT: F(0), iv(1, 1): F(1)})
    assert seq.weights == ((iv(1, 1), F(1)),)
    assert CarlesonSequence.from_mapping({ROOT: F(1, 2)}).weights == ((ROOT, F(1, 2)),)
