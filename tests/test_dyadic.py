import dataclasses
import json
import random
from fractions import Fraction as F
from itertools import pairwise
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (
    carleson_constant_scan,
    concat_by_rebuilding,
    concat_identity,
    config_to_json,
    height_sum,
    measure_sum,
    scale_per_weight,
    sparse_apply,
    uniform_cell_counts,
)
from sparsebound import cli, verify
from sparsebound.cli import main
from sparsebound.dyadic import (
    CarlesonSequence,
    Config,
    DyadicInterval,
    DyadicSet,
    ROOT,
    carleson_constant,
    carleson_height,
    concat_configs,
    concat_seqs,
    concat_sets,
    _BY_DEPTH_KEYS,
    _level_cells,
    _value_cells,
    level_set_measure,
    step_pieces,
)
from sparsebound.extremal import (
    Base,
    attainment_report,
    curve_vertex_config,
    curve_vertex_target,
    interpret,
)
from sparsebound.rational import DomainError, format_rational, parse_rational


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


def piece_values(config):
    """The operator's distinct values, read off its pieces."""
    return sorted({value for _, value in step_pieces(config.subset, config.seq)})


def test_interval_basics():
    j = iv(2, 3)
    assert j.measure == F(1, 4)
    assert iv(0, 0).contains(j)
    assert not j.contains(iv(0, 0))
    with pytest.raises(DomainError):
        iv(1, 2)


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
        assert F(piece.index, 2**piece.depth) == end
        end += piece.measure
        span = 2 ** (step.depth - piece.depth)
        assert set(step.values[piece.index * span : (piece.index + 1) * span]) == {value}
        # The walk splits a node only while a weight lies strictly inside it.
        assert not any(piece.contains(j) and j != piece for j in weighted)
        if piece.depth:
            parent = iv(piece.depth - 1, piece.index // 2)
            assert any(parent.contains(j) and j != parent for j in weighted)
    assert end == 1
    values = step.breakpoints()
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
    for level in piece_values(config):
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
    for level in (*piece_values(config), F(0), F(-1)):
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


FULL = Config.full_unweighted()
GAMMAS = st.sampled_from([F(0), F(1, 2), F(1), F(1, 3)])
# Weights over 4 and over 6: their concatenation is over 12, both halves rescaled.
QUARTERS = Config(DyadicSet.prefix(F(1, 4)), CarlesonSequence.from_mapping({ROOT: F(3, 4)}))
SIXTHS = Config(DyadicSet.full(), CarlesonSequence(((ROOT, F(1, 3)), (iv(2, 1), F(5, 6)))))


@settings(max_examples=300, deadline=None)
@given(configs(), configs(), GAMMAS)
@example(FULL, FULL, F(0))
@example(FULL, FULL, F(1, 2))
@example(FULL, FULL, F(1))
@example(Config.empty(), Config.empty(), F(0))
@example(QUARTERS, SIXTHS, F(0))
@example(SIXTHS, QUARTERS, F(1, 2))
@example(QUARTERS, QUARTERS, F(1, 3))
def test_concat_configs_matches_rebuild(c1, c2, gamma):
    got = concat_configs(c1, c2, gamma)
    want = concat_by_rebuilding(c1, c2, gamma)
    assert got.subset == want.subset
    assert got.seq == want.seq and hash(got.seq) == hash(want.seq)
    assert got.measure == want.measure == want.subset.measure
    assert got.height == want.height == carleson_height(want.seq)
    assert type(got.measure) is type(got.height) is F
    # The paper's concatenation identities, checked rather than assumed.
    assert got.measure == (c1.measure + c2.measure) / 2
    assert got.height == gamma + (c1.height + c2.height) / 2
    assert concat_sets(c1.subset, c2.subset) == want.subset
    assert concat_seqs(c1.seq, c2.seq, gamma) == want.seq


def assert_ordinary_intervals(nodes):
    """Each node is a plain interval, equal, hashed and ordered as the checked one."""
    nodes = list(nodes)
    checked = [DyadicInterval(j.depth, j.index) for j in nodes]
    for node, rebuilt in zip(nodes, checked):
        assert type(node) is DyadicInterval
        assert node == rebuilt and hash(node) == hash(rebuilt)
    order = sorted(range(len(nodes)), key=nodes.__getitem__)
    assert order == sorted(range(len(checked)), key=checked.__getitem__)
    # Compared with each other and with checked intervals, as checked ones are.
    for (a, b), (ca, cb) in zip(pairwise(nodes), pairwise(checked)):
        assert (a < b, a == b, a > cb, ca < b) == (ca < cb, ca == cb, ca > cb, ca < cb)


@settings(max_examples=100, deadline=None)
@given(configs(), configs(), GAMMAS, st.integers(0, 8), st.data())
def test_concatenated_and_cell_nodes_are_ordinary_intervals(c1, c2, gamma, depth, data):
    got = concat_configs(c1, c2, gamma)
    assert_ordinary_intervals(got.subset.intervals)
    assert_ordinary_intervals(iv for iv, _ in got.seq.weights)
    cells = DyadicSet.from_cells(depth, data.draw(st.integers(0, 2 ** 2**depth - 1)))
    assert_ordinary_intervals(cells.intervals)


def test_from_cells_checks_its_depth():
    for depth in (-1, True, 2.0):
        with pytest.raises(DomainError):
            DyadicSet.from_cells(depth, 0)
    # Bits from 2**depth up are ignored, also those of a negative mask.
    assert DyadicSet.from_cells(2, 0b110011) == DyadicSet.from_intervals([iv(2, 0), iv(2, 1)])
    assert DyadicSet.from_cells(2, -1) == DyadicSet.full()
    assert DyadicSet.from_cells(0, 1) == DyadicSet.full()
    assert DyadicSet.from_cells(3, 0) == DyadicSet.empty()


def test_from_cells_checks_its_mask():
    # A float mask used to raise TypeError, and True was read as cell 0.
    for mask in (3.0, True, False, F(1)):
        with pytest.raises(DomainError):
            DyadicSet.from_cells(2, mask)


def test_constructors_refuse_other_nodes():
    # A node given as a (depth, index) tuple used to raise AttributeError.
    refused = [
        lambda: DyadicSet(((0, 0),)),
        lambda: DyadicSet.from_intervals([ROOT, (1, 0)]),
        lambda: CarlesonSequence((((0, 0), F(1)),)),
        lambda: CarlesonSequence.from_mapping({(1, 1): F(1)}),
    ]
    for call in refused:
        with pytest.raises(DomainError):
            call()


def test_built_from_lists():
    # Lists are taken as tuples: equal, hashed alike and hashable.
    for from_list, from_tuple in (
        (CarlesonSequence([(ROOT, F(1)), (iv(1, 1), F(1, 2))]),
         CarlesonSequence(((ROOT, F(1)), (iv(1, 1), F(1, 2))))),
        (DyadicSet([iv(2, 1), ROOT]), DyadicSet((ROOT,))),
    ):
        assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
        assert len({from_list, from_tuple}) == 1


def test_views_are_kept_and_read_only():
    config = curve_vertex_config(3, 1)
    assert config.subset.intervals is config.subset.intervals
    assert config.seq.weights is config.seq.weights
    assert type(config.subset.intervals) is type(config.seq.weights) is tuple
    with pytest.raises(AttributeError):
        config.subset.intervals = ()
    with pytest.raises(AttributeError):
        config.seq.weights = ()


@settings(max_examples=300, deadline=None)
@given(interval_lists())
def test_from_intervals_is_canonical(given_intervals):
    got = DyadicSet.from_intervals(given_intervals).intervals
    assert DyadicSet(tuple(given_intervals)).intervals == got
    assert cells_of(got) == cells_of(given_intervals)
    assert list(got) == sorted(got, key=lambda j: F(j.index, 2**j.depth))
    for a in range(len(got)):
        for b in range(len(got)):
            assert a == b or not got[a].contains(got[b])
    assert not any(j.depth and iv(j.depth, j.index ^ 1) in got for j in got)


@settings(max_examples=200, deadline=None)
@given(sequences())
def test_carleson_constant_matches_scan(seq):
    assert carleson_constant(seq) == carleson_constant_scan(seq)


@st.composite
def raw_pairs(draw):
    """(interval, weight) pairs unsorted, with zero weights and nodes listed more than once."""
    nodes = draw(st.lists(intervals(), max_size=10))
    nodes += nodes[: draw(st.integers(0, len(nodes)))]
    weights = st.sampled_from([F(0), F(1)]) | st.fractions(0, 1, max_denominator=12)
    return [(node, draw(weights)) for node in draw(st.permutations(nodes))]


def raw_sequences():
    """Built directly from ``raw_pairs``."""
    return raw_pairs().map(CarlesonSequence)


def by_key(pairs):
    """The (interval, weight) pairs sorted stably by depth and then index."""
    return sorted(pairs, key=lambda pair: (pair[0].depth, pair[0].index))


def assert_key_ordered(seq):
    """The weights are in key order, and the constructor given them builds the same sequence."""
    assert list(seq.weights) == by_key(seq.weights)
    assert CarlesonSequence(seq.weights) == seq


@settings(max_examples=200, deadline=None)
@given(raw_pairs())
@example([(iv(1, 1), F(1, 6)), (ROOT, F(0)), (iv(1, 1), F(3, 4))])
@example([(iv(2, 3), F(1)), (iv(2, 0), F(0)), (iv(1, 1), F(1, 2)), (iv(2, 0), F(1, 3))])
def test_constructor_keeps_key_order(pairs):
    # Sorted stably: a repeated node's weights side by side in the order
    # given, zero weights kept.
    seq = CarlesonSequence(pairs)
    assert list(seq.weights) == by_key(pairs)
    assert_key_ordered(seq)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(intervals(8), st.just(F(0)) | st.fractions(0, 1, max_denominator=12)))
def test_from_mapping_keeps_key_order(mapping):
    seq = CarlesonSequence.from_mapping(mapping)
    assert list(seq.weights) == sorted((node, w) for node, w in mapping.items() if w)
    assert_key_ordered(seq)


def concat_by_constructor(first, second, gamma):
    """``concat_seqs`` built by the constructor from the halved weights, repeats and zeros kept."""
    pairs = [(ROOT, gamma)] if gamma else []
    pairs += [(iv(j.depth + 1, j.index), w) for j, w in first.weights]
    pairs += [(iv(j.depth + 1, j.index + 2**j.depth), w) for j, w in second.weights]
    return CarlesonSequence(pairs)


@settings(max_examples=200, deadline=None)
@given(sequences() | raw_sequences(), sequences() | raw_sequences(), GAMMAS)
def test_concat_seqs_keeps_key_order(first, second, gamma):
    got = concat_seqs(first, second, gamma)
    assert got == concat_by_constructor(first, second, gamma)
    assert_key_ordered(got)


def big_pairs(rng, n):
    """n pairs on nodes down to depth 9, one in eight a repeat, shuffled; weights in quarters."""
    nodes = [iv(d, rng.randrange(2**d)) for d in (rng.randint(0, 9) for _ in range(n - n // 8))]
    nodes += rng.choices(nodes, k=n // 8) if nodes else []
    rng.shuffle(nodes)
    return [(node, F(rng.randint(0, 4), 4)) for node in nodes]


# Key counts on either side of the switch from a sorted merge to a merge depth by depth.
MERGE_SIZES = [(0, 0), (5, 0), (0, 9), (_BY_DEPTH_KEYS - 1, 0), (0, _BY_DEPTH_KEYS)]
MERGE_SIZES += [(_BY_DEPTH_KEYS // 2, _BY_DEPTH_KEYS // 2 - 1), (150, 150), (700, 3), (1, 900)]


@pytest.mark.parametrize("sizes", MERGE_SIZES)
def test_concat_seqs_merges_either_way(sizes):
    # Raw halves (repeats and zeros, with a third denominator in gamma) and
    # canonical ones, alone and beside an extremizer's sequence.
    rng = random.Random(str(sizes))
    raw = [CarlesonSequence(big_pairs(rng, n)) for n in sizes]
    canonical = [CarlesonSequence.from_mapping(dict(big_pairs(rng, n))) for n in sizes]
    vertex = curve_vertex_config(6, 2).seq
    for first, second in (raw, canonical, (raw[0], vertex), (vertex, canonical[1])):
        for gamma in (F(0), F(1, 3), F(1)):
            got = concat_seqs(first, second, gamma)
            want = concat_by_constructor(first, second, gamma)
            assert got == want
            assert_key_ordered(got)
            assert carleson_constant(got) == carleson_constant(want)


def test_library_producers_keep_key_order():
    # The sequences built without the constructor's sort.
    rng = random.Random(35)
    for _ in range(300):
        assert_key_ordered(verify._random_config(rng).seq)
    for x in (F(0), F(1, 4), F(3, 8), F(1)):
        assert_key_ordered(Base(x).left.seq)
        assert_key_ordered(interpret(Base(x)).seq)
    for depth in (1, 3, 5, 8):
        drawn = list(verify._sampled_configs(depth, 40, depth))
        assert drawn
        for config in drawn:
            assert_key_ordered(config.seq)
    for m, k in ((2, 1), (5, 0), (6, 6), (8, 3)):
        assert_key_ordered(curve_vertex_config(m, k).seq)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        sequences(),
        configs().map(lambda config: config.seq),
        raw_sequences(),
        st.builds(concat_seqs, sequences() | raw_sequences(), raw_sequences(), GAMMAS),
    ),
    st.booleans(),
)
def test_one_walk_gives_height_and_constant(seq, height_first):
    # The walk is kept with the sequence: whichever is asked first, both
    # read the same walk, and the sequence stays equal to, and hashed like,
    # a copy that has computed nothing.
    expected = height_sum(seq), carleson_constant_scan(seq)
    if height_first:
        height, constant = carleson_height(seq), carleson_constant(seq)
    else:
        constant, height = carleson_constant(seq), carleson_height(seq)
    assert (height, constant) == expected
    assert (carleson_height(seq), carleson_constant(seq)) == expected
    fresh = CarlesonSequence(seq.weights)
    assert seq == fresh and hash(seq) == hash(fresh)
    assert Config(DyadicSet.full(), seq).height == expected[0]


def test_deep_interval():
    # 2000 levels down: the descent is a loop, not a recursion.
    for deep in (iv(2000, 0), iv(2000, 2**2000 - 1)):
        subset = DyadicSet.from_intervals([deep])
        seq = CarlesonSequence.from_mapping({deep: F(1)})
        assert subset.intervals == (deep,)
        assert carleson_constant(seq) == F(1)
        assert level_set_measure(subset, seq, F(1)) == F(1, 2**2000)


def pieces_measure(config, level):
    """The measure where the operator reaches ``level``, summed over the pieces of the piece walk."""
    pieces = step_pieces(config.subset, config.seq)
    return sum((piece.measure for piece, value in pieces if value >= level), F(0))


VERTICES = [(m, k) for m in range(9) for k in range(m + 1)]


@pytest.mark.parametrize("m, k", VERTICES)
def test_vertex_level_sets_match_pieces(m, k):
    # The weighted-node pass against the piece walk on every extremizer with
    # m <= 8: at the vertex level, 1/3 below and 1/7 above it, and at each
    # value the operator takes.
    config, level = curve_vertex_config(m, k), curve_vertex_target(m, k).level
    levels = [level, level - F(1, 3), level + F(1, 7)] + piece_values(config)
    for lam in levels:
        assert level_set_measure(config.subset, config.seq, lam) == pieces_measure(config, lam)


@pytest.mark.parametrize("m, k", [(m, k) for m, k in VERTICES if m <= 6])
def test_vertex_walks_match_scan(m, k):
    # The walk over weighted nodes only against the scan of every base
    # interval (too slow beyond m = 6).
    seq = curve_vertex_config(m, k).seq
    assert carleson_constant(seq) == carleson_constant_scan(seq)
    assert carleson_height(seq) == height_sum(seq)


def piece_histogram(config):
    """The measure taking each value, read off the pieces of the piece walk."""
    out = {}
    for piece, value in step_pieces(config.subset, config.seq):
        out[value] = out.get(value, F(0)) + piece.measure
    return out


@settings(max_examples=300, deadline=None)
@given(configs(), st.none() | raw_sequences())
# A weight on a node that covers no cell of the set adds nothing.
@example(Config(DyadicSet.prefix(F(1, 2)), CarlesonSequence.from_mapping({iv(1, 1): F(1)})), None)
# The root's own value covers no cell: its children are weighted.
@example(Config(DyadicSet.full(), CarlesonSequence(((ROOT, F(1)), (iv(1, 0), F(1)), (iv(1, 1), F(1, 2))))), None)
def test_value_cells_match_pieces(config, raw):
    if raw is not None:
        config = Config(config.subset, raw)
    cells, scale, depth = _value_cells(config.subset, config.seq)
    assert all(n > 0 for n in cells.values())
    got = {F(value, scale): F(n, 2**depth) for value, n in cells.items()}
    assert got == piece_histogram(config)


def node_values(config):
    """Each weighted node's operator value: the shares of the set under the weights on and above it."""

    def share(node):
        if any(j.contains(node) for j in config.subset.intervals):
            return F(1)
        inside = sum((j.measure for j in config.subset.intervals if node.contains(j)), F(0))
        return inside / node.measure

    weights = config.seq.weights
    return {j: sum((w * share(i) for i, w in weights if i.contains(j)), F(0)) for j, _ in weights}


def walk_level_set(config, level):
    cells, size = _level_cells(config.subset, config.seq, level.numerator, level.denominator)
    return F(cells, size)


def counted_level_set(counts, depth, level):
    return F(sum(n for value, n in counts.items() if value >= level), 2**depth)


def cells_by_value(config):
    """``_value_cells`` as the measure taking each value."""
    cells, scale, depth = _value_cells(config.subset, config.seq)
    assert all(n > 0 for n in cells.values())
    return {F(value, scale): F(n, 2**depth) for value, n in cells.items()}


TINY = F(1, 2**20)
EMPTY_SEQ = CarlesonSequence.empty()

# A node listed twice, [0, 1/2) with 1/2 and 1/2, around 1/4 on the root.  On
# the full set the operator is 1/4 on [1/2, 1) and 5/4 on [0, 1/2), which is
# 3/4 after the first of the two weights: at a level in (3/4, 5/4] the second
# one reaches it, and at one in (1/4, 3/4] the first one does.
STRADDLE = CarlesonSequence(((iv(1, 0), F(1, 2)), (ROOT, F(1, 4)), (iv(1, 0), F(1, 2))))


@settings(max_examples=80, deadline=None)
@given(raw_sequences(), st.integers(0, 6), st.integers(0, 2**64 - 1))
# The empty set and the empty sequence, alone and together.
@example(EMPTY_SEQ, 0, 0)
@example(EMPTY_SEQ, 3, 0b10110110)
@example(CarlesonSequence(((iv(1, 1), F(1)),)), 2, 0)
# Weights finer than the set's cells, a zero weight and a node listed twice.
@example(CarlesonSequence(((ROOT, F(1)), (iv(2, 1), F(0)), (iv(2, 1), F(1, 2)))), 0, 1)
# Weights coarser than the set's cells.
@example(CarlesonSequence(((ROOT, F(1)), (iv(1, 0), F(1, 2)))), 4, 0x0FF0)
# A node listed twice whose two weights straddle a level.
@example(STRADDLE, 0, 1)
@example(STRADDLE, 3, 0b01101101)
def test_fused_walks_match_uniform_cells(seq, set_depth, mask):
    # The walks that count as they build the values against the operator
    # on uniform cells, at every node's value, 2**-20 either side of it,
    # and at levels at or below 0 (the mask's bits from 2**set_depth up are
    # ignored).
    config = Config(DyadicSet.from_cells(set_depth, mask), seq)
    step = sparse_apply(config.subset, seq)
    counts, depth = uniform_cell_counts(config.subset, seq)
    assert depth == step.depth and sum(counts.values()) == 2**depth
    histogram = {value: F(n, 2**depth) for value, n in counts.items()}
    assert all(step.values.count(value) == n for value, n in counts.items())
    assert cells_by_value(config) == histogram
    levels = {F(0), F(-1), F(-1, 3), TINY}
    for value in node_values(config).values():
        levels |= {value, value - TINY, value + TINY}
    for level in levels:
        assert walk_level_set(config, level) == counted_level_set(counts, depth, level)


@pytest.mark.parametrize(
    "subset", [DyadicSet.full(), DyadicSet.prefix(F(3, 8)), DyadicSet.from_cells(3, 0b10110110)]
)
def test_repeated_node_straddling_the_level(subset):
    # Each walk against the uniform cells and against the one merged weight.
    merged = CarlesonSequence.from_mapping({ROOT: F(1, 4), iv(1, 0): F(1)})
    assert STRADDLE._keys == (1, 2, 2)
    assert carleson_constant(STRADDLE) == carleson_constant_scan(STRADDLE) == F(1)
    assert carleson_constant(merged) == F(1)
    counts, depth = uniform_cell_counts(subset, STRADDLE)
    config = Config(subset, STRADDLE)
    assert cells_by_value(config) == {v: F(n, 2**depth) for v, n in counts.items()}
    assert cells_by_value(config) == cells_by_value(Config(subset, merged))
    levels = {F(1, 2), F(3, 4), F(1), F(5, 4), F(0)}
    for value in counts:
        levels |= {value, value - TINY, value + TINY}
    for level in levels:
        want = counted_level_set(counts, depth, level)
        assert level_set_measure(subset, STRADDLE, level) == want
        assert level_set_measure(subset, merged, level) == want
    if subset == DyadicSet.full():
        assert level_set_measure(subset, STRADDLE, F(1)) == F(1, 2)
        assert level_set_measure(subset, STRADDLE, F(1, 2)) == F(1, 2)


@pytest.mark.parametrize("m", range(9))
def test_fused_walks_at_vertex_levels(m):
    # Every vertex extremizer with m <= 8, at its vertex level and 2**-20
    # either side, against the uniform cells counted in integers.
    for k in range(m + 1):
        config, level = curve_vertex_config(m, k), curve_vertex_target(m, k).level
        counts, depth = uniform_cell_counts(config.subset, config.seq)
        assert cells_by_value(config) == {v: F(n, 2**depth) for v, n in counts.items()}
        for lam in (level - TINY, level, level + TINY):
            assert walk_level_set(config, lam) == counted_level_set(counts, depth, lam)


def test_deep_chain():
    # Weights at depths 0, 1000 and 2000 on the leftmost path: each walk hops
    # across about 1000 unweighted levels to the nearest weighted ancestor.
    leaf, mid = iv(2000, 0), iv(1000, 0)
    seq = CarlesonSequence.from_mapping({ROOT: F(1, 2), mid: F(1), leaf: F(1)})
    assert carleson_height(seq) == F(1, 2) + F(1, 2**1000) + F(1, 2**2000)
    # The largest ratio is mid's, (2**-1000 + 2**-2000) / 2**-1000.
    assert carleson_constant(seq) == 1 + F(1, 2**1000)
    # On the full set the operator is 1/2, 3/2 inside mid and 5/2 on the leaf.
    full = DyadicSet.full()
    for values, measure in (((F(-1), F(0), F(1, 2)), F(1)), ((F(1), F(3, 2)), F(1, 2**1000))):
        for lam in values:
            assert level_set_measure(full, seq, lam) == measure
    assert level_set_measure(full, seq, F(5, 2)) == F(1, 2**2000)
    assert level_set_measure(full, seq, F(5, 2) + F(1, 2**3000)) == 0
    # On the leaf alone each weight sees its share 2**-(2000 - d) of it: the
    # operator is 2**-2001, 2**-1000 more inside mid and 1 more on the leaf.
    alone = DyadicSet.from_intervals([leaf])
    low = F(1, 2**2001)
    steps = [(low, F(1)), (low + F(1, 2**1000), F(1, 2**1000)), (low + F(1, 2**1000) + 1, F(1, 2**2000))]
    for (value, measure), above in zip(steps, [m for _, m in steps[1:]] + [F(0)]):
        assert level_set_measure(alone, seq, value) == measure
        assert level_set_measure(alone, seq, value + F(1, 2**3000)) == above
    cells, scale, depth = _value_cells(alone, seq)
    assert depth == 2000 and sum(cells.values()) == 2**2000 and len(cells) == 3


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


# Reports of the CLI's extremizers, attained and not: the writer prints
# them after the configuration.
REPORTS = [
    attainment_report(curve_vertex_config(2, 1), curve_vertex_target(2, 1)),
    attainment_report(Config.empty(), curve_vertex_target(3, 2)),
]


def _report_text(config, report):
    """What ``extremize`` and ``corollary`` write for a configuration and its report."""
    # The CLI reads attainment_report from extremal at each call.
    with mock.patch("sparsebound.extremal.attainment_report", lambda _config, _target: report):
        return cli._attainment(config, None)[0]


def test_config_json_round_trip(capsys):
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
        data = json.loads(_report_text(config, REPORTS[0]))["config"]
        back = config_from_json(data)
        assert back.subset == config.subset
        assert back.seq == config.seq
        assert back.measure == config.measure
        assert back.height == config.height
    assert main(["extremize", "3", "2"]) == 0
    back = config_from_json(json.loads(capsys.readouterr().out)["config"])
    assert back == curve_vertex_config(3, 2)


def _attainment_json(config, report):
    payload = {"config": config_to_json(config), "report": report}
    return json.dumps(payload, indent=2, default=format_rational)


@settings(max_examples=150, deadline=None)
@given(configs(), st.sampled_from(REPORTS))
def test_attainment_text_matches_json_dumps(config, report):
    assert _report_text(config, report) == _attainment_json(config, report)


def test_extremizer_text_matches_views():
    # Every extremizer up to m = 8: the writer reads the rows off the keys,
    # the oracle off the interval and weight views.
    for m in range(9):
        for k in range(m + 1):
            config, target = curve_vertex_config(m, k), curve_vertex_target(m, k)
            report = attainment_report(config, target)
            assert cli._attainment(config, target) == (_attainment_json(config, report), 0)


def test_attainment_text_edge_configs():
    full, empty = DyadicSet.full(), DyadicSet.empty()
    no_weights = CarlesonSequence.empty()
    # Weights given directly: zero, repeated nodes and mixed denominators.
    fractional = CarlesonSequence(
        ((iv(2, 3), F(1, 3)), (ROOT, F(0)), (iv(1, 0), F(3, 4)), (iv(2, 3), F(1, 3)),
         (iv(1, 1), F(1)), (iv(3, 0), F(5, 12)))
    )
    configs_ = [
        Config.empty(),
        Config.full_unweighted(),
        Config(empty, tower(2)),
        Config(full, fractional),
        Config(DyadicSet.prefix(F(5, 8)), fractional),
        Config(DyadicSet.prefix(F(1, 2)), no_weights),
        curve_vertex_config(4, 2),
    ]
    for config in configs_:
        for report in REPORTS:
            assert _report_text(config, report) == _attainment_json(config, report)


@given(st.lists(st.tuples(intervals(), st.fractions(0, 1, max_denominator=12) | st.just(1))))
@example([])
@example([(iv(j, 0), F(1)) for j in range(4)])
@example([(iv(1, 1), F(1, 6)), (ROOT, F(0)), (iv(1, 1), F(3, 4))])
@example([(iv(2, 1), F(0)), (iv(2, 1), F(1)), (ROOT, F(1))])
def test_scale_matches_per_weight(weights):
    # Against the drawn weights, not the ``weights`` view, which is read from these fields:
    # the constructor stores them in key order, a repeated node's weights in the order given.
    seq = CarlesonSequence(weights)
    assert (seq._den, seq._values) == scale_per_weight([w for _, w in by_key(weights)])
    assert type(seq._den) is int and type(seq._values) is tuple
    assert all(type(v) is int for v in seq._values)


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
        lambda: DyadicInterval(1.0, 0),
        lambda: DyadicInterval(2, F(1)),
        lambda: DyadicInterval(True, 0),
        lambda: DyadicInterval(1, True),
        lambda: DyadicInterval(1, 0.0),
    ]
    for call in refused:
        with pytest.raises(DomainError):
            call()
    assert CarlesonSequence.from_mapping({ROOT: 1}).weights == ((ROOT, F(1)),)
    assert CarlesonSequence(((ROOT, 1),)).weights == ((ROOT, F(1)),)
    assert type(CarlesonSequence(((ROOT, 1),)).weights[0][1]) is F
    assert type(CarlesonSequence.from_mapping({ROOT: 1}).weights[0][1]) is F
    assert concat_seqs(empty, empty, 1).weights == ((ROOT, F(1)),)
    assert type(concat_seqs(empty, empty, 1).weights[0][1]) is F
    assert DyadicSet.prefix(0) == DyadicSet.empty()
    assert level_set_measure(DyadicSet.full(), empty, 0) == F(1)
    seq = CarlesonSequence.from_mapping({ROOT: F(0), iv(1, 1): F(1)})
    assert seq.weights == ((iv(1, 1), F(1)),)
    assert CarlesonSequence.from_mapping({ROOT: F(1, 2)}).weights == ((ROOT, F(1, 2)),)
