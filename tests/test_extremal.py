import dataclasses
import random
from fractions import Fraction as F

import pytest

from reference import base_by_constructors, concat_by_rebuilding, curve_vertex_config_by_moves
from sparsebound.candidate import bellman_value, corollary_bound, vertex_f
from sparsebound.dyadic import (
    ROOT,
    CarlesonSequence,
    Config,
    DyadicInterval,
    DyadicSet,
    carleson_constant,
    concat_configs,
    concat_seqs,
)
from sparsebound import extremal
from sparsebound.extremal import (
    AttainmentTarget,
    Base,
    Concat,
    Halve,
    Jump,
    MixZero,
    attainment_report,
    EXTREMIZER_CURVE_CAP,
    corollary_config,
    corollary_target,
    curve_vertex_config,
    curve_vertex_recipe,
    curve_vertex_target,
    interpret,
    tower_config,
)
from sparsebound.rational import DomainError
from sparsebound.verify import brute_force_sup


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
    c = interpret(Base(F(1)))
    assert (c.measure, c.height) == (F(1), F(2))
    assert c.level_set(F(2)) == F(1) == bellman_value(F(1), F(2), F(2))
    c = interpret(Base(F(1, 2)))
    assert c.level_set(F(1)) == F(1) == bellman_value(F(1, 2), F(2), F(1))
    c = interpret(Base(F(1, 4)))
    assert c.level_set(F(1, 2)) == F(1)
    # averages are equidistributed over the two halves
    for half in (DyadicInterval(1, 0), DyadicInterval(1, 1)):
        assert sum(iv.measure for iv in c.subset.intervals if half.contains(iv)) == F(1, 8)


def test_x1_chain_config():
    for m, level, expected in ((0, F(2), F(1)), (1, F(3), F(1, 2)), (3, F(5), F(1, 8))):
        c = interpret(curve_vertex_recipe(m, 0))
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
    # At every node the measure is the mean of the children's, the height
    # gamma plus the mean, and the level set at lambda + gamma * x the mean
    # of the children's at lambda.
    seen = set()
    stack = [curve_vertex_recipe(4, 2), curve_vertex_recipe(3, 0)]
    while stack:
        node = stack.pop()
        if isinstance(node, Config) or id(node) in seen:
            continue
        seen.add(id(node))
        outer, left, right = interpret(node), interpret(node.left), interpret(node.right)
        assert outer.measure == (left.measure + right.measure) / 2
        assert outer.height == node.gamma + (left.height + right.height) / 2
        for j in range(-2, 13):
            level = F(j, 2)
            shifted = outer.level_set(level + node.gamma * outer.measure)
            assert shifted == (left.level_set(level) + right.level_set(level)) / 2
        stack += [node.left, node.right]
    # Each recipe has its Base node and two nodes per round, 2m + 1 in all.
    assert len(seen) == 2 * 4 + 1 + 2 * 3 + 1


def test_desugared_moves_match_concatenation():
    base = Base(F(1, 2))
    config = interpret(base)
    assert interpret(Jump(base)) == concat_configs(config, config, F(1))
    # Nodes compare by identity, so the shapes are checked field by field.
    half = Config(DyadicSet.prefix(F(1, 2)), CarlesonSequence.from_mapping({ROOT: F(1)}))
    assert base.left is base.right and base.left == half and base.gamma == 1
    j = Jump(base)
    assert j.left is j.right is base and j.gamma == 1
    h, mix = Halve(base), MixZero(base)
    assert h.left is base and h.right == Config.empty() and h.gamma == 0
    assert mix.left is base and mix.right == Config.full_unweighted() and mix.gamma == 0


def test_recipes_compare_and_hash_by_identity(time_limit):
    # A shared DAG of depth 2m + 1: a structural hash or == would take 2**m steps.
    recipe, other = curve_vertex_recipe(40, 20), curve_vertex_recipe(40, 20)
    with time_limit(1):
        assert hash(recipe) == hash(recipe) and recipe == recipe
        assert recipe != other and len({recipe, other}) == 2


def test_interpret_refuses_unknown_nodes_and_weights():
    config = curve_vertex_config(1, 1)
    assert interpret(config) is config
    for node in ("x", Concat(config, "x", F(0)), Concat(None, config, F(1))):
        with pytest.raises(DomainError, match="unknown recipe node"):
            interpret(node)
    # The root weight is checked when the node is built into a configuration.
    for gamma in (0.5, F(3, 2), F(-1)):
        with pytest.raises(DomainError, match="root weight"):
            interpret(Concat(config, config, gamma))
    # Base checks its measure when it is called, not when it is interpreted.
    for x in (0.5, F(3, 2), F(1, 3)):
        with pytest.raises(DomainError, match="prefix measure"):
            Base(x)


# The root weights the check refuses, each with its message.
ROOT_WEIGHTS_REFUSED = (
    (True, "root weight must be an int or a Fraction, got True"),
    (0.5, "root weight must be an int or a Fraction, got 0.5"),
    (F(3, 2), "root weight must lie in [0, 1], got 3/2"),
    (-1, "root weight must lie in [0, 1], got -1"),
    (2, "root weight must lie in [0, 1], got 2"),
)


def test_root_weight_check_accepts_unit_ints_and_fractions_only():
    config, empty = curve_vertex_config(1, 1), CarlesonSequence.empty()
    for gamma in (0, 1, F(0), F(1, 3), F(1)):
        root = CarlesonSequence.from_mapping({ROOT: F(gamma)})
        assert concat_seqs(empty, empty, gamma) == root
        want = concat_by_rebuilding(config, config, gamma)
        assert interpret(Concat(config, config, gamma)) == want
    for gamma, message in ROOT_WEIGHTS_REFUSED:
        builds = (
            lambda: concat_seqs(empty, empty, gamma),
            lambda: interpret(Concat(config, config, gamma)),
        )
        for build in builds:
            with pytest.raises(DomainError) as refused:
                build()
            assert str(refused.value) == message


def _fields(config):
    return config.subset._keys, config.seq._keys, config.seq._values, config.seq._den


def test_base_matches_public_constructors():
    for j in range(7):
        for p in range(2**j + 1):
            x = F(p, 2**j)
            half = Config(DyadicSet.prefix(x), CarlesonSequence.from_mapping({ROOT: F(1)}))
            base = Base(x)
            assert _fields(base.left) == _fields(half) and base.left == half
            got, want = interpret(base), base_by_constructors(x)
            assert _fields(got) == _fields(want) and got == want and hash(got) == hash(want)


def test_curve_vertex_configs_match_moves_built_by_constructors():
    base = Base(F(1, 2))
    for m in range(7):
        for k in range(m + 1):
            got, want = curve_vertex_config(m, k), curve_vertex_config_by_moves(m, k)
            assert _fields(got) == _fields(want) and got == want
            # The moves' right-hand leaves are shared, and no build changes them.
            assert Halve(base).right == Config.empty()
            assert MixZero(base).right == Config.full_unweighted()
    assert Halve(base).right is Halve(Jump(base)).right
    assert MixZero(base).right is MixZero(Jump(base)).right
    with pytest.raises(dataclasses.FrozenInstanceError):
        Halve(base).right.seq = CarlesonSequence.from_mapping({ROOT: F(1)})


def test_shared_child_is_built_once(monkeypatch):
    # Base is one concatenation and each later round two; a Jump's child is
    # built once, not once per side.
    calls = []

    def counting(first, second, gamma):
        calls.append(gamma)
        return concat_configs(first, second, gamma)

    monkeypatch.setattr(extremal, "concat_configs", counting)
    for m in range(7):
        for k in range(m + 1):
            calls.clear()
            interpret(curve_vertex_recipe(m, k))
            assert len(calls) == 2 * m + 1


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


def test_corollary_target_is_the_curve_vertex_target():
    # The lattice point of (n, N) is vertex n of curve N + n - 3; the
    # target and the configuration check n and N the same way.
    for n in range(4):
        for big_n in range(3, 7):
            assert corollary_target(n, big_n) == curve_vertex_target(big_n + n - 3, n)
    for bad in ((0, 2), (-1, 3), (1, 3.0), (True, 3)):
        for fn in (corollary_target, corollary_config):
            with pytest.raises(DomainError) as exc:
                fn(*bad)
            assert str(exc.value) == str(pytest.raises(DomainError, corollary_bound, *bad).value)


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


def test_tower_config_matches_recipe_chain():
    # Each level is one more unit root weight over the tower halved beside the bare full set.
    full = Config.full_unweighted()
    tower = Concat(full, full, F(1))
    for n in range(9):
        assert tower_config(n) == interpret(tower)
        tower = Concat(tower, full, F(1))


def test_indices_are_ints():
    refused = [
        lambda: tower_config(True),
        lambda: tower_config(2.0),
        lambda: tower_config(-1),
        lambda: curve_vertex_recipe(True, 0),
        lambda: curve_vertex_recipe(1.0, 0),
        lambda: curve_vertex_recipe(2.0, 1),
        lambda: curve_vertex_recipe(2, True),
        lambda: curve_vertex_recipe(1, 2),
    ]
    for call in refused:
        with pytest.raises(DomainError):
            call()
    assert tower_config(1).height == F(3, 2)
    # Jump(MixZero(Base(1))): two copies of the base beside the bare full set.
    j = curve_vertex_recipe(1, 0)
    mix = j.left
    assert j.right is mix and j.gamma == 1 and mix.gamma == 0
    assert mix.right == Config.full_unweighted() and interpret(mix.left) == interpret(Base(F(1)))


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
        padded = concat_configs(interpret(curve_vertex_recipe(m - 1, 0)), pad, F(0))
        config = concat_configs(padded, padded, F(1))
        level = m + 1 + x
        assert config.measure == x
        assert config.height == F(2)
        assert config.level_set(level) == F(1, 2**m) == bellman_value(x, F(2), level)


def test_attainment_report():
    config = curve_vertex_config(1, 1)
    report = attainment_report(config, curve_vertex_target(1, 1))
    assert report["attained"] is True
    assert report["achieved_V"] == F(1, 2)
    assert report["target"]["lambda"] == F(5, 2)
    values = [*report["target"].values()]
    values += [report[key] for key in ("achieved_V", "config_measure", "config_height")]
    assert all(type(value) is F for value in values)


def test_bound_covers_binary_weights_only():
    # Root weight 1/2 over two halves of root weight 1: the operator is 3/2
    # on all of [0, 1), above the bound at (1, 3/2, 3/2).
    half = Config(DyadicSet.full(), CarlesonSequence.from_mapping({ROOT: F(1)}))
    fractional = concat_configs(half, half, F(1, 2))
    assert (fractional.measure, fractional.height) == (F(1), F(3, 2))
    assert carleson_constant(fractional.seq) == F(3, 2)
    assert fractional.level_set(F(3, 2)) == F(1)
    assert bellman_value(F(1), F(3, 2), F(3, 2)) == F(3, 4)
    # With 0/1 weights the largest level set there is the bound, reached at depth 3.
    entries = brute_force_sup(3, [F(3, 2)]).entries
    (got,) = [e for e in entries if (e.x, e.height, e.level) == (F(1), F(3, 2), F(3, 2))]
    assert got.max_v == got.bound == F(3, 4) and got.attained
    target = AttainmentTarget(F(1), F(3, 2), F(3, 2), F(3, 4))
    with pytest.raises(DomainError) as exc:
        attainment_report(fractional, target)
    assert str(exc.value) == (
        "the bound covers weights 0 and 1 only, got 1/2 at DyadicInterval(depth=0, index=0)"
    )
    # The first weight that is not 0 or 1 is named, after unit and zero weights.
    seq = CarlesonSequence(((ROOT, F(1)), (DyadicInterval(1, 1), F(0)),
                            (DyadicInterval(1, 0), F(1, 3)), (DyadicInterval(2, 3), F(2, 3))))
    with pytest.raises(DomainError, match=r"got 1/3 at DyadicInterval\(depth=1, index=0\)$"):
        attainment_report(Config(DyadicSet.full(), seq), target)
    # A 0/1 configuration at the same point is reported, short of the bound.
    report = attainment_report(half, AttainmentTarget(F(1), F(1), F(3, 2), F(3, 4)))
    assert report["achieved_V"] == 0 and report["attained"] is False
