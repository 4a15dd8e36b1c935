import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import (
    CHECKS_FRACTION,
    brute_from_tables,
    brute_reference,
    brute_report_dict,
    brute_sampled_reference,
    carleson_constant_scan,
    concat_identity,
    dynamics_instance,
    mask_to_sequence,
    run_suite_fraction,
    sup_tables_ordered,
)
from sparsebound import verify
from sparsebound.candidate import bellman_value, vertex_f
from sparsebound.cli import main
from sparsebound.dyadic import CarlesonSequence
from sparsebound.rational import DomainError
from sparsebound.verify import (
    EXHAUSTIVE_DEPTH_CAP,
    SAMPLED_DEPTH_CAP,
    SUITE_NAMES,
    SampleSpec,
    Violation,
    _below,
    _max,
    _ones,
    _sample_rational,
    _suffix_max,
    _sup_tables,
    brute_force_sup,
    default_level_grid,
    intervals_to_depth,
    iter_binary_carleson,
    replay,
    run_suite,
)

SPEC = SampleSpec(seed=7, count=400)
README_LAMBDAS = [F(1, 2), F(1), F(3, 2), F(2)]


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(-10, 10, max_denominator=40),
    st.fractions(1, 10, max_denominator=40),
    st.integers(0, 2**32),
)
def test_sample_fraction_draws_as_fraction_bounds(lo, width, seed):
    # The integer bounds, given as pairs and not reduced, draw the same
    # stream as ceil(lo * q) and floor(hi * q).
    hi = lo + width
    got, want = random.Random(seed), random.Random(seed)
    for k in range(1, 21):
        unreduced_lo = (lo.numerator * k, lo.denominator * k)
        sample = _sample_rational(got, unreduced_lo, (hi.numerator, hi.denominator))
        q = want.randint(1, 32)
        assert sample == (want.randint(math.ceil(lo * q), math.floor(hi * q)), q)
        assert lo <= F(*sample) <= hi


BELOW_SIZES = [1, 2, 3, 4, 29, 32, 33] + [2**k + d for k in range(1, 71) for d in (-1, 1)]


def test_below_draws_as_randint():
    # The same stream as randint(0, n - 1) on this interpreter, including the
    # redraws above n, and the generator left in the same state.
    for seed in range(20):
        got, want = random.Random(seed), random.Random(seed)
        for n in BELOW_SIZES:
            draws = [_below(got.getrandbits, n) for _ in range(5)]
            assert draws == [want.randint(0, n - 1) for _ in range(5)], (seed, n)
        assert got.getstate() == want.getstate()


def test_below_refuses_an_empty_range():
    # getrandbits(0) is 0, and every draw is at least a negative n: without
    # the guard the rejection loop would never end.
    calls = []

    def getrandbits(k):
        calls.append(k)
        if len(calls) > 100:
            raise AssertionError("still drawing")
        return 0

    for n in (0, -1, -7):
        with pytest.raises(DomainError):
            _below(getrandbits, n)
    assert calls == []


def test_obstacle_clean():
    assert run_suite("obstacle", SPEC) == []


def test_midpoint_concavity_clean():
    assert run_suite("concavity", SampleSpec(seed=7, count=200)) == []


def test_jump_clean():
    assert run_suite("jump", SPEC) == []


def test_fjg_clean():
    assert run_suite("fjg", SPEC) == []


def test_gconsist_clean():
    assert run_suite("gconsist", SPEC) == []


def test_slopes_clean():
    spec = SampleSpec(seed=7, count=1, lambda_grid=default_level_grid(20))
    assert run_suite("slopes", spec) == []


def test_dynamics_clean():
    assert run_suite("dynamics", SampleSpec(seed=7, count=100)) == []


def test_dynamics_draws_match_constructor_oracle():
    # The suite's draws, built straight into node keys, against the same
    # draws made through the public constructors: equal configurations and
    # levels pin the draw stream, which a clean report's bytes do not show.
    for seed in range(21):
        for index in range(200):
            c1, c2, level = verify._dynamics_instance(seed, index)
            assert (c1, c2, F(*level)) == dynamics_instance(seed, index)


def test_run_suite_dispatch():
    spec = SampleSpec(seed=1, count=50)
    assert run_suite("obstacle", spec) == []
    with pytest.raises(DomainError):
        run_suite("bogus", spec)


def test_violations_replay_exactly():
    # Build violations by hand through each check's Fraction evaluator, the
    # oracle, and confirm that replay reproduces both sides bit for bit.
    cases = [
        ("obstacle", {"x": F(1, 3), "A": F(1, 2), "lambda": F(-2)}),
        ("concavity", {"x1": F(1, 4), "A1": F(1), "x2": F(3, 4), "A2": F(1, 2), "lambda": F(2)}),
        ("jump", {"x": F(1, 2), "A": F(1), "lambda": F(2)}),
        ("fjg", {"x": F(1, 2), "lambda": F(2)}),
        ("gconsist", {"x": F(1, 10), "lambda": F(1)}),
        ("slopes:monotone", {"lambda": F(5, 2), "i": F(0), "x_min": F(1, 64)}),
        ("slopes:mid-vs-low", {"window": F(2), "m": F(1), "lambda": F(11, 4)}),
        ("slopes:high-vs-mid", {"window": F(3), "m": F(2), "lambda": F(15, 4)}),
        ("slopes:form", {"window": F(2), "m": F(1), "form": F(1), "lambda": F(21, 8)}),
        ("dynamics", {"seed": F(7), "index": F(3), "gamma": F(0), "lambda": F(1)}),
    ]
    for name, witness in cases:
        lhs, rhs = CHECKS_FRACTION[name][0](witness)
        violation = Violation(name, tuple(witness.items()), lhs, rhs)
        replayed = replay(violation)
        assert replayed == (lhs, rhs)
        assert all(type(side) is F for side in replayed)


def test_replay_refuses_bad_index_witnesses():
    # Index witnesses that are not integers or lie out of range, and slope
    # windows outside the forms' domain.
    monotone = {"x_min": F(1, 64), "lambda": F(5, 2)}
    form = {"window": F(2), "m": F(1), "form": F(1), "lambda": F(21, 8)}
    pair = {"window": F(3), "m": F(2), "lambda": F(15, 4)}
    dynamics = {"seed": F(3), "index": F(4), "gamma": F(1, 2), "lambda": F(1)}
    cases = [
        ("slopes:monotone", {**monotone, "i": i}) for i in (F(-1), F(999), F(1, 2))
    ] + [
        ("slopes:form", {**form, **bad})
        for bad in (
            {"form": F(5)},
            {"form": F(-1)},
            {"form": F(1, 2)},
            {"window": F(1)},
            {"window": F(5, 2)},
            {"m": F(0)},
            {"m": F(3, 2)},
            {"window": F(5), "m": F(3)},
        )
    ] + [
        ("slopes:mid-vs-low", {**pair, **bad})
        for bad in ({"window": F(0)}, {"m": F(1)}, {"m": F(-2)}, {"window": F(7, 2)})
    ] + [
        ("dynamics", {**dynamics, **bad})
        for bad in (
            {"seed": F(1, 2)},
            {"index": F(-1)},
            {"index": F(9, 2)},
            {"gamma": F(7)},
            {"gamma": F(-1, 2)},
        )
    ]
    for name, witness in cases:
        with pytest.raises(DomainError):
            replay(Violation(name, tuple(witness.items()), F(0), F(0)))
    # The message names a range only where the witness has one.
    with pytest.raises(DomainError, match=r"^seed must be an integer, got 1/2$"):
        replay(Violation("dynamics", tuple({**dynamics, "seed": F(1, 2)}.items()), F(0), F(0)))
    with pytest.raises(DomainError, match=r"^i must be an integer in \[0, \d+\), got 999$"):
        replay(Violation("slopes:monotone", tuple({**monotone, "i": F(999)}.items()), F(0), F(0)))


def test_dynamics_replay_reads_its_witness():
    # The configurations come from the seed and index; the root weight and
    # level are the witness's, whatever was drawn.
    c1, c2, _ = verify._dynamics_instance(3, 4)
    results = set()
    for gamma in (F(0), F(1, 4), F(1, 2), F(1)):
        for level in (F(-1), F(1, 2), F(3, 4), F(3, 2), F(99)):
            witness = (("seed", F(3)), ("index", F(4)), ("gamma", gamma), ("lambda", level))
            sides = replay(Violation("dynamics", witness, F(0), F(0)))
            assert sides == concat_identity(c1, c2, gamma, level)
            results.add(sides)
    assert len(results) > 2


def test_integer_dynamics_sides_match_concat_identity():
    # The cell counts of the three piece walks against the Fraction level
    # sets, at the drawn root weights and levels and at others.
    rng = random.Random(23)
    for n in range(2000):
        seed, index = rng.randint(0, 50), rng.randint(0, 200)
        c1, c2, level = verify._dynamics_instance(seed, index)
        if n % 2:
            gamma, level = F(rng.randint(0, 8), 8), (rng.randint(-16, 64), 16)
        else:
            gamma = (F(0), F(1, 2), F(1))[index % 3]
        lhs, rhs = verify._eval_dynamics(
            (seed, 1), (index, 1), (gamma.numerator, gamma.denominator), level
        )
        want = concat_identity(c1, c2, gamma, F(*level))
        assert (F(*lhs), F(*rhs)) == want
        assert want[0] == want[1]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_clean_suite_builds_no_fraction(monkeypatch, name):
    # Both the constructor and, where the interpreter has it, the builder
    # that Fraction arithmetic uses without the constructor are counted.
    for value in vars(verify).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    built = []
    new = F.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counted_new))
    if "_from_coprime_ints" in vars(F):
        coprime = F._from_coprime_ints

        def counted_coprime(cls, *args):
            built.append(args)
            return coprime(*args)

        monkeypatch.setattr(F, "_from_coprime_ints", classmethod(counted_coprime))
    assert F(1, 3) + F(1, 6) == F(1, 2) and built
    built.clear()
    assert run_suite(name, SampleSpec(seed=3, count=40)) == []
    assert built == []


# Seeds and counts, and a user grid with levels off the default grids, on
# the level 1 where the bound's regime changes, and far above them.
DIFFERENTIAL_SPECS = [
    SampleSpec(seed=0, count=1),
    SampleSpec(seed=7, count=60),
    SampleSpec(seed=123456789, count=25),
    SampleSpec(seed=5, count=20, lambda_grid=(F(1, 3), F(1), F(2), F(7, 3), F(11), F(39, 4))),
]


def _violations_matching_oracle(spec):
    """Every suite's violations, checked against the oracle's and replayed."""
    found = {}
    for name in SUITE_NAMES:
        got = found[name] = run_suite(name, spec)
        assert got == run_suite_fraction(name, spec), name
        for v in got:
            assert all(type(value) is F for _, value in v.witness)
            assert type(v.lhs) is F and type(v.rhs) is F
            assert replay(v) == (v.lhs, v.rhs)
    return found


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS)
def test_suites_match_fraction_oracle(spec):
    assert not any(_violations_matching_oracle(spec).values())


def test_concavity_grid_at_nonpositive_levels_matches_oracle():
    # Levels at and below zero are obstacle points of the bound.
    spec = SampleSpec(seed=2, count=30, lambda_grid=(F(0), F(-3, 2)))
    assert run_suite("concavity", spec) == run_suite_fraction("concavity", spec) == []


def test_slopes_refuse_a_nonpositive_grid_level():
    with pytest.raises(DomainError):
        run_suite("slopes", SampleSpec(seed=1, count=1, lambda_grid=(F(1), F(0))))


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS)
def test_suites_match_fraction_oracle_under_nonconcave_bound(monkeypatch, spec):
    # x * x - a, in integers on the integer side and in Fractions on the
    # oracle's: the bound's suites report violations, which must agree in
    # check, witness order and values, and both sides.
    def square_minus_height(x, a, level):
        (xn, xd), (an, ad) = x, a
        return xn * xn * ad - an * xd * xd, xd * xd * ad

    monkeypatch.setattr(verify, "_bound", square_minus_height)
    monkeypatch.setattr(reference, "bellman_value_fraction", lambda x, a, level: x * x - a)
    found = _violations_matching_oracle(spec)
    if spec.count > 1:
        assert all(found[name] for name in ("obstacle", "concavity", "jump", "gconsist"))


def test_jump_example_holds_with_equality():
    lhs, rhs = (
        bellman_value(F(1, 2), F(2), F(5, 2)),
        bellman_value(F(1, 2), F(1), F(2)),
    )
    assert lhs == rhs == F(1, 2)


def test_concavity_example_boundary_average():
    mid = bellman_value(F(1), F(1), F(2))
    ends = (bellman_value(F(1), F(0), F(2)) + bellman_value(F(1), F(2), F(2))) / 2
    assert mid == ends == F(1, 2)


def test_enumeration_pruning_is_exact():
    for depth in (1, 2):
        # The enumeration is exactly the Carleson-constant filter, taken
        # here by scanning every base interval.
        n = len(intervals_to_depth(depth))
        expected = {
            mask
            for mask in range(1 << n)
            if carleson_constant_scan(mask_to_sequence(depth, mask)) <= 2
        }
        assert set(iter_binary_carleson(depth)) == expected


def test_brute_counts():
    assert sum(1 for _ in iter_binary_carleson(1)) == 8
    assert sum(1 for _ in iter_binary_carleson(2)) == 103


def test_brute_depth1_attains_corner():
    report = brute_force_sup(1, lambda_values=[F(1, 2), F(1), F(3, 2), F(2)])
    assert report.domination
    entries = {(e.x, e.height, e.level): e for e in report.entries}
    entry = entries[F(1), F(2), F(2)]
    assert entry.attained and entry.max_v == F(1)
    for level in (F(1, 2), F(1), F(3, 2), F(2)):
        assert entries[F(1), F(2), level].max_v == F(1) == bellman_value(F(1), F(2), level)


def test_brute_matches_reference():
    for depth in (1, 2):
        fast = brute_force_sup(depth, lambda_values=[F(1)])
        ref = brute_reference(depth, lambda_values=[F(1)])
        fast_table = {(e.x, e.height, e.level): e.max_v for e in fast.entries}
        ref_table = {(e.x, e.height, e.level): e.max_v for e in ref.entries}
        assert fast_table == ref_table
        assert fast.configs_scanned == ref.configs_scanned
        assert fast.domination and ref.domination


# Query levels at or below zero, on and off the depth-2 grid, and above the
# top value a configuration reaches at depth 1 or 2 (2 and 3).
LEVEL_LISTS = st.lists(
    st.one_of(
        st.fractions(min_value=-5, max_value=0, max_denominator=8),
        st.fractions(min_value=0, max_value=3, max_denominator=12),
        st.fractions(min_value=3, max_value=50, max_denominator=4),
    ),
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(levels=LEVEL_LISTS)
def test_bellman_engine_matches_reference_depth_1(levels):
    assert brute_force_sup(1, levels) == brute_reference(1, levels)


@settings(max_examples=4, deadline=None)
@given(levels=LEVEL_LISTS)
def test_bellman_engine_matches_reference_depth_2(levels):
    assert brute_force_sup(2, levels) == brute_reference(2, levels)


def _packed(fields):
    """The packed row of a list of 16-bit fields, lowest level first."""
    return sum(field << 16 * t for t, field in enumerate(fields))


def _packed_hits(hit):
    """A list ``E`` row, negative where no configuration takes the level, packed."""
    return _packed([verify._TAKEN + count if count >= 0 else 0 for count in hit])


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_packed_tables_match_ordered_recursion(depth):
    # Both recursions run over ordered pairs of halves.  The library packs
    # each key's E into one int and derives V as E's suffix maximum; the
    # reference keeps lists, merges each pair as it comes and carries V
    # through its own recursion.
    tables, sequences = _sup_tables(depth)
    ordered, ordered_sequences = sup_tables_ordered(depth)
    assert sequences == ordered_sequences
    assert tables == {key: _packed_hits(hit) for key, (_, hit) in ordered.items()}
    assert {key: _suffix_max(row) for key, row in tables.items()} == {
        key: _packed(v) for key, (v, _) in ordered.items()
    }


def test_suffix_max():
    missing = reference.MISSING
    assert _suffix_max(_packed_hits([4, missing, 3, missing, 1, missing])) == _packed(
        [4, 3, 3, 1, 1, 0]
    )
    assert _suffix_max(_packed_hits([missing, missing])) == _packed([0, 0])
    assert _suffix_max(_packed_hits([])) == _packed([])


# Fields at both ends of the "not taken" and "taken" ranges, and the largest
# a field may hold.
EDGE_FIELDS = st.sampled_from([0, 1, 2**14 - 1, 2**14, 2**15 - 1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(EDGE_FIELDS, EDGE_FIELDS), min_size=1, max_size=9))
def test_packed_max_matches_elementwise_max(pairs):
    # The high mask is one field wider than the rows, as it may be.
    a, b = map(list, zip(*pairs))
    high = _ones(len(pairs) + 1) << 15
    assert _max(_packed(a), _packed(b), high) == _packed(map(max, a, b))
    assert _max(_packed(b), _packed(a), high) == _packed(map(max, a, b))


def _edge_levels(depth):
    """Levels below zero, at zero, repeated, off the grid, on it, at the top and above.

    1/3 and 1/3 + 2**-(depth + 3) lie in one gap of the grid: both round up
    to the same grid level, and each must keep its own entry.
    """
    top = depth + 1
    return [F(-1), F(-1, 3), F(0), F(1, 3), F(1, 3), F(1, 3) + F(1, 2 ** (depth + 3)), F(7, 5),
            F(1, 2), F(3, 2), F(3, 2), F(top), F(top) + F(1, 2 ** (depth + 1)), F(40)]


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_exhaustive_report_matches_fraction_assembly(depth):
    for levels in ([], _edge_levels(depth), README_LAMBDAS):
        assert brute_force_sup(depth, levels) == brute_from_tables(depth, levels)


def half(x, a, levels):
    """A row of the kernel with the bound 1/2 at every level, in a region no point has."""
    return [(None, None, False, 1, 2) for _ in levels]


def test_exhaustive_report_compares_with_the_bound(monkeypatch):
    # Under a bound of 1/2 some entries are beaten and some attained; both
    # assemblies read the patched row, the one entry the report reads.
    monkeypatch.setattr(verify, "_bound_row", half)
    report = brute_force_sup(2, [F(1)])
    assert not report.domination
    assert {e.attained for e in report.entries} == {True, False}
    assert report == brute_from_tables(2, [F(1)])


@settings(max_examples=15, deadline=None)
@given(depth=st.integers(1, 3), levels=LEVEL_LISTS)
def test_exhaustive_report_matches_fraction_assembly_drawn(depth, levels):
    levels = levels + levels[:1]  # a repeated level, when there is one
    assert brute_force_sup(depth, levels) == brute_from_tables(depth, levels)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_configs_scanned_counts_enumerated_configurations(depth):
    sequences = sum(1 for _ in iter_binary_carleson(depth))
    scanned = brute_force_sup(depth).configs_scanned
    assert scanned == sequences * 2 ** (2**depth)
    if depth == 3:
        assert scanned == 3_485_440


def test_brute_depth_4_exhaustive_dominated_and_sampled_below():
    report = brute_force_sup(4, README_LAMBDAS)
    assert EXHAUSTIVE_DEPTH_CAP == 5
    assert report.exhaustive and report.domination
    table = {(e.x, e.height, e.level): e for e in report.entries}
    # The extremizer of F curve m has weights down to depth m + 1, so at
    # depth 4 every vertex of curves 0 to 3 is attained.
    for m in range(4):
        for k in range(m + 1):
            point = vertex_f(k, m)
            assert table[point.x, F(2), point.y].attained, (k, m)
    # A sample draws from the same configurations, so each of its maxima,
    # at a value some configuration takes or at a query level, is at most
    # the exhaustive one at its key.
    sampled = brute_force_sup(4, README_LAMBDAS, sample=300, seed=9)
    assert not sampled.exhaustive and sampled.entries
    for e in sampled.entries:
        assert e.max_v <= table[e.x, e.height, e.level].max_v, e


def test_brute_monotone_in_depth():
    shallow = brute_force_sup(1)
    deep = brute_force_sup(2)
    deep_table = {(e.x, e.height, e.level): e.max_v for e in deep.entries}
    for e in shallow.entries:
        assert deep_table[(e.x, e.height, e.level)] >= e.max_v


def test_brute_mode_errors():
    with pytest.raises(DomainError, match="exhaustive mode is capped at depth 5"):
        brute_force_sup(EXHAUSTIVE_DEPTH_CAP + 1)
    with pytest.raises(DomainError):
        brute_force_sup(0)


def test_default_level_grid_checks_its_size():
    # An empty grid would read as "use the default grid" in SampleSpec.
    assert default_level_grid(1) == (F(10),)
    for count in (True, 2.5, 0):
        with pytest.raises(DomainError):
            default_level_grid(count)


def test_inputs_checked_at_the_boundary():
    # Inexact levels and seeds, negative seeds, and counts or samples that
    # would check nothing, are refused.
    refused = [
        lambda: brute_force_sup(2, [0.1]),
        lambda: brute_force_sup(2, [0.1], sample=5),
        lambda: brute_force_sup(2, [True]),
        lambda: brute_force_sup(True),
        lambda: brute_force_sup(3, sample=0),
        lambda: brute_force_sup(5, sample=-4),
        lambda: brute_force_sup(2, sample=1.0),
        lambda: SampleSpec(0, 2, (0.1,)),
        lambda: SampleSpec(0, 2, (F(1), False)),
        lambda: SampleSpec(0, 0),
        lambda: SampleSpec(0, -5),
        lambda: SampleSpec(0, True),
        lambda: SampleSpec(1.5, 10),
        lambda: SampleSpec(True, 10),
        lambda: brute_force_sup(2, sample=5, seed=0.5),
        lambda: brute_force_sup(2, sample=5, seed=True),
        # random.Random(-s) draws what Random(s) does: a negative seed would
        # repeat its positive twin's draws.
        lambda: SampleSpec(-5, 5),
        lambda: brute_force_sup(4, sample=50, seed=-3),
        lambda: replay(Violation("jump", (("x", 0.5), ("A", F(1)), ("lambda", F(2))), F(0), F(0))),
        lambda: replay(Violation("nope", (("x", F(1)),), F(0), F(0))),
        lambda: replay(Violation("jump", (("x", F(1)), ("lambda", F(2))), F(0), F(0))),
    ]
    for call in refused:
        with pytest.raises(DomainError):
            call()
    with pytest.raises(DomainError, match="unknown check 'nope'"):
        refused[-2]()
    with pytest.raises(DomainError, match="jump witness needs A$"):
        refused[-1]()
    spec = SampleSpec(0, 1, (1, F(1, 2)))
    assert spec.lambda_grid == (F(1), F(1, 2)) and type(spec.lambda_grid[0]) is F
    assert brute_force_sup(2, [1]) == brute_force_sup(2, [F(1)])


def test_brute_sampled_mode():
    report = brute_force_sup(4, sample=150, seed=3)
    assert not report.exhaustive
    assert report.domination
    assert report.configs_scanned <= 150


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_sampled_report_matches_fraction_scan(depth, seed):
    # The same draws, folded into the integer E table and read by the
    # library's report, and simulated one by one into a Fraction table.
    sample = 40 if depth > 4 else 120
    for levels in ([], _edge_levels(depth), README_LAMBDAS):
        fast = brute_force_sup(depth, levels, sample=sample, seed=seed)
        assert fast == brute_sampled_reference(depth, levels, sample, seed)
    assert fast.entries and not fast.exhaustive


def test_sampled_report_compares_with_the_bound(monkeypatch):
    monkeypatch.setattr(verify, "_bound_row", half)
    report = brute_force_sup(3, [F(1)], sample=60, seed=4)
    assert not report.domination
    assert {e.attained for e in report.entries} == {True, False}
    assert report == brute_sampled_reference(3, [F(1)], 60, 4)


def test_trusted_builds_are_canonical():
    # verify builds its draws without the constructor, so each must store its
    # weights over the least denominator, as the constructor does: equality
    # and hashing read those fields.
    rng = random.Random(11)
    seqs = [verify._random_config(rng).seq for _ in range(300)]
    seqs += [config.seq for config in verify._sampled_configs(5, 50, 1)]
    assert {seq._den for seq in seqs} == {1, 2, 4}
    for seq in seqs:
        rebuilt = CarlesonSequence(seq.weights)
        assert seq == rebuilt and hash(seq) == hash(rebuilt)


def test_sampled_depth_cap_checked_before_drawing(monkeypatch):
    def refuse(*args):
        raise AssertionError("drew configurations beyond the cap")

    monkeypatch.setattr(verify, "_sampled_configs", refuse)
    with pytest.raises(DomainError, match="sampled mode is capped at depth 8"):
        brute_force_sup(SAMPLED_DEPTH_CAP + 1, sample=5)


def test_report_serialization(capsys):
    report = brute_force_sup(1)
    assert main(["brute", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["depth"] == 1 and data["domination"] is True
    assert main(["brute", "1", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "x,A,lambda,maxV,B,attained"
    assert len(rows) == len(report.entries) + 1


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_kernel_bounds_match_bellman_value(depth):
    # The report's kernel bounds against the public bound, at every hit
    # level and at query levels negative, zero, repeated, off the grid and
    # above the top value.
    for levels in ([], _edge_levels(depth), README_LAMBDAS):
        report = brute_force_sup(depth, levels)
        for e in report.entries:
            assert e.bound == bellman_value(e.x, e.height, e.level), e


def test_sampled_kernel_bounds_match_bellman_value():
    report = brute_force_sup(5, _edge_levels(5), sample=60, seed=2)
    assert report.entries
    for e in report.entries:
        assert e.bound == bellman_value(e.x, e.height, e.level), e


def test_one_bound_object_per_distinct_bound():
    entries = brute_force_sup(3, README_LAMBDAS).entries
    assert len({id(e.bound) for e in entries}) == len({e.bound for e in entries})


def _json_reports():
    yield brute_force_sup(1)
    yield brute_force_sup(3, README_LAMBDAS)
    # Built outside _table_report: its equal bounds are distinct objects.
    yield brute_from_tables(3, README_LAMBDAS)
    yield brute_force_sup(3, _edge_levels(3))
    yield brute_force_sup(5, _edge_levels(5), sample=60, seed=2)
    yield verify.BruteForceReport(
        depth=2, exhaustive=True, configs_scanned=0, entries=(), domination=True
    )


def _reference_csv(report):
    data = brute_report_dict(report)
    keys = ("x", "A", "lambda", "maxV", "B")
    rows = [[*(e[k] for k in keys), "1" if e["attained"] else "0"] for e in data["entries"]]
    return "\n".join(",".join(row) for row in [[*keys, "attained"], *rows]) + "\n"


def test_report_json_text_is_json_dumps_of_the_reference_dict(monkeypatch, capsys):
    # Each report goes through the command's writers in place of a fresh brute force.
    for report in _json_reports():
        monkeypatch.setattr(verify, "brute_force_sup", lambda *args, report=report, **kw: report)
        status = 0 if report.domination else 1
        assert main(["brute", "1"]) == status
        assert capsys.readouterr().out == json.dumps(brute_report_dict(report), indent=2) + "\n"
        assert main(["brute", "1", "--format", "csv"]) == status
        assert capsys.readouterr().out == _reference_csv(report)
