import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import brute_reference, carleson_constant_scan, mask_to_sequence
from sparsebound.candidate import bellman_value, vertex_f
from sparsebound.rational import DomainError
from sparsebound.verify import (
    EXHAUSTIVE_DEPTH_CAP,
    ExhaustiveModeError,
    SampleSpec,
    Violation,
    _sample_fraction,
    brute_force_sup,
    default_level_grid,
    intervals_to_depth,
    iter_binary_carleson,
    replay,
    run_suite,
)

SPEC = SampleSpec(seed=7, count=400)


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(-10, 10, max_denominator=40),
    st.fractions(1, 10, max_denominator=40),
    st.integers(0, 2**32),
)
def test_sample_fraction_draws_as_fraction_bounds(lo, width, seed):
    # The integer bounds draw the same stream as ceil(lo * q) and floor(hi * q).
    hi = lo + width
    got, want = random.Random(seed), random.Random(seed)
    for _ in range(20):
        sample = _sample_fraction(got, lo, hi)
        q = want.randint(1, 32)
        assert sample == F(want.randint(math.ceil(lo * q), math.floor(hi * q)), q)
        assert lo <= sample <= hi


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


def test_run_suite_dispatch():
    spec = SampleSpec(seed=1, count=50)
    assert run_suite("obstacle", spec) == []
    with pytest.raises(DomainError):
        run_suite("bogus", spec)


def test_violations_replay_exactly():
    # Build violations by hand through each check's witness evaluator and
    # confirm that replay reproduces both sides bit for bit.
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
    from sparsebound.verify import _CHECKS

    for name, witness in cases:
        lhs, rhs = _CHECKS[name][0](witness)
        violation = Violation(name, tuple(witness.items()), lhs, rhs)
        assert replay(violation) == (lhs, rhs)
        payload = violation.to_json()
        assert payload["check"] == name
        assert set(payload["witness"]) == set(witness)


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


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_configs_scanned_counts_enumerated_configurations(depth):
    sequences = sum(1 for _ in iter_binary_carleson(depth))
    scanned = brute_force_sup(depth).configs_scanned
    assert scanned == sequences * 2 ** (2**depth)
    if depth == 3:
        assert scanned == 3_485_440


README_LAMBDAS = [F(1, 2), F(1), F(3, 2), F(2)]


def test_brute_depth_4_exhaustive_dominated_and_sampled_below():
    report = brute_force_sup(4, README_LAMBDAS)
    assert EXHAUSTIVE_DEPTH_CAP == 4
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
    with pytest.raises(ExhaustiveModeError):
        brute_force_sup(EXHAUSTIVE_DEPTH_CAP + 1)
    with pytest.raises(DomainError):
        brute_force_sup(0)


def test_inputs_checked_at_the_boundary():
    # Inexact levels, and counts or samples that would check nothing, are refused.
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
    ]
    for call in refused:
        with pytest.raises(DomainError):
            call()
    spec = SampleSpec(0, 1, (1, F(1, 2)))
    assert spec.lambda_grid == (F(1), F(1, 2)) and type(spec.lambda_grid[0]) is F
    assert brute_force_sup(2, [1]) == brute_force_sup(2, [F(1)])


def test_brute_sampled_mode():
    report = brute_force_sup(4, sample=150, seed=3)
    assert not report.exhaustive
    assert report.domination
    assert report.configs_scanned <= 150


def test_report_serialization():
    report = brute_force_sup(1)
    data = report.to_json()
    assert data["depth"] == 1 and data["domination"] is True
    rows = report.to_csv_rows()
    assert rows[0] == ["x", "A", "lambda", "maxV", "B", "attained"]
    assert len(rows) == len(report.entries) + 1
