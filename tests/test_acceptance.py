"""Acceptance suite: one criterion per test, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (timings included).  Every comparison is exact rational equality;
there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction as F

from sparsebound.candidate import (
    RegionKind,
    bellman_value,
    classify_region,
    corollary_bound,
    f_extended,
    f_value,
    g_value,
    vertex_f,
)
from sparsebound.extremal import corollary_config, curve_vertex_config, tower_config
from sparsebound.verify import (
    SLOPES_MAX_INDEX,
    SLOPES_X_MIN,
    SampleSpec,
    brute_force_sup,
    default_level_grid,
    run_suite,
)


def _report(n, dt, detail):
    print(f"PASS criterion {n}: {detail} ({dt:.2f}s)")


def test_criterion_1_pointwise_values():
    start = time.time()
    for k in range(9):
        assert f_value(F(1, 2**k), 3 - F(1, 2**k)) == F(1, 2**k)
    for m in range(9):
        for level in (F(m) + F(3, 2), F(m + 2)):
            if level > 0:
                assert f_value(F(1), level) == F(1, 2**m)
    rng = random.Random(101)
    for _ in range(50):
        level = F(rng.randint(1, 32), 32)
        a = 1 + F(rng.randint(0, 32), 32)
        x_lo = level * (3 - a) / 2
        x = x_lo + (1 - x_lo) * F(rng.randint(0, 16), 16)
        assert classify_region(x, a, level).kind is RegionKind.FULL
        assert bellman_value(x, a, level) == F(1)
    for _ in range(50):
        level = F(rng.randint(1, 32), 32)
        a = F(rng.randint(0, 32), 32)
        x_lo = level * a
        x = x_lo + (1 - x_lo) * F(rng.randint(1, 16), 16)
        assert bellman_value(x, a, level) == a
    _report(1, time.time() - start, "curve values, plateaus, and flat regions exact")


def test_criterion_2_corollary_sharpness():
    start = time.time()
    checked = 0
    for n in range(5):
        for big_n in range(3, 9):
            bound = corollary_bound(n, big_n)
            level = big_n - F(1, 2**n)
            assert bound == bellman_value(F(1, 2**n), F(2), level)
            assert corollary_config(n, big_n).level_set(level) == bound
            checked += 1
    _report(2, time.time() - start, f"lattice bound attained at {checked} points")


def test_criterion_3_extremizer_attainment():
    start = time.time()
    for m in range(9):
        for k in range(m + 1):
            config = curve_vertex_config(m, k)
            point = vertex_f(k, m)
            value = config.level_set(point.y)
            assert config.measure == point.x
            assert config.height == F(2)
            assert value == F(1, 2**m)
            assert value == bellman_value(point.x, F(2), point.y)
    _report(3, time.time() - start, "all 45 curve-vertex configurations attain the bound")


def test_criterion_4_main_inequality():
    start = time.time()
    grid = (F(1, 4), F(1, 2), F(1), F(3, 2), F(5, 2), F(7, 2), F(9, 2))
    spec = SampleSpec(seed=404, count=10_000, lambda_grid=grid)
    assert run_suite("concavity", spec) == []
    assert run_suite("jump", SampleSpec(seed=405, count=10_000)) == []
    _report(4, time.time() - start, "70k concavity and 10k jump samples, zero violations")


def test_criterion_5_profile_jump_and_consistency():
    start = time.time()
    assert run_suite("fjg", SampleSpec(seed=505, count=10_000)) == []
    rng = random.Random(506)
    for _ in range(10_000):
        x = F(rng.randint(0, 64), 64)
        level = 1 + F(rng.randint(1, 160), 32)
        assert g_value(x, level) == f_extended(2 * x, level) / 2
    _report(5, time.time() - start, "profile jump domination and height-1 identity exact")


def test_criterion_6_profile_concavity():
    start = time.time()
    assert (SLOPES_X_MIN, SLOPES_MAX_INDEX) == (F(1, 4096), 10)
    spec = SampleSpec(seed=0, count=1, lambda_grid=default_level_grid(50))
    assert run_suite("slopes", spec) == []
    _report(6, time.time() - start, "slope monotonicity on 50 levels plus closed-form certificates")


def test_criterion_7_brute_force_depth_3():
    start = time.time()
    queries = [F(1, 2), F(1), F(3, 2), F(2)]
    report = brute_force_sup(3, lambda_values=queries)
    assert report.exhaustive
    assert report.domination
    targets = [(F(1), F(2), F(2)), (F(1, 2), F(2), F(5, 2)), (F(1), F(1), F(1))]
    targets += [(F(1), F(2), q) for q in queries]
    entries = {(e.x, e.height, e.level): e for e in report.entries}
    for target in targets:
        assert target in entries, target
        assert entries[target].attained, target
    _report(
        7,
        time.time() - start,
        f"{report.configs_scanned} configurations dominated, corners attained",
    )


def test_criterion_8_dynamics_identity():
    start = time.time()
    assert run_suite("dynamics", SampleSpec(seed=808, count=1000)) == []
    _report(8, time.time() - start, "1000 concatenation triples satisfy the identity exactly")


def test_criterion_9_tower_bound():
    start = time.time()
    for n in range(11):
        config = tower_config(n)
        for lam in range(1, n + 2):
            value = config.level_set(F(lam))
            assert value == F(2) ** (1 - lam)
            assert value <= F(2) ** (2 - lam)
    _report(9, time.time() - start, "tower level sets equal 2**(1-level) within the generic bound")
