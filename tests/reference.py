"""Slow, independent forms of library computations, for differential tests.

Each one computes what a fast path of the package computes, by a more
direct route: the a=2 profile by node interpolation at small levels, the
level curves' indices by scanning their segments and the strips by
scanning the curves, the operator on the uniform cells of one depth, the
Carleson constant by scanning every base interval, and the brute-force
table by simulating every configuration one by one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from sparsebound.candidate import Family, origin_parameter, vertex_f, vertex_g
from sparsebound.dyadic import CarlesonSequence, Config, DyadicSet
from sparsebound.geometry import PiecewiseLinearFn, lerp
from sparsebound.rational import DomainError
from sparsebound.verify import (
    BruteForceReport,
    _report,
    _scan,
    intervals_to_depth,
    iter_binary_carleson,
)


def f_value_nodes(x: Fraction, level: Fraction) -> Fraction:
    """Independent form of ``f_value`` for levels in (0, 1].

    For small levels every curve is still in its origin segment, so the
    profile is the interpolation through the nodes
    (level / (3*2**k - 1), 2**-k), constant 1 to the right of the k = 0 node.
    """
    if not 0 <= x <= 1:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if not 0 < level <= 1:
        raise DomainError(f"node form only valid for levels in (0, 1], got {level}")
    if x == 0:
        return Fraction(0)

    def node(k: int) -> Fraction:
        return level / (3 * 2**k - 1)

    if x >= node(0):
        return Fraction(1)
    k = 1
    while x < node(k):
        k += 1
    lo, hi = Fraction(1, 2**k), Fraction(1, 2 ** (k - 1))
    return lo + (hi - lo) * (x - node(k)) / (node(k - 1) - node(k))


def _vertex(family: Family, k: int, m: int):
    return vertex_f(k, m) if family is Family.F else vertex_g(k, m)


def _segment_denominator(family: Family, k: int) -> int:
    # Reciprocal slope of the segment ending at vertex k-1.
    return 2**k - 1 if family is Family.F else 2**k - 2


def curve_top(family: Family, m: int) -> int:
    return m + 2 if family is Family.F else m + 1


def curve_height_scan(family: Family, m: int, x: Fraction) -> Fraction:
    """``curve_height`` with x's segment found by halving 1 until it drops below x."""
    if x == 0:
        return Fraction(0)
    if x <= Fraction(1, 2**m):
        return x / origin_parameter(family, m)
    k = 1
    while x <= Fraction(1, 2**k):
        k += 1
    # Now 2**-k < x <= 2**(1-k) with 1 <= k <= m.
    if family is Family.G and k == 1:
        return Fraction(m + 1)  # G curves are flat at level m+1 on [1/2, 1]
    return x * _segment_denominator(family, k) + (m - k + 2)


def curve_x_scan(family: Family, m: int, level: Fraction) -> Fraction:
    """``curve_x`` with the segment found by walking the vertices k = m, m-1, ... upward."""
    if level <= _vertex(family, m, m).y:
        return level * origin_parameter(family, m)
    k_min = 2 if family is Family.G else 1
    for k in range(m, k_min - 1, -1):
        if level <= _vertex(family, k - 1, m).y:
            return (level - (m - k + 2)) / _segment_denominator(family, k)
    raise AssertionError("unreachable: segment search exhausted")


def strip_scan(family: Family, x: Fraction, level: Fraction) -> tuple[int, bool]:
    """``candidate._strip`` by trying curves upward from the first whose top reaches the level."""
    m = max(0, math.ceil(level) - curve_top(family, 0))
    while level > curve_height_scan(family, m, x):
        m += 1
    return m, m == 0 or level > curve_top(family, m - 1)


def profile_scan(family: Family, x: Fraction, level: Fraction) -> Fraction:
    """``f_value`` (F) or ``g_value`` above level 1 (G) at 0 < x <= 1, from the scans."""
    m, plateau = strip_scan(family, x, level)
    if plateau:
        return Fraction(1, 2**m)
    left = (curve_x_scan(family, m, level), Fraction(1, 2**m))
    right = (curve_x_scan(family, m - 1, level), Fraction(2, 2**m))
    return lerp(left, right, x)


def profile_vertices_scan(level: Fraction, x_min: Fraction) -> PiecewiseLinearFn:
    """``profile_vertices`` by walking curves upward from the first to reach the level at x = 1."""
    collected: list[tuple[Fraction, Fraction]] = []
    m = max(0, math.ceil(level) - 2)
    while True:
        xm = curve_x_scan(Family.F, m, level)
        m += 1
        if xm >= 1:
            continue
        if xm <= x_min:
            if xm == x_min:
                collected.append((xm, Fraction(1, 2 ** (m - 1))))
            break
        collected.append((xm, Fraction(1, 2 ** (m - 1))))
    if not collected or collected[-1][0] != x_min:
        collected.append((x_min, profile_scan(Family.F, x_min, level)))
    vertices = list(reversed(collected))
    if vertices[-1][0] != 1:
        vertices.append((Fraction(1), profile_scan(Family.F, Fraction(1), level)))
    return PiecewiseLinearFn(tuple(vertices))


class StepFunction(NamedTuple):
    """Function constant on the 2**depth uniform cells of one depth, tiling [0, 1)."""

    depth: int
    values: tuple[Fraction, ...]

    def level_set_measure(self, level: Fraction) -> Fraction:
        width = Fraction(1, 2**self.depth)
        return sum((width for v in self.values if v >= level), Fraction(0))

    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(sorted(set(self.values)))


def sparse_apply(subset: DyadicSet, seq: CarlesonSequence) -> StepFunction:
    """The operator as a uniform-depth step function, from its definition.

    The depth is the deeper of the set's and the support's resolution.  A
    cell's value is the sum, over the weighted intervals I containing it, of
    w times the share of I's cells that lie in the set.
    """
    depths = [iv.depth for iv in subset.intervals] + [iv.depth for iv, _ in seq.weights]
    depth = max(depths, default=0)
    inside = [False] * (2**depth)
    for iv in subset.intervals:
        span = 2 ** (depth - iv.depth)
        inside[iv.index * span : (iv.index + 1) * span] = [True] * span
    values = [Fraction(0)] * (2**depth)
    for iv, w in seq.weights:
        span = 2 ** (depth - iv.depth)
        cells = range(iv.index * span, (iv.index + 1) * span)
        share = Fraction(sum(inside[i] for i in cells), span)
        for i in cells:
            values[i] += w * share
    return StepFunction(depth, tuple(values))


def carleson_constant_scan(seq: CarlesonSequence) -> Fraction:
    """The largest sum of w * |I| over the weights inside J, divided by |J|.

    J runs over every dyadic interval down to the deepest weight.
    """
    depth = max((iv.depth for iv, _ in seq.weights), default=0)
    return max(
        sum((w * iv.measure for iv, w in seq.weights if j.contains(iv)), Fraction(0)) / j.measure
        for j in intervals_to_depth(depth)
    )


def mask_to_sequence(depth: int, mask: int) -> CarlesonSequence:
    """The binary sequence with a unit weight on each interval the mask selects.

    Bits index ``intervals_to_depth(depth)``, as in ``iter_binary_carleson``.
    """
    ivs = intervals_to_depth(depth)
    return CarlesonSequence.from_mapping(
        {iv: Fraction(1) for j, iv in enumerate(ivs) if mask >> j & 1}
    )


def brute_reference(depth: int, lambda_values: Sequence[Fraction] = ()) -> BruteForceReport:
    """Pure-fraction reference enumeration (small depths only).

    Same table as ``brute_force_sup`` computed directly through the
    simulator, used to cross-check the integer recursion.
    """
    if depth > 2:
        raise DomainError("the reference path is meant for depth <= 2")
    cells = 2**depth
    table: dict[tuple[Fraction, Fraction, Fraction], Fraction] = {}
    scanned = 0
    for mask in iter_binary_carleson(depth, prune=False):
        seq = mask_to_sequence(depth, mask)
        for emask in range(1 << cells):
            _scan(table, Config.build(DyadicSet.from_cells(depth, emask), seq), lambda_values)
            scanned += 1
    return _report(depth, True, scanned, table)
