"""Dyadic simulator: intervals, sets, weight sequences, and level sets.

Exact model of the unit interval split dyadically.  A ``DyadicSet`` is a
canonical finite union of dyadic intervals, a ``CarlesonSequence`` a
finitely supported weight map.  One descent, ``_split``, walks the tree
down from ``ROOT`` and deals each node's intervals and weights to its two
children by one index bit: ``_canonicalize`` keeps the topmost covered
nodes, ``step_pieces`` carries the operator's value (the weighted sum of
local averages of the indicator) down to where it is constant, and
``carleson_constant`` adds the weights up.  The concatenation operators
place rescaled copies of two configurations on the two halves of [0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .rational import DomainError, format_rational

__all__ = [
    "DyadicInterval",
    "DyadicSet",
    "CarlesonSequence",
    "Config",
    "ROOT",
    "carleson_height",
    "carleson_constant",
    "step_pieces",
    "value_breakpoints",
    "level_set_measure",
    "concat_sets",
    "concat_seqs",
    "concat_configs",
    "concat_identity",
    "config_to_json",
]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The interval [index * 2**-depth, (index + 1) * 2**-depth)."""

    depth: int
    index: int

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise DomainError(f"depth must be nonnegative, got {self.depth}")
        if not 0 <= self.index < 2**self.depth:
            raise DomainError(f"index {self.index} out of range at depth {self.depth}")

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 2**self.depth)

    @property
    def left(self) -> Fraction:
        return Fraction(self.index, 2**self.depth)

    def parent(self) -> DyadicInterval:
        if self.depth == 0:
            raise DomainError("the root interval has no parent")
        return DyadicInterval(self.depth - 1, self.index // 2)

    def children(self) -> tuple[DyadicInterval, DyadicInterval]:
        return (
            DyadicInterval(self.depth + 1, 2 * self.index),
            DyadicInterval(self.depth + 1, 2 * self.index + 1),
        )

    def contains(self, other: DyadicInterval) -> bool:
        """Whether ``other`` is contained in (or equal to) this interval."""
        return other.depth >= self.depth and (other.index >> (other.depth - self.depth)) == self.index

    def ancestors(self) -> Iterator[DyadicInterval]:
        """Strict ancestors, deepest first, ending at the root."""
        node = self
        while node.depth > 0:
            node = node.parent()
            yield node


ROOT = DyadicInterval(0, 0)


def _split(
    intervals: Iterable[DyadicInterval],
    weights: Iterable[tuple[DyadicInterval, Fraction]] = (),
) -> Iterator[tuple[int, DyadicInterval, bool, list[DyadicInterval], Fraction | None, bool]]:
    """Walk down from ``ROOT`` in preorder, as far as the inputs resolve the tree.

    Each node deals what lies strictly inside it to its two children by one
    index bit.  An interval equal to a node covers it and all below it.  The
    walk, a loop of any depth, stops at a node with no uncovered interval or
    weight strictly inside.  Per node it yields the parent's position (-1 at
    the root), the node, whether it is covered, the uncovered intervals
    inside it, its own weight (or None) and whether the walk stops there.
    """
    stack = [(-1, ROOT, False, list(intervals), list(weights))]
    pos = 0
    while stack:
        parent, node, covered, inside, weighted = stack.pop()
        depth = node.depth
        if covered or any(iv.depth == depth for iv in inside):
            covered, inside = True, []
        own = next((w for iv, w in weighted if iv.depth == depth), None)
        below = [pair for pair in weighted if pair[0].depth > depth]
        leaf = not inside and not below
        yield parent, node, covered, inside, own, leaf
        if not leaf:
            halves = ([], []), ([], [])
            for iv in inside:
                halves[iv.index >> (iv.depth - depth - 1) & 1][0].append(iv)
            for pair in below:
                halves[pair[0].index >> (pair[0].depth - depth - 1) & 1][1].append(pair)
            left, right = node.children()
            stack.append((pos, right, covered, *halves[1]))
            stack.append((pos, left, covered, *halves[0]))
        pos += 1


def _canonicalize(intervals: Iterable[DyadicInterval]) -> tuple[DyadicInterval, ...]:
    # A node is kept when an input equals it or both of its children are
    # kept; the topmost kept nodes, in preorder, are sorted by left end.
    walk = [(parent, node, covered) for parent, node, covered, *_ in _split(intervals)]
    kept = [False] * len(walk)
    halves = [0] * len(walk)
    for pos in reversed(range(len(walk))):
        parent, _, covered = walk[pos]
        kept[pos] = covered or halves[pos] == 2
        if kept[pos] and parent >= 0:
            halves[parent] += 1
    return tuple(
        node for pos, (parent, node, _) in enumerate(walk)
        if kept[pos] and (parent < 0 or not kept[parent])
    )


@dataclass(frozen=True)
class DyadicSet:
    """Canonical finite union of pairwise-disjoint dyadic intervals.

    Complete sibling pairs are always merged, so set equality is structural
    equality of the interval tuples.
    """

    intervals: tuple[DyadicInterval, ...]

    @classmethod
    def from_intervals(cls, intervals: Iterable[DyadicInterval]) -> DyadicSet:
        return cls(_canonicalize(intervals))

    @classmethod
    def empty(cls) -> DyadicSet:
        return cls(())

    @classmethod
    def full(cls) -> DyadicSet:
        return cls((ROOT,))

    @classmethod
    def prefix(cls, x: Fraction) -> DyadicSet:
        """Left-packed set [0, x) for dyadic x in [0, 1], at minimal depth."""
        x = Fraction(x)
        if not ZERO <= x <= ONE:
            raise DomainError(f"prefix measure must lie in [0, 1], got {x}")
        if x == 1:
            return cls.full()
        den = x.denominator
        if den & (den - 1):
            raise DomainError(f"prefix measure must be dyadic, got {x}")
        d = den.bit_length() - 1
        intervals = []
        offset = 0  # in cells of size 2**-d
        for b in range(d):
            if x.numerator >> (d - 1 - b) & 1:
                intervals.append(DyadicInterval(b + 1, offset >> (d - b - 1)))
                offset += 1 << (d - 1 - b)
        return cls(tuple(intervals))

    @classmethod
    def from_cells(cls, depth: int, mask: int) -> DyadicSet:
        """Set given by a bitmask over the 2**depth cells at ``depth``."""
        return cls.from_intervals(
            DyadicInterval(depth, i) for i in range(2**depth) if mask >> i & 1
        )

    @property
    def measure(self) -> Fraction:
        return sum((iv.measure for iv in self.intervals), ZERO)


@dataclass(frozen=True)
class CarlesonSequence:
    """Finitely supported weight map on dyadic intervals, weights in [0, 1]."""

    weights: tuple[tuple[DyadicInterval, Fraction], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[DyadicInterval, Fraction]) -> CarlesonSequence:
        pairs = []
        for iv, w in mapping.items():
            w = Fraction(w)
            if not ZERO <= w <= ONE:
                raise DomainError(f"weight {w} outside [0, 1] at {iv}")
            if w != 0:
                pairs.append((iv, w))
        return cls(tuple(sorted(pairs, key=lambda p: (p[0].depth, p[0].index))))

    @classmethod
    def empty(cls) -> CarlesonSequence:
        return cls(())


def carleson_height(seq: CarlesonSequence, base: DyadicInterval = ROOT) -> Fraction:
    """Normalized weighted length of the support inside ``base``."""
    total = ZERO
    for iv, w in seq.weights:
        if base.contains(iv):
            total += w * iv.measure
    return total / base.measure


def carleson_constant(seq: CarlesonSequence) -> Fraction:
    """Supremum of heights over all base intervals (a finite maximum here).

    The largest is at a node the descent visits; the sums go up from the bottom.
    """
    walk = [(parent, node, own) for parent, node, _, _, own, _ in _split((), seq.weights)]
    sums = [ZERO] * len(walk)
    best = ZERO
    for pos in reversed(range(len(walk))):
        parent, node, own = walk[pos]
        total = sums[pos] if own is None else sums[pos] + own * node.measure
        if total:
            best = max(best, total * 2**node.depth)
            if parent >= 0:
                sums[parent] += total
    return best


def step_pieces(subset: DyadicSet, seq: CarlesonSequence) -> list[tuple[DyadicInterval, Fraction]]:
    """Adaptive piecewise-constant form of the weighted-average sum.

    Returns disjoint intervals tiling [0, 1), left to right, with the exact
    operator value on each.  The descent carries the value down: a weight
    adds itself times the share of its node the set covers, 1 under a
    covered node and counted in cells from the intervals inside otherwise.
    """
    pieces: list[tuple[DyadicInterval, Fraction]] = []
    values: list[Fraction] = []
    for parent, node, covered, inside, own, leaf in _split(subset.intervals, seq.weights):
        value = values[parent] if parent >= 0 else ZERO
        if own is not None and covered:
            value += own
        elif own is not None and inside:
            deepest = max(iv.depth for iv in inside)
            cells = sum(1 << (deepest - iv.depth) for iv in inside)
            value += own * Fraction(cells, 1 << (deepest - node.depth))
        values.append(value)
        if leaf:
            pieces.append((node, value))
    return pieces


def value_breakpoints(subset: DyadicSet, seq: CarlesonSequence) -> tuple[Fraction, ...]:
    """Sorted distinct values taken by the operator."""
    return tuple(sorted({v for _, v in step_pieces(subset, seq)}))


def level_set_measure(subset: DyadicSet, seq: CarlesonSequence, level: Fraction) -> Fraction:
    """Exact measure of the set where the operator reaches ``level``."""
    return sum((piece.measure for piece, v in step_pieces(subset, seq) if v >= level), ZERO)


def _scale_into(iv: DyadicInterval, right: bool) -> DyadicInterval:
    return DyadicInterval(iv.depth + 1, iv.index + (2**iv.depth if right else 0))


def concat_sets(first: DyadicSet, second: DyadicSet) -> DyadicSet:
    """Halve both sets and lay them on the two halves of [0, 1)."""
    halved = [_scale_into(iv, right=False) for iv in first.intervals]
    halved += [_scale_into(iv, right=True) for iv in second.intervals]
    return DyadicSet.from_intervals(halved)


def concat_seqs(
    first: CarlesonSequence, second: CarlesonSequence, gamma: Fraction
) -> CarlesonSequence:
    """Push two sequences into the two subtrees and weight the root by gamma.

    The height of the result is the mean of the two heights plus gamma.
    """
    gamma = Fraction(gamma)
    if not ZERO <= gamma <= ONE:
        raise DomainError(f"root weight must lie in [0, 1], got {gamma}")
    mapping: dict[DyadicInterval, Fraction] = {}
    if gamma != 0:
        mapping[ROOT] = gamma
    for iv, w in first.weights:
        mapping[_scale_into(iv, right=False)] = w
    for iv, w in second.weights:
        mapping[_scale_into(iv, right=True)] = w
    return CarlesonSequence.from_mapping(mapping)


@dataclass(frozen=True)
class Config:
    """A set paired with a weight sequence, with its measure and height cached."""

    subset: DyadicSet
    seq: CarlesonSequence
    measure: Fraction
    height: Fraction

    @classmethod
    def build(cls, subset: DyadicSet, seq: CarlesonSequence) -> Config:
        return cls(subset, seq, subset.measure, carleson_height(seq))

    @classmethod
    def empty(cls) -> Config:
        return cls.build(DyadicSet.empty(), CarlesonSequence.empty())

    @classmethod
    def full_unweighted(cls) -> Config:
        return cls.build(DyadicSet.full(), CarlesonSequence.empty())

    def level_set(self, level: Fraction) -> Fraction:
        return level_set_measure(self.subset, self.seq, level)

    def breakpoints(self) -> tuple[Fraction, ...]:
        return value_breakpoints(self.subset, self.seq)


def concat_configs(first: Config, second: Config, gamma: Fraction) -> Config:
    return Config.build(
        concat_sets(first.subset, second.subset),
        concat_seqs(first.seq, second.seq, gamma),
    )


def concat_identity(
    c1: Config, c2: Config, gamma: Fraction, level: Fraction
) -> tuple[Fraction, Fraction]:
    """Both sides of the exact concatenation identity for the level-set functional.

    Concatenating shifts the threshold by gamma times the combined measure
    and averages the two level-set measures, so the two values are equal.
    """
    combined = concat_configs(c1, c2, gamma)
    lhs = combined.level_set(level + gamma * combined.measure)
    rhs = (c1.level_set(level) + c2.level_set(level)) / 2
    return lhs, rhs


def config_to_json(config: Config) -> dict:
    """JSON form of a configuration, as the command-line tools print it."""
    return {
        "E": {"intervals": [{"d": iv.depth, "i": iv.index} for iv in config.subset.intervals]},
        "alpha": {
            "weights": [
                {"d": iv.depth, "i": iv.index, "w": format_rational(w)}
                for iv, w in config.seq.weights
            ]
        },
    }
