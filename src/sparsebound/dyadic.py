"""Dyadic simulator: intervals, sets, weight sequences, and level sets.

Exact model of the unit interval split dyadically.  A ``DyadicSet`` is a
canonical finite union of dyadic intervals (the indicator supports), a
``CarlesonSequence`` a finitely supported weight map on dyadic intervals.
``step_pieces`` gives the weighted sum of local averages of the indicator
exactly, piece by piece on adaptive dyadic intervals, ``level_set_measure``
the exact measure where that sum reaches a threshold, and the concatenation
operators place rescaled copies of two configurations on the two halves of
the unit interval.
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

    def sibling(self) -> DyadicInterval:
        return DyadicInterval(self.depth, self.index ^ 1)

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


def _canonicalize(intervals: Iterable[DyadicInterval]) -> tuple[DyadicInterval, ...]:
    # Drop intervals nested inside others, then merge complete sibling pairs.
    pending = set(intervals)
    kept: set[DyadicInterval] = set()
    for iv in sorted(pending, key=lambda j: j.depth):
        if not any(anc in kept for anc in iv.ancestors()) and iv not in kept:
            kept.add(iv)
    merged = True
    while merged:
        merged = False
        for iv in sorted(kept, key=lambda j: -j.depth):
            if iv in kept and iv.depth > 0 and iv.sibling() in kept:
                kept.discard(iv)
                kept.discard(iv.sibling())
                kept.add(iv.parent())
                merged = True
    return tuple(sorted(kept, key=lambda j: j.left))


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

    Only support intervals and their ancestors can realize the maximum, and
    those heights are accumulated in one pass from the deepest nodes up.
    """
    if not seq.weights:
        return ZERO
    # weighted[J] = sum of w * |I| over support I inside J, for J in the closure.
    weighted: dict[DyadicInterval, Fraction] = {}
    nodes: set[DyadicInterval] = set()
    for iv, w in seq.weights:
        nodes.add(iv)
        nodes.update(iv.ancestors())
    for iv in nodes:
        weighted[iv] = ZERO
    for iv, w in seq.weights:
        contribution = w * iv.measure
        weighted[iv] += contribution
        for anc in iv.ancestors():
            weighted[anc] += contribution
    return max(weighted[iv] / iv.measure for iv in nodes)


def step_pieces(subset: DyadicSet, seq: CarlesonSequence) -> list[tuple[DyadicInterval, Fraction]]:
    """Adaptive piecewise-constant form of the weighted-average sum.

    Returns disjoint intervals tiling [0, 1) with the exact operator value
    on each.  The recursion only descends through ancestors of support or
    set intervals, so the piece count stays proportional to the input size
    regardless of depth.
    """
    weight_of = dict(seq.weights)
    support_above: set[DyadicInterval] = set()
    for iv in weight_of:
        support_above.update(iv.ancestors())
    members = set(subset.intervals)
    meas: dict[DyadicInterval, Fraction] = {}
    for iv in subset.intervals:
        meas[iv] = meas.get(iv, ZERO) + iv.measure
        for anc in iv.ancestors():
            meas[anc] = meas.get(anc, ZERO) + iv.measure

    def set_measure(node: DyadicInterval) -> Fraction:
        got = meas.get(node)
        if got is not None:
            return got
        for anc in node.ancestors():
            if anc in meas:
                return node.measure if anc in members else ZERO
        return ZERO

    pieces: list[tuple[DyadicInterval, Fraction]] = []

    def descend(node: DyadicInterval, acc: Fraction) -> None:
        w = weight_of.get(node)
        inside = set_measure(node)
        if w is not None:
            acc = acc + w * inside / node.measure
        partial = ZERO < inside < node.measure
        if node not in support_above and not partial:
            pieces.append((node, acc))
            return
        left, right = node.children()
        descend(left, acc)
        descend(right, acc)

    descend(ROOT, ZERO)
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
