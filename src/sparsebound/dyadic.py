"""Dyadic simulator: intervals, sets, weight sequences, and level sets.

Exact model of the unit interval split dyadically.  Inside this module a
node is its heap key ``2**depth + index``, an int: the root is 1, the
children of ``key`` are ``2 * key`` and ``2 * key + 1``, its depth is
``key.bit_length() - 1``, and key order is depth-then-index order.  A
``DyadicSet`` keeps its keys sorted by left end and a ``CarlesonSequence``
its keys in the order given, beside their weights.  ``DyadicInterval``s
appear at the boundary only: the constructors read them, and the
``intervals`` and ``weights`` views build them on first read.  Three
passes over keys serve everything: ``_merge`` canonicalises a set,
``CarlesonSequence._walk`` adds the weights up their ancestor chains once
per sequence, and ``_piece_walk`` finds where the operator is constant.

Concatenation halves by key arithmetic: a node of depth d moves into the
left half by adding 2**d and into the right half by adding 2**(d + 1).
It checks only the root weight, since a canonical set stays canonical when
halved and the halves' weights were checked when they were built.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import starmap
from operator import itemgetter
from typing import Iterable, Mapping

from .rational import DomainError, _exact, _index

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
]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The interval [index * 2**-depth, (index + 1) * 2**-depth)."""

    depth: int
    index: int

    def __post_init__(self) -> None:
        if _index(self.depth, "depth") < 0:
            raise DomainError(f"depth must be nonnegative, got {self.depth}")
        if not 0 <= _index(self.index, "index") < 2**self.depth:
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


ROOT = DyadicInterval(0, 0)


def _key(node: DyadicInterval) -> int:
    """The heap key of an interval; a node of any other type raises ``DomainError``."""
    if not isinstance(node, DyadicInterval):
        raise DomainError(f"a node must be a DyadicInterval, got {node!r}")
    return (1 << node.depth) + node.index


def _depth_index(key: int) -> tuple[int, int]:
    """The depth and index of the node with heap key ``key``."""
    depth = key.bit_length() - 1
    return depth, key - (1 << depth)


def _intervals(keys: Iterable[int]) -> tuple[DyadicInterval, ...]:
    return tuple(starmap(DyadicInterval, map(_depth_index, keys)))


def _depth(keys: Iterable[int]) -> int:
    """The deepest depth of the keys (a deeper key is a larger one), 0 for none."""
    return max(keys, default=1).bit_length() - 1


def _merge(fine: int, ordered: Iterable[int]) -> tuple[int, ...]:
    """The topmost nodes covered by the keys ``ordered``, given by left end, coarser first.

    One pass, in cells of the finest depth ``fine``: a node starting before
    the last kept node ends lies inside it and is dropped, and a right child
    kept right after its left sibling merges with it into their parent, up
    the tree like a binary counter.
    """
    kept: list[int] = []
    end = 0  # the last kept node's right end, in cells of size 2**-fine (offset by 2**fine)
    for key in ordered:
        shift = fine + 1 - key.bit_length()
        if key << shift < end:
            continue
        end = (key + 1) << shift
        while key & 1 and kept and kept[-1] == key - 1:
            kept.pop()
            key >>= 1
        kept.append(key)
    return tuple(kept)


def _trusted(cls, **fields):
    """An instance of a frozen dataclass whose fields are already checked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, init=False)
class DyadicSet:
    """Canonical finite union of pairwise-disjoint dyadic intervals.

    The constructor canonicalises, however the set is built: nested and
    repeated intervals are dropped, complete sibling pairs are merged and
    the intervals are sorted by left end, so two sets covering the same
    cells are equal.  ``intervals`` is a read-only view of the set's keys.
    """

    _keys: tuple[int, ...]

    def __init__(self, intervals: Iterable[DyadicInterval]) -> None:
        keys = [_key(iv) for iv in intervals]
        fine = _depth(keys)
        keys.sort(key=lambda key: (key << (fine + 1 - key.bit_length()), key))
        object.__setattr__(self, "_keys", _merge(fine, keys))

    @cached_property
    def intervals(self) -> tuple[DyadicInterval, ...]:
        """The intervals sorted by left end, built on first read and kept."""
        return _intervals(self._keys)

    @classmethod
    def from_intervals(cls, intervals: Iterable[DyadicInterval]) -> DyadicSet:
        return cls(intervals)

    @classmethod
    def empty(cls) -> DyadicSet:
        return _trusted(cls, _keys=())

    @classmethod
    def full(cls) -> DyadicSet:
        return _trusted(cls, _keys=(1,))

    @classmethod
    def prefix(cls, x: Fraction) -> DyadicSet:
        """Left-packed set [0, x) for dyadic x in [0, 1], at minimal depth."""
        x = _exact(x, "prefix measure")
        if not ZERO <= x <= ONE:
            raise DomainError(f"prefix measure must lie in [0, 1], got {x}")
        if x == 1:
            return cls.full()
        den = x.denominator
        if den & (den - 1):
            raise DomainError(f"prefix measure must be dyadic, got {x}")
        # Down from the root along x's binary digits: a digit 1 keeps the
        # left child whole and goes on into the right one.
        keys, key = [], 1
        for digit in format(x.numerator, f"0{den.bit_length() - 1}b"):
            key *= 2
            if digit == "1":
                keys.append(key)
                key += 1
        return _trusted(cls, _keys=tuple(keys))

    @classmethod
    def from_cells(cls, depth: int, mask: int) -> DyadicSet:
        """Set given by a bitmask over the 2**depth cells at ``depth``.

        Bits from ``2**depth`` up are ignored, so a negative mask is read in
        two's complement.
        """
        if _index(depth, "depth") < 0:
            raise DomainError(f"depth must be nonnegative, got {depth}")
        bits = format(_index(mask, "cell mask") & ((1 << (1 << depth)) - 1), "b")[::-1]
        # The cells come in order and disjoint, so only the merge is left to do.
        cells = [(1 << depth) + i for i, bit in enumerate(bits) if bit == "1"]
        return _trusted(cls, _keys=_merge(depth, cells))

    @property
    def measure(self) -> Fraction:
        """The cells of the set's finest depth it covers, over their number."""
        fine = _depth(self._keys)
        return Fraction(sum(1 << (fine + 1 - key.bit_length()) for key in self._keys), 1 << fine)


def _unit_weight(w: Fraction, name: str) -> Fraction:
    w = _exact(w, name)
    if not ZERO <= w <= ONE:
        raise DomainError(f"{name} must lie in [0, 1], got {w}")
    return w


@dataclass(frozen=True, init=False)
class CarlesonSequence:
    """Finitely supported weight map on dyadic intervals, weights in [0, 1].

    The constructor checks the nodes and weights however the sequence is
    built: a node that is not a ``DyadicInterval``, a float or bool weight
    or a weight outside [0, 1] raises ``DomainError``, and an int weight is
    stored as a ``Fraction``.  A sequence built directly keeps its order,
    its zero weights and a node listed twice, whose weights add.
    ``weights`` is a read-only view of its keys and weights.
    """

    _keys: tuple[int, ...]
    _values: tuple[Fraction, ...]

    def __init__(self, weights: Iterable[tuple[DyadicInterval, Fraction]]) -> None:
        pairs = tuple(weights)
        object.__setattr__(self, "_keys", tuple(_key(iv) for iv, _ in pairs))
        values = tuple(w for _, w in pairs)
        # One pass over exact weights; the names are formatted only on failure.
        if not all(type(w) is Fraction and 0 <= w.numerator <= w.denominator for w in values):
            values = tuple(_unit_weight(w, f"weight at {iv}") for iv, w in pairs)
        object.__setattr__(self, "_values", values)

    @cached_property
    def weights(self) -> tuple[tuple[DyadicInterval, Fraction], ...]:
        """The (interval, weight) pairs in order, built on first read and kept."""
        return tuple(zip(_intervals(self._keys), self._values))

    @classmethod
    def from_mapping(cls, mapping: Mapping[DyadicInterval, Fraction]) -> CarlesonSequence:
        """The mapping's nonzero weights, sorted by depth and then index."""
        return cls(sorted((iv, w) for iv, w in cls(mapping.items()).weights if w))

    @classmethod
    def empty(cls) -> CarlesonSequence:
        return _trusted(cls, _keys=(), _values=())

    @cached_property
    def _scale(self) -> tuple[int, int, tuple[int, ...]]:
        """The weights' common denominator lcm, the deepest depth and each ``w * lcm`` in order.

        Kept with the sequence; equality and hashing read its fields only.
        """
        lcm = math.lcm(*{w.denominator for w in self._values})
        depth = _depth(self._keys)
        if lcm == 1:  # 0/1 weights, as in every extremizer: no scaling
            return lcm, depth, tuple(w.numerator for w in self._values)
        return lcm, depth, tuple(w.numerator * (lcm // w.denominator) for w in self._values)

    @cached_property
    def _walk(self) -> tuple[Fraction, Fraction]:
        """The height and the Carleson constant, from one bottom-up walk.

        The weighted lengths, scaled by ``lcm << depth``, go up the ancestor
        chains one depth at a time; a node's sum times 2**d is its ratio, the
        largest on a chain.  The root's sum is the height.
        """
        lcm, depth, scaled = self._scale
        # Any order will do: the weights are dealt to their depths first.
        own: list[dict[int, int]] = [{} for _ in range(depth + 1)]
        for key, w in zip(self._keys, scaled):
            level = own[key.bit_length() - 1]
            level[key] = level.get(key, 0) + w
        best = 0
        sums: dict[int, int] = {}  # node key -> scaled length of the weights inside it
        for d in range(depth, -1, -1):
            for key, w in own[d].items():
                sums[key] = sums.get(key, 0) + (w << (depth - d))
            best = max(best, max(sums.values(), default=0) << d)
            parents: dict[int, int] = {}
            for key, total in sums.items():
                parents[key >> 1] = parents.get(key >> 1, 0) + total
            sums = parents
        return Fraction(sums.get(0, 0), lcm << depth), Fraction(best, lcm << depth)


def carleson_height(seq: CarlesonSequence) -> Fraction:
    """Weighted length of the support, the sum of w * |I|: the root sum of the walk."""
    return seq._walk[0]


def carleson_constant(seq: CarlesonSequence) -> Fraction:
    """Supremum of heights over all base intervals: the largest node ratio of the walk."""
    return seq._walk[1]


def _piece_walk(subset: DyadicSet, seq: CarlesonSequence) -> tuple[list[tuple[int, int]], int, int]:
    """The operator's pieces left to right, their scale and the deepest piece's depth.

    The walk goes down from the root and splits a node only while a weight
    lies strictly inside it; each node where it stops is a piece
    ``(key, value)``, the operator being ``value / scale`` on it.  The scale
    is the weights' common denominator times 2**S, S the deepest depth of
    any weight or set interval; a weight w on a node of depth d covering c
    cells of size 2**-S adds ``w * c * 2**d`` scaled.
    """
    lcm, depth, scaled = seq._scale
    fine = max(depth, _depth(subset._keys))
    # The set's nodes as [lo, hi) in cells of size 2**-fine, offset by
    # 2**fine, left to right, with the cell counts of the first j in covered[j].
    los, his, covered = [], [], [0]
    for key in subset._keys:
        shift = fine + 1 - key.bit_length()
        los.append(key << shift)
        his.append((key + 1) << shift)
        covered.append(covered[-1] + (1 << shift))
    own: dict[int, int] = {}
    inner: set[int] = set()  # nodes with a weight strictly inside
    for key, w in zip(seq._keys, scaled):
        shift = fine + 1 - key.bit_length()
        lo, hi = key << shift, (key + 1) << shift
        j = bisect_right(his, lo)  # the first interval ending after lo
        if j < len(los) and los[j] <= lo and his[j] >= hi:
            cells = hi - lo  # an interval of the set contains the node
        else:
            cells = covered[bisect_left(los, hi)] - covered[j]
        own[key] = own.get(key, 0) + ((w * cells) << (fine - shift))
        key >>= 1
        while key and key not in inner:
            inner.add(key)
            key >>= 1
    pieces = []
    stack = [(1, 0)]
    while stack:
        key, value = stack.pop()
        value += own.get(key, 0)
        if key in inner:
            stack.append((2 * key + 1, value))
            stack.append((2 * key, value))
        else:
            pieces.append((key, value))
    return pieces, lcm << fine, depth


def step_pieces(subset: DyadicSet, seq: CarlesonSequence) -> list[tuple[DyadicInterval, Fraction]]:
    """Adaptive piecewise-constant form of the weighted-average sum.

    Returns disjoint intervals tiling [0, 1), left to right, with the exact
    operator value on each: the nodes of the weight tree with no weight
    strictly inside.
    """
    pieces, scale, _ = _piece_walk(subset, seq)
    return [(DyadicInterval(*_depth_index(key)), Fraction(value, scale)) for key, value in pieces]


def _value_cells(subset: DyadicSet, seq: CarlesonSequence) -> tuple[dict[int, int], int, int]:
    """The cells of size 2**-depth taking each scaled value, the scale and the depth."""
    pieces, scale, depth = _piece_walk(subset, seq)
    cells: dict[int, int] = {}
    for key, value in pieces:
        cells[value] = cells.get(value, 0) + (1 << (depth + 1 - key.bit_length()))
    return cells, scale, depth


def value_breakpoints(subset: DyadicSet, seq: CarlesonSequence) -> tuple[Fraction, ...]:
    """Sorted distinct values taken by the operator."""
    cells, scale, _ = _value_cells(subset, seq)
    return tuple(Fraction(value, scale) for value in sorted(cells))


def level_set_measure(subset: DyadicSet, seq: CarlesonSequence, level: Fraction) -> Fraction:
    """Exact measure of the set where the operator reaches ``level``.

    The pieces' values are compared with the level in integers, and the
    cells of size 2**-depth in the pieces that reach it are counted.
    """
    level = _exact(level, "level")
    pieces, scale, depth = _piece_walk(subset, seq)
    p, q = level.numerator * scale, level.denominator
    cells = sum(1 << (depth + 1 - key.bit_length()) for key, value in pieces if value * q >= p)
    return Fraction(cells, 1 << depth)


def _halved(first: Iterable[int], second: Iterable[int]) -> list[int]:
    """The nodes of ``first`` moved into [0, 1/2), then those of ``second`` into [1/2, 1)."""
    out = [key + (1 << (key.bit_length() - 1)) for key in first]
    out += [key + (2 << (key.bit_length() - 1)) for key in second]
    return out


def concat_sets(first: DyadicSet, second: DyadicSet) -> DyadicSet:
    """Halve both sets and lay them on the two halves of [0, 1).

    The halves stay canonical and sorted, side by side: halving keeps
    sibling pairs and nesting as they were, and the only sibling pair
    across the middle is the two halves themselves, which merge into
    ``ROOT`` when both sets are full.
    """
    if first._keys == second._keys == (1,):
        return DyadicSet.full()
    return _trusted(DyadicSet, _keys=tuple(_halved(first._keys, second._keys)))


def concat_seqs(
    first: CarlesonSequence, second: CarlesonSequence, gamma: Fraction
) -> CarlesonSequence:
    """Push two sequences into the two subtrees and weight the root by gamma.

    The height of the result is the mean of the two heights plus gamma.
    The halved weights are sorted stably by key: two sequences sorted by
    depth and then index make two runs, which the sort merges.  Only gamma
    is checked: the halves' weights were checked when their sequences were
    built.
    """
    gamma = _unit_weight(gamma, "root weight")
    keys = _halved(first._keys, second._keys)
    pairs = sorted(zip(keys, first._values + second._values), key=itemgetter(0))
    if gamma:
        pairs.insert(0, (1, gamma))
    keys, values = zip(*pairs) if pairs else ((), ())
    return _trusted(CarlesonSequence, _keys=keys, _values=values)


@dataclass(frozen=True)
class Config:
    """A set paired with a weight sequence.

    Its measure and height are the set's measure and the sequence's
    ``carleson_height``, read from them; the sequence keeps its walk.
    """

    subset: DyadicSet
    seq: CarlesonSequence

    @property
    def measure(self) -> Fraction:
        return self.subset.measure

    @property
    def height(self) -> Fraction:
        return carleson_height(self.seq)

    @classmethod
    def empty(cls) -> Config:
        return cls(DyadicSet.empty(), CarlesonSequence.empty())

    @classmethod
    def full_unweighted(cls) -> Config:
        return cls(DyadicSet.full(), CarlesonSequence.empty())

    def level_set(self, level: Fraction) -> Fraction:
        return level_set_measure(self.subset, self.seq, level)


def concat_configs(first: Config, second: Config, gamma: Fraction) -> Config:
    """The concatenation: its measure is the mean of the two and its height gamma plus theirs."""
    seq = concat_seqs(first.seq, second.seq, gamma)
    return Config(concat_sets(first.subset, second.subset), seq)


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
