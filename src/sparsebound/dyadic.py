"""Dyadic simulator: intervals, sets, weight sequences, and level sets.

Exact model of the unit interval split dyadically.  A ``DyadicSet`` is a
canonical finite union of dyadic intervals and a ``CarlesonSequence`` a
finitely supported weight map.  A set's intervals are sorted by left end
however the set is built, and the weights, as built here, by depth and
then index.  The set constructor's merge and two walks serve everything:

- ``_merge``, run by every ``DyadicSet`` constructor after a sort and by
  ``DyadicSet.from_cells`` on cells already in order, passes once over the
  intervals by left end, drops the ones inside a kept node and merges
  complete sibling pairs up the tree.
- ``CarlesonSequence._walk``, run once per sequence and kept with it, adds
  the weights, scaled once to integers (``_scale``), up their nodes'
  ancestor chains: its root sum is the height and its largest node ratio
  the Carleson constant, which ``carleson_height`` and
  ``carleson_constant`` read.
- ``_piece_walk`` walks down the weight tree only, splitting a node while
  a weight lies strictly inside it, so the operator (the weighted sum of
  local averages of the indicator) is constant on each node where it
  stops.  A weighted node's covered share comes from prefix sums over the
  set's sorted intervals, and values stay scaled integers.
  ``step_pieces``, ``value_breakpoints``, ``level_set_measure`` and the
  brute-force scan of ``verify`` all read it.

The concatenation operators place rescaled copies of two configurations
on the two halves of [0, 1) without walking either again: the halved
intervals and weights are laid side by side, already sorted.  They do not
re-check their checked halves either: a node halved from a valid node is
valid, a canonical set stays canonical when halved, and the weights were
checked when their sequences were built, so only the root weight is
checked and the results are built without their constructors' checks
(``_node`` and ``_trusted``).  A ``Config`` is its set and its sequence
only; its measure and height are read from them (``cli`` writes its JSON).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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

_new = object.__new__
_set = object.__setattr__


def _node(depth: int, index: int) -> DyadicInterval:
    """A ``DyadicInterval`` whose bounds the caller has already checked.

    It is an ordinary interval, equal, hashed and ordered as the checked
    one, built without ``__post_init__``.  The fields are set as the
    dataclass's ``__init__`` sets them, which keeps CPython 3.11's inline
    attribute values; a write into the instance ``__dict__`` gives them up
    and slowed the walks that read the nodes.
    """
    iv = _new(DyadicInterval)
    _set(iv, "depth", depth)
    _set(iv, "index", index)
    return iv


def _trusted(cls, **fields):
    """An instance of a frozen dataclass whose fields are already checked."""
    obj = _new(cls)
    for name, value in fields.items():
        _set(obj, name, value)
    return obj


def _merge(fine: int, ordered: Iterable[tuple[int, int, int]]) -> tuple[DyadicInterval, ...]:
    """The topmost nodes covered by nodes given as ``(lo, depth, index)`` by left end.

    One pass over the nodes by left end ``lo``, in cells of the finest depth
    ``fine``, coarser first: a node starting before the last kept node ends
    lies inside it and is dropped, and a right child kept right after its
    left sibling merges with it into their parent, up the tree like a
    binary counter.  Only the nodes kept at the end are built.
    """
    kept: list[tuple[int, int]] = []  # (depth, index)
    end = 0  # the last kept node's right end, in cells of size 2**-fine
    for lo, depth, index in ordered:
        if lo < end:
            continue
        end = lo + (1 << (fine - depth))
        while index & 1 and kept and kept[-1] == (depth, index - 1):
            kept.pop()
            depth, index = depth - 1, index >> 1
        kept.append((depth, index))
    return tuple(_node(depth, index) for depth, index in kept)


@dataclass(frozen=True)
class DyadicSet:
    """Canonical finite union of pairwise-disjoint dyadic intervals.

    The constructor canonicalises, however the set is built: nested and
    repeated intervals are dropped, complete sibling pairs are merged and
    the intervals are sorted by left end.  So set equality is structural
    equality of the interval tuples.
    """

    intervals: tuple[DyadicInterval, ...]

    def __post_init__(self) -> None:
        intervals = tuple(self.intervals)
        fine = max((iv.depth for iv in intervals), default=0)
        ordered = sorted((iv.index << (fine - iv.depth), iv.depth, iv.index) for iv in intervals)
        object.__setattr__(self, "intervals", _merge(fine, ordered))

    @classmethod
    def from_intervals(cls, intervals: Iterable[DyadicInterval]) -> DyadicSet:
        return cls(tuple(intervals))

    @classmethod
    def empty(cls) -> DyadicSet:
        return cls(())

    @classmethod
    def full(cls) -> DyadicSet:
        return cls((ROOT,))

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
        """Set given by a bitmask over the 2**depth cells at ``depth``.

        Bits from ``2**depth`` up are ignored.
        """
        if _index(depth, "depth") < 0:
            raise DomainError(f"depth must be nonnegative, got {depth}")
        # The cells come in order and disjoint, so only the merge is left to do.
        bits = format(mask & ((1 << (1 << depth)) - 1), "b")[::-1]
        cells = ((i, depth, i) for i, bit in enumerate(bits) if bit == "1")
        return _trusted(cls, intervals=_merge(depth, cells))

    @property
    def measure(self) -> Fraction:
        """The cells of the set's finest depth it covers, over their number."""
        fine = max((iv.depth for iv in self.intervals), default=0)
        return Fraction(sum(1 << (fine - iv.depth) for iv in self.intervals), 1 << fine)


def _unit_weight(w: Fraction, name: str) -> Fraction:
    w = _exact(w, name)
    if not ZERO <= w <= ONE:
        raise DomainError(f"{name} must lie in [0, 1], got {w}")
    return w


@dataclass(frozen=True)
class CarlesonSequence:
    """Finitely supported weight map on dyadic intervals, weights in [0, 1].

    The constructor checks the weights however the sequence is built: a
    float, a bool or a weight outside [0, 1] raises ``DomainError``, and an
    int is stored as a ``Fraction``.  A sequence built directly keeps its
    order, its zero weights and a node listed twice, whose weights add.
    """

    weights: tuple[tuple[DyadicInterval, Fraction], ...]

    def __post_init__(self) -> None:
        # One pass over exact weights; the names are formatted only on failure.
        for _, w in self.weights:
            if type(w) is not Fraction or not 0 <= w.numerator <= w.denominator:
                checked = tuple((iv, _unit_weight(w, f"weight at {iv}")) for iv, w in self.weights)
                object.__setattr__(self, "weights", checked)
                return

    @classmethod
    def from_mapping(cls, mapping: Mapping[DyadicInterval, Fraction]) -> CarlesonSequence:
        """The mapping's nonzero weights, sorted by depth and then index."""
        pairs = sorted(mapping.items(), key=lambda p: (p[0].depth, p[0].index))
        return cls(tuple((iv, w) for iv, w in cls(tuple(pairs)).weights if w))

    @classmethod
    def empty(cls) -> CarlesonSequence:
        return cls(())

    @cached_property
    def _scale(self) -> tuple[int, int, tuple[int, ...]]:
        """The weights' common denominator lcm, the deepest depth and each ``w * lcm`` in order.

        Kept with the sequence; equality and hashing read ``weights`` only.
        """
        lcm = math.lcm(*{w.denominator for _, w in self.weights})
        depth = max((iv.depth for iv, _ in self.weights), default=0)
        if lcm == 1:  # 0/1 weights, as in every extremizer: no scaling
            return lcm, depth, tuple(w.numerator for _, w in self.weights)
        return lcm, depth, tuple(w.numerator * (lcm // w.denominator) for _, w in self.weights)

    @cached_property
    def _walk(self) -> tuple[Fraction, Fraction]:
        """The height and the Carleson constant, from one bottom-up walk.

        The weighted lengths, scaled by ``lcm << depth``, go up the ancestor
        chains one depth at a time; a node's sum times 2**d is its ratio, the
        largest on a chain.  The root's sum is the height.
        """
        lcm, depth, scaled = self._scale
        # The sequences built here come sorted, where this sort is one pass;
        # one built directly may list its weights in any order.
        nodes = sorted(zip((iv for iv, _ in self.weights), scaled), key=lambda p: p[0].depth)
        best = 0
        sums: dict[int, int] = {}  # node index -> scaled length of the weights inside it
        for d in range(depth, -1, -1):
            while nodes and nodes[-1][0].depth == d:
                iv, w = nodes.pop()
                sums[iv.index] = sums.get(iv.index, 0) + (w << (depth - d))
            best = max(best, max(sums.values(), default=0) << d)
            parents: dict[int, int] = {}
            for index, total in sums.items():
                parents[index >> 1] = parents.get(index >> 1, 0) + total
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

    A node is keyed by ``2**depth + index``, so its children are ``2 * key``
    and ``2 * key + 1``.  The walk goes down from the root and splits a node
    only while a weight lies strictly inside it; each node where it stops is
    a piece ``(key, value)``, the operator being ``value / scale`` on it.
    The scale is the weights' common denominator times 2**S, S the deepest
    depth of any weight or set interval; a weight w on a node of depth d
    covering c cells of size 2**-S adds ``w * c * 2**d`` scaled.
    """
    lcm, depth, scaled = seq._scale
    fine = max([depth, *(iv.depth for iv in subset.intervals)])
    # The set's intervals as [lo, hi) in cells of size 2**-fine, left to
    # right, with the cell counts of the first j intervals in covered[j].
    los, his, covered = [], [], [0]
    for iv in subset.intervals:
        lo, hi = iv.index << (fine - iv.depth), (iv.index + 1) << (fine - iv.depth)
        los.append(lo)
        his.append(hi)
        covered.append(covered[-1] + hi - lo)
    own: dict[int, int] = {}
    inner: set[int] = set()  # nodes with a weight strictly inside
    for (iv, _), w in zip(seq.weights, scaled):
        lo, hi = iv.index << (fine - iv.depth), (iv.index + 1) << (fine - iv.depth)
        j = bisect_right(his, lo)  # the first interval ending after lo
        if j < len(los) and los[j] <= lo and his[j] >= hi:
            cells = hi - lo  # an interval of the set contains the node
        else:
            cells = covered[bisect_left(los, hi)] - covered[j]
        key = (1 << iv.depth) + iv.index
        own[key] = own.get(key, 0) + ((w * cells) << iv.depth)
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
    out = []
    for key, value in pieces:
        d = key.bit_length() - 1
        out.append((DyadicInterval(d, key - (1 << d)), Fraction(value, scale)))
    return out


def _value_cells(subset: DyadicSet, seq: CarlesonSequence) -> tuple[dict[int, int], int, int]:
    """The cells of size 2**-depth taking each scaled value, the scale and the depth."""
    pieces, scale, depth = _piece_walk(subset, seq)
    cells: dict[int, int] = {}
    for key, value in pieces:
        cells[value] = cells.get(value, 0) + (1 << (depth + 1 - key.bit_length()))
    return cells, scale, depth


def _cells_reaching(cells: dict[int, int], scale: int, level: Fraction) -> int:
    """How many of the cells take a value of at least ``level``, compared in integers."""
    p, q = level.numerator * scale, level.denominator
    return sum(n for value, n in cells.items() if value * q >= p)


def value_breakpoints(subset: DyadicSet, seq: CarlesonSequence) -> tuple[Fraction, ...]:
    """Sorted distinct values taken by the operator."""
    cells, scale, _ = _value_cells(subset, seq)
    return tuple(Fraction(value, scale) for value in sorted(cells))


def level_set_measure(subset: DyadicSet, seq: CarlesonSequence, level: Fraction) -> Fraction:
    """Exact measure of the set where the operator reaches ``level``."""
    level = _exact(level, "level")
    cells, scale, depth = _value_cells(subset, seq)
    return Fraction(_cells_reaching(cells, scale, level), 1 << depth)


def _halves(
    first: Iterable[DyadicInterval], second: Iterable[DyadicInterval]
) -> list[DyadicInterval]:
    """The nodes of ``first`` halved into [0, 1/2), then those of ``second`` into [1/2, 1)."""
    out = [_node(iv.depth + 1, iv.index) for iv in first]
    out += [_node(iv.depth + 1, iv.index + (1 << iv.depth)) for iv in second]
    return out


def concat_sets(first: DyadicSet, second: DyadicSet) -> DyadicSet:
    """Halve both sets and lay them on the two halves of [0, 1).

    The halves stay canonical and sorted, side by side: halving keeps
    sibling pairs and nesting as they were, and the only sibling pair
    across the middle is the two halves themselves, which merge into
    ``ROOT`` when both sets are full.
    """
    if first.intervals == second.intervals == (ROOT,):
        return DyadicSet.full()
    return _trusted(DyadicSet, intervals=tuple(_halves(first.intervals, second.intervals)))


def concat_seqs(
    first: CarlesonSequence, second: CarlesonSequence, gamma: Fraction
) -> CarlesonSequence:
    """Push two sequences into the two subtrees and weight the root by gamma.

    The height of the result is the mean of the two heights plus gamma.
    Both inputs are sorted by depth and then index, and at each depth the
    left half's intervals come first, so a stable sort by depth alone (a
    merge of the two runs) keeps the order.  Only gamma is checked: the
    halves' weights were checked when their sequences were built.
    """
    gamma = _unit_weight(gamma, "root weight")
    nodes = _halves((iv for iv, _ in first.weights), (iv for iv, _ in second.weights))
    weights = (w for _, w in first.weights + second.weights)
    merged = sorted(zip(nodes, weights), key=lambda pair: pair[0].depth)
    return _trusted(CarlesonSequence, weights=((ROOT, gamma), *merged) if gamma else tuple(merged))


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

