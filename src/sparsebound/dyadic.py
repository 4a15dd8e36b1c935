"""Dyadic simulator: intervals, sets, weight sequences, and level sets.

Exact model of the unit interval split dyadically.  Inside this module a
node is its heap key ``2**depth + index``, an int: the root is 1, the
children of ``key`` are ``2 * key`` and ``2 * key + 1``, its depth is
``key.bit_length() - 1``, and key order is depth-then-index order.  A
``DyadicSet`` keeps its keys sorted by left end and a ``CarlesonSequence``
its keys in key order, however either is built, beside their weights.
``DyadicInterval``s appear at the boundary only: the constructors read
them, and the ``intervals`` and ``weights`` views build them on first
read.  Weights are likewise int numerators over their least common
denominator.  Level sets and Carleson constants read the weighted nodes
only, each linked to its nearest weighted ancestor (key 0 if none) in one
walk over the keys as stored, forward or in reverse: an unweighted node's
ratio is the mean of its children's, so the largest is a weighted node's,
or 0, and values only rise down the forest, by nonnegative shares.

Concatenation halves by key arithmetic: a node of depth d moves into the
left half by adding 2**d and into the right half by adding 2**(d + 1), so
each half stays in key order, and the halves interleave depth by depth.
It checks only the root weight, since a canonical set stays canonical when
halved and the halves' weights were checked when they were built.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat, starmap
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping

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
    "level_set_measure",
    "concat_sets",
    "concat_seqs",
    "concat_configs",
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


# From this many keys on, work on a key-ordered sequence goes faster depth by
# depth, on one slice of keys per depth, than key by key.
_BY_DEPTH_KEYS = 200


def _weight_rows(seq: CarlesonSequence, label: Callable[[int], object]) -> Iterator[tuple]:
    """Each weight as ``(depth, index, label(numerator))``, in key order.

    From ``_BY_DEPTH_KEYS`` keys on, the rows of one depth's run of keys are
    made by ``zip`` and ``map`` from slices, offset and labelled at once.
    """
    keys, values = seq._keys, seq._values
    if len(keys) < _BY_DEPTH_KEYS:
        rows = zip(keys, map(label, values))
        return ((d, key - (1 << d), text) for key, text in rows for d in [key.bit_length() - 1])
    runs, stop = [], 0
    while stop < len(keys):
        start, depth = stop, keys[stop].bit_length() - 1
        stop = bisect_left(keys, 2 << depth, start)
        indices = map((1 << depth).__rsub__, keys[start:stop])
        runs.append(zip(repeat(depth), indices, map(label, values[start:stop])))
    return chain.from_iterable(runs)


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
        return Fraction(*self._cells())

    def _cells(self) -> tuple[int, int]:
        """``measure`` as a pair: the cells covered and their number."""
        fine = _depth(self._keys)
        return sum(1 << (fine + 1 - key.bit_length()) for key in self._keys), 1 << fine


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
    or a weight outside [0, 1] raises ``DomainError``.  It then sorts the
    weights stably by key (depth, then index), so ``CarlesonSequence(
    seq.weights) == seq``.  Each weight is stored as an int numerator over
    ``_den``, the least common denominator of the weights in lowest terms,
    so equal sequences have equal fields.  A sequence built directly keeps
    its zero weights and a node listed twice, whose weights, now side by
    side, add.  ``weights`` is a read-only view of its keys and weights.
    """

    _keys: tuple[int, ...]
    _values: tuple[int, ...]
    _den: int

    def __init__(self, weights: Iterable[tuple[DyadicInterval, Fraction]]) -> None:
        pairs = tuple(weights)
        keys = [_key(iv) for iv, _ in pairs]
        values = [w for _, w in pairs]
        # One pass over exact weights; the names are formatted only on failure.
        if not all(type(w) is Fraction and 0 <= w.numerator <= w.denominator for w in values):
            values = [_unit_weight(w, f"weight at {iv}") for iv, w in pairs]
        den = math.lcm(*{w.denominator for w in values})
        scaled = (w.numerator * (den // w.denominator) for w in values)
        ordered = sorted(zip(keys, scaled), key=itemgetter(0))  # stable: repeats keep their order
        keys, values = zip(*ordered) if ordered else ((), ())
        self.__dict__.update(_keys=keys, _values=values, _den=den)

    @cached_property
    def weights(self) -> tuple[tuple[DyadicInterval, Fraction], ...]:
        """The (interval, weight) pairs in key order, built on first read and kept."""
        fractions = {v: Fraction(v, self._den) for v in set(self._values)}
        return tuple(zip(_intervals(self._keys), map(fractions.__getitem__, self._values)))

    @classmethod
    def from_mapping(cls, mapping: Mapping[DyadicInterval, Fraction]) -> CarlesonSequence:
        """The mapping's nonzero weights, in key order; a zero weight is checked, then dropped."""
        seq = cls(mapping.items())
        if 0 not in seq._values:
            return seq
        keys = tuple(compress(seq._keys, seq._values))
        return _trusted(cls, _keys=keys, _values=tuple(filter(None, seq._values)), _den=seq._den)

    @classmethod
    def empty(cls) -> CarlesonSequence:
        return _trusted(cls, _keys=(), _values=(), _den=1)

    @cached_property
    def _walk(self) -> tuple[Fraction, Fraction]:
        """The height and the Carleson constant, from one pass over the weighted nodes.

        The stored keys are walked in reverse, deepest first: each weighted
        node's length, scaled by ``_den << depth``, goes into its nearest
        weighted ancestor's, or the height at key 0.  A node listed twice has
        its weights added first.  A sum times 2**d is a ratio; an unweighted
        node's is the mean of its children's, so the largest is a weighted
        node's, or 0.
        """
        keys, values = self._keys, self._values
        depth = _depth(keys[-1:])  # the last key is the deepest
        sums = dict.fromkeys(keys, 0)  # weighted node key -> scaled length of the weights inside it
        if len(sums) < len(keys):
            for key, w in zip(keys, values):
                sums[key] += w
            keys, values = tuple(sums), tuple(sums.values())
            sums = dict.fromkeys(keys, 0)
        sums[0] = best = 0
        for key, w in zip(reversed(keys), reversed(values)):
            total = sums[key] + (w << (depth + 1 - key.bit_length()))
            if total << (key.bit_length() - 1) > best:
                best = total << (key.bit_length() - 1)
            key >>= 1
            while key not in sums:
                key >>= 1
            sums[key] += total
        return Fraction(sums[0], self._den << depth), Fraction(best, self._den << depth)


def carleson_height(seq: CarlesonSequence) -> Fraction:
    """Weighted length of the support, the sum of w * |I|: the root sum of the walk."""
    return seq._walk[0]


def carleson_constant(seq: CarlesonSequence) -> Fraction:
    """Supremum of heights over all base intervals: the largest node ratio of the walk."""
    return seq._walk[1]


def _depths(subset: DyadicSet, seq: CarlesonSequence) -> tuple[int, int]:
    """The weights' depth and the finest depth of the set and the weights."""
    depth = _depth(seq._keys[-1:])  # the last key is the deepest
    return depth, max(depth, _depth(subset._keys))


def _spans(subset: DyadicSet, fine: int) -> tuple[list[int], list[int], list[int]]:
    """The set's nodes as [lo, hi) in cells of size 2**-fine, offset by 2**fine, left to right.

    Returns the los, then a lo past every node's end; the his; and the cell
    counts of the first j nodes in ``covered[j]``.  A weight w on a node of
    depth d - 1 whose [lo, hi) holds c of the set's cells has the share
    w * c * 2**(d - 1), over ``_den << fine``: c is ``hi - lo`` when
    ``los[j] <= lo`` and ``his[j] >= hi`` for the first node j ending after
    lo, ``j = bisect_right(his, lo)``, and otherwise
    ``covered[bisect_left(los, hi, j)] - covered[j]``.
    """
    los, his, covered = [], [], [0]
    for key in subset._keys:
        shift = fine + 1 - key.bit_length()
        los.append(key << shift)
        his.append((key + 1) << shift)
        covered.append(covered[-1] + (1 << shift))
    los.append(2 << fine)
    return los, his, covered


def _covered(subset: DyadicSet, seq: CarlesonSequence) -> tuple[dict[int, int], int]:
    """Each weighted node's scaled share of the set (see ``_spans``), and the finest depth."""
    _, fine = _depths(subset, seq)
    los, his, covered = _spans(subset, fine)
    own: dict[int, int] = {}
    for key, w in zip(seq._keys, seq._values):
        d = key.bit_length()
        lo = key << (fine + 1 - d)
        hi = lo + (1 << (fine + 1 - d))
        j = bisect_right(his, lo)
        if los[j] <= lo and his[j] >= hi:
            share = (w * (hi - lo)) << (d - 1)
        else:
            share = (w * (covered[bisect_left(los, hi, j)] - covered[j])) << (d - 1)
        own[key] = own.get(key, 0) + share
    return own, fine


def _piece_walk(subset: DyadicSet, seq: CarlesonSequence) -> tuple[list[tuple[int, int]], int]:
    """``step_pieces`` as ``(key, value)`` pairs over the scale ``_den << fine``, and the scale."""
    own, fine = _covered(subset, seq)
    inner: set[int] = set()  # nodes with a weight strictly inside
    for key in own:
        key >>= 1
        while key and key not in inner:
            inner.add(key)
            key >>= 1
    pieces, stack = [], [(1, 0)]
    while stack:
        key, value = stack.pop()
        value += own.get(key, 0)
        if key in inner:
            stack.append((2 * key + 1, value))
            stack.append((2 * key, value))
        else:
            pieces.append((key, value))
    return pieces, seq._den << fine


def step_pieces(subset: DyadicSet, seq: CarlesonSequence) -> list[tuple[DyadicInterval, Fraction]]:
    """Adaptive piecewise-constant form of the weighted-average sum.

    Returns disjoint intervals tiling [0, 1), left to right, with the exact
    operator value on each: the nodes of the weight tree with no weight
    strictly inside.
    """
    pieces, scale = _piece_walk(subset, seq)
    return [(DyadicInterval(*_depth_index(key)), Fraction(value, scale)) for key, value in pieces]


def _value_cells(subset: DyadicSet, seq: CarlesonSequence) -> tuple[dict[int, int], int, int]:
    """The cells of size 2**-depth taking each scaled value, the scale and the depth.

    One forward pass over the keys as stored, coarsest first: each weight
    adds its share of the set (see ``_spans``) to its base, the value of its
    nearest weighted ancestor (key 0 if none), or, for a node listed twice,
    whose weights are side by side, its own running value; its node's cells
    pass from the base to the sum.
    """
    depth, fine = _depths(subset, seq)
    los, his, covered = _spans(subset, fine)
    values, cells = {0: 0}, {0: 1 << depth}  # node key -> value; value -> free cells
    last = value = 0  # the key before, and its value
    for key, w in zip(seq._keys, seq._values):
        d = key.bit_length()
        lo = key << (fine + 1 - d)
        hi = lo + (1 << (fine + 1 - d))
        j = bisect_right(his, lo)
        if los[j] <= lo and his[j] >= hi:
            share = (w * (hi - lo)) << (d - 1)
        else:
            share = (w * (covered[bisect_left(los, hi, j)] - covered[j])) << (d - 1)
        if key == last:  # listed twice: its own running value is the base
            base = value
        else:
            up = key >> 1
            while up not in values:
                up >>= 1
            base = values[up]
        n = 1 << (depth + 1 - d)
        cells[base] -= n
        values[key] = value = base + share
        cells[value] = cells.get(value, 0) + n
        last = key
    return {value: n for value, n in cells.items() if n}, seq._den << fine, depth


def level_set_measure(subset: DyadicSet, seq: CarlesonSequence, level: Fraction) -> Fraction:
    """Exact measure of the set where the operator reaches ``level``, counted in integers."""
    level = _exact(level, "level")
    return Fraction(*_level_cells(subset, seq, level.numerator, level.denominator))


def _level_cells(subset: DyadicSet, seq: CarlesonSequence, num: int, den: int) -> tuple[int, int]:
    """The cells of size 2**-depth where the operator reaches num/den (den > 0), and 2**depth.

    The forward pass of ``_value_cells``, counting each node (key 0 first)
    whose value reaches the level while its base does not.
    """
    depth, fine = _depths(subset, seq)
    los, his, covered = _spans(subset, fine)
    least = -(-num * (seq._den << fine) // den)  # the least scaled value reaching the level
    values, cells = {0: 0}, 0 if least > 0 else 1 << depth
    last = value = 0  # the key before, and its value
    for key, w in zip(seq._keys, seq._values):
        d = key.bit_length()
        lo = key << (fine + 1 - d)
        hi = lo + (1 << (fine + 1 - d))
        j = bisect_right(his, lo)
        if los[j] <= lo and his[j] >= hi:
            share = (w * (hi - lo)) << (d - 1)
        else:
            share = (w * (covered[bisect_left(los, hi, j)] - covered[j])) << (d - 1)
        if key == last:  # listed twice: its own running value is the base
            base = value
        else:
            up = key >> 1
            while up not in values:
                up >>= 1
            base = values[up]
        values[key] = value = base + share
        last = key
        if value >= least > base:
            cells += 1 << (depth + 1 - d)
    return cells, 1 << depth


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
    Each halved sequence stays in key order, and at each depth the first's
    nodes come before the second's.  So from ``_BY_DEPTH_KEYS`` keys on the
    halves are merged depth by depth, each depth's slice moved by one
    addition; below that, one stable sort merges the two runs.
    Only gamma is checked, on its numerator and denominator as the
    constructor checks weights: the halves' were checked when they were
    built.  The denominator, the lcm of the halves' and gamma's, is least.
    """
    if type(gamma) is not Fraction or not 0 <= gamma.numerator <= gamma.denominator:
        gamma = _unit_weight(gamma, "root weight")
    den, left, right = first._den, first._values, second._values
    if not den == second._den == gamma.denominator:
        den = math.lcm(den, second._den, gamma.denominator)
        left, right = (tuple(v * (den // seq._den) for v in seq._values) for seq in (first, second))
    root = gamma.numerator * (den // gamma.denominator)
    ahead, behind = first._keys, second._keys
    if len(ahead) + len(behind) < _BY_DEPTH_KEYS:
        pairs = sorted(zip(_halved(ahead, behind), left + right), key=itemgetter(0))
        if root:
            pairs.insert(0, (1, root))
        keys, values = zip(*pairs) if pairs else ((), ())
        return _trusted(CarlesonSequence, _keys=keys, _values=values, _den=den)
    keys, values = ([1], [root]) if root else ([], [])
    a = b = 0
    for depth in range(max(_depth(ahead[-1:]), _depth(behind[-1:])) + 1):
        top = 2 << depth  # the first key below this depth, and the right half's offset
        stop_a, stop_b = bisect_left(ahead, top, a), bisect_left(behind, top, b)
        keys += map((top >> 1).__add__, ahead[a:stop_a])
        keys += map(top.__add__, behind[b:stop_b])
        values += left[a:stop_a]
        values += right[b:stop_b]
        a, b = stop_a, stop_b
    return _trusted(CarlesonSequence, _keys=tuple(keys), _values=tuple(values), _den=den)


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
    return _trusted(Config, subset=concat_sets(first.subset, second.subset), seq=seq)

