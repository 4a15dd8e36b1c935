"""Independent exact oracles for the benchmark's checks.

Nothing here imports ``sparsebound``.  Both oracles work on the printed
form of the program's output and on integers scaled to a common dyadic
grid, so a fault in the package's simulator cannot hide a fault in its
results.

- ``simulate`` reads a printed configuration (the ``"config"`` object of
  ``sparsebound extremize``) and recomputes its measure, height, Carleson
  constant and level-set measures by an endpoint sweep.
- ``SupTable`` enumerates every binary configuration of depth at most 2
  and gives the true supremum of the level-set measure at any level.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

ENUMERATION_DEPTH_CAP = 2


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` exactly, however many digits it has."""
    num, _, den = text.strip().partition("/")
    return Fraction(_to_int(num), _to_int(den) if den else 1)


def _to_int(digits: str) -> int:
    # int() refuses strings beyond the interpreter's digit limit; lift the
    # limit for this one conversion only.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(digits)
    finally:
        sys.set_int_max_str_digits(limit)


def _interval(d: int, i: int) -> tuple[int, int]:
    if d < 0 or not 0 <= i < 1 << d:
        raise ValueError(f"not a dyadic interval: depth {d}, index {i}")
    return d, i


@dataclass(frozen=True)
class SimulatedConfig:
    """A configuration on the grid of 2**depth cells.

    ``pieces`` tile [0, 1) as (length in cells, operator value times
    ``scale``), so every comparison with a level is an integer one.
    """

    depth: int
    scale: int
    pieces: tuple[tuple[int, int], ...]
    measure: Fraction
    height: Fraction
    carleson: Fraction

    def level_set(self, level: Fraction) -> Fraction:
        """Measure of the set where the operator is at least ``level``."""
        p, q = level.numerator, level.denominator
        cells = sum(length for length, value in self.pieces if value * q >= p * self.scale)
        return Fraction(cells, 1 << self.depth)


def simulate(config: dict) -> SimulatedConfig:
    """Recompute a printed configuration ``{"E": ..., "alpha": ...}`` exactly."""
    sets = [_interval(int(iv["d"]), int(iv["i"])) for iv in config["E"]["intervals"]]
    weights = []
    for item in config["alpha"]["weights"]:
        w = parse_rational(str(item["w"]))
        if not 0 < w <= 1:
            raise ValueError(f"weight {w} outside (0, 1]")
        weights.append((*_interval(int(item["d"]), int(item["i"])), w))
    depth = max([d for d, _ in sets] + [d for d, _, _ in weights], default=0)

    # The set as sorted disjoint cell ranges, with prefix sums of lengths.
    ranges = sorted((i << (depth - d), (i + 1) << (depth - d)) for d, i in sets)
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        if lo < hi:
            raise ValueError("set intervals overlap")
    starts = [lo for lo, _ in ranges]
    prefix = [0]
    for lo, hi in ranges:
        prefix.append(prefix[-1] + hi - lo)

    def covered_below(t: int) -> int:
        # Cells of the set inside [0, t).
        j = bisect_left(starts, t)
        if j == 0:
            return 0
        lo, hi = ranges[j - 1]
        return prefix[j - 1] + min(hi, t) - lo

    lcm = math.lcm(*(w.denominator for _, _, w in weights)) if weights else 1
    scale = lcm << depth
    events: dict[int, int] = {}
    mass: dict[tuple[int, int], int] = {}  # weighted length inside each node, times scale
    for d, i, w in weights:
        lo, hi = i << (depth - d), (i + 1) << (depth - d)
        inside = covered_below(hi) - covered_below(lo)
        # w * (inside / 2**depth) / 2**-d, times lcm * 2**depth.
        value = w.numerator * (lcm // w.denominator) * inside << d
        events[lo] = events.get(lo, 0) + value
        events[hi] = events.get(hi, 0) - value
        length = w.numerator * (lcm // w.denominator) << (depth - d)
        for up in range(d + 1):
            node = (d - up, i >> up)
            mass[node] = mass.get(node, 0) + length

    pieces = []
    value, last = 0, 0
    for point in sorted(events):
        if point > last:
            pieces.append((point - last, value))
        value += events[point]
        last = point
    if last < 1 << depth:
        pieces.append(((1 << depth) - last, value))

    carleson = max(
        (Fraction(m, lcm << (depth - d)) for (d, _), m in mass.items()), default=Fraction(0)
    )
    return SimulatedConfig(
        depth=depth,
        scale=scale,
        pieces=tuple(pieces),
        measure=Fraction(prefix[-1], 1 << depth),
        height=Fraction(mass.get((0, 0), 0), scale),
        carleson=carleson,
    )


class SupTable:
    """True supremum of the level-set measure over all depth-``depth`` configurations.

    The configurations are those ``sparsebound brute`` enumerates: unit
    weights on any family of dyadic intervals of depth at most ``depth``
    with Carleson constant at most 2, against every union of cells of
    that depth.  Measures, heights and operator values are kept as
    integers over 2**depth.
    """

    def __init__(self, depth: int) -> None:
        if not 1 <= depth <= ENUMERATION_DEPTH_CAP:
            raise ValueError(f"enumeration depth must lie in 1..{ENUMERATION_DEPTH_CAP}")
        self.depth = depth
        cells = 1 << depth
        nodes = [(d, i) for d in range(depth + 1) for i in range(1 << d)]
        span = {node: range(node[1] << (depth - node[0]), (node[1] + 1) << (depth - node[0])) for node in nodes}
        cell_mask = {node: sum(1 << c for c in span[node]) for node in nodes}

        def inside(outer, inner) -> bool:
            return inner[0] >= outer[0] and inner[1] >> (inner[0] - outer[0]) == outer[1]

        self.sequences = []
        for mask in range(1 << len(nodes)):
            chosen = [node for j, node in enumerate(nodes) if mask >> j & 1]
            # Height at J times 2**depth: sum of |I| over chosen I inside J, over |J|.
            if all(
                sum(1 << (depth - d) for d, i in chosen if inside(node, (d, i))) <= 2 << (depth - node[0])
                for node in nodes
            ):
                self.sequences.append(chosen)

        self._profiles: dict[tuple[int, int], set[tuple[int, ...]]] = {}
        for chosen in self.sequences:
            height = sum(1 << (depth - d) for d, _ in chosen)
            for subset in range(1 << cells):
                values = [0] * cells
                for node in chosen:
                    # Average of the set over the node, times 2**depth.
                    average = (subset & cell_mask[node]).bit_count() << node[0]
                    for c in span[node]:
                        values[c] += average
                key = (subset.bit_count(), height)
                self._profiles.setdefault(key, set()).add(tuple(sorted(values)))

    @property
    def configs(self) -> int:
        return len(self.sequences) << (1 << self.depth)

    def sup(self, x: Fraction, height: Fraction, level: Fraction) -> Fraction | None:
        """Largest level-set measure at ``level`` among configurations with
        measure ``x`` and height ``height``; None if there are none."""
        cells = 1 << self.depth
        if (x * cells).denominator != 1 or (height * cells).denominator != 1:
            return None
        profiles = self._profiles.get((int(x * cells), int(height * cells)))
        if profiles is None:
            return None
        p, q = level.numerator, level.denominator
        best = max(sum(1 for v in values if v * q >= p * cells) for values in profiles)
        return Fraction(best, cells)
