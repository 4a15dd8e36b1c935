"""Exact rational geometry in the (x, level) half-plane.

Points of the plane, exact linear interpolation between two points, and
piecewise-linear functions given by their vertices.  All operations are
pure and take and return ``Fraction`` values; no rounding ever occurs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .rational import DomainError

__all__ = ["PlanePoint", "PiecewiseLinearFn", "lerp"]

Pair = tuple[Fraction, Fraction]


class PlanePoint(NamedTuple):
    """A point of the (x, level) plane; ``y`` is the level coordinate."""

    x: Fraction
    y: Fraction


def lerp(p1: Pair, p2: Pair, x: Fraction) -> Fraction:
    """Evaluate the line through two points at ``x``, exactly.

    Requires ``p1.x < p2.x`` and ``x`` inside the closed segment.
    """
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        raise DomainError("degenerate segment: endpoints share the same x")
    if x1 > x2:
        raise DomainError("segment endpoints must be ordered by x")
    if not (x1 <= x <= x2):
        raise DomainError(f"x={x} outside segment [{x1}, {x2}]")
    return y1 + (y2 - y1) * (x - x1) / (x2 - x1)


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Piecewise-linear function given by vertices with strictly increasing x.

    Evaluation between vertices is exact linear interpolation; evaluation
    outside the vertex span is an error, never an extrapolation.
    """

    vertices: tuple[Pair, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise DomainError("a piecewise-linear function needs at least one vertex")
        xs = [v[0] for v in self.vertices]
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise DomainError("vertex x-coordinates must be strictly increasing")

    def value(self, x: Fraction) -> Fraction:
        xs = [v[0] for v in self.vertices]
        if not (xs[0] <= x <= xs[-1]):
            raise DomainError(f"x={x} outside span [{xs[0]}, {xs[-1]}]")
        i = bisect_right(xs, x)
        if i == len(xs):
            return self.vertices[-1][1]
        if xs[i] == x or i == 0:
            return self.vertices[i][1]
        return lerp(self.vertices[i - 1], self.vertices[i], x)

    def slopes(self) -> tuple[Fraction, ...]:
        """Consecutive-vertex slopes, left to right."""
        return tuple(
            (y2 - y1) / (x2 - x1)
            for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:])
        )
