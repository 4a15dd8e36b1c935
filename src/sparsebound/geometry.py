"""Exact rational geometry in the (x, level) half-plane.

Points of the plane and exact linear interpolation between two points.
Both take and return ``Fraction`` values; no rounding ever occurs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .rational import DomainError

__all__ = ["PlanePoint", "lerp"]

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
