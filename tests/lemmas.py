"""The transport lemmas of the (x, level) plane, beside the tests that check them.

The jump move ``(x, l) -> (x, l + x)``, the halving move
``(x, l) -> (x/2, l)`` and their composition, upward rays, fans of rays
(angle sectors) and the per-level interpolant between two rays.  The level
curves of ``sparsebound.candidate`` are built from these moves; the tests
check the lemmas themselves and that the curves obey them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from sparsebound.geometry import PlanePoint
from sparsebound.rational import DomainError


def jump_map(p: PlanePoint) -> PlanePoint:
    """The jump move: raise the level by the x-coordinate."""
    return PlanePoint(p.x, p.y + p.x)


def scale_map(p: PlanePoint) -> PlanePoint:
    """The halving move: halve the x-coordinate, keep the level."""
    return PlanePoint(p.x / 2, p.y)


def step_map(p: PlanePoint) -> PlanePoint:
    """Halving followed by jump: ``(x, l) -> (x/2, l + x/2)``."""
    return jump_map(scale_map(p))


def jump_parameter(a: Fraction) -> Fraction:
    """Reciprocal-slope parameter of the image of a ray under the jump.

    Strictly increasing and concave on ``a > 0``.
    """
    if a <= 0:
        raise DomainError(f"ray parameter must be positive, got {a}")
    return a / (1 + a)


@dataclass(frozen=True)
class Ray:
    """Upward ray from ``center`` with reciprocal slope ``parameter`` > 0."""

    center: PlanePoint
    parameter: Fraction

    def __post_init__(self) -> None:
        if self.parameter <= 0:
            raise DomainError(f"ray parameter must be positive, got {self.parameter}")


def ray_x(ray: Ray, level: Fraction) -> Fraction:
    """x-coordinate of the ray at a level at or above its center."""
    if level < ray.center.y:
        raise DomainError(f"level {level} below ray center {ray.center.y}")
    return ray.parameter * (level - ray.center.y) + ray.center.x


def jump_ray(ray: Ray) -> Ray:
    """Image of a ray under the jump move: center jumped, parameter mapped."""
    return Ray(jump_map(ray.center), jump_parameter(ray.parameter))


@dataclass(frozen=True)
class AngleSector:
    """Fan of rays from ``center`` with parameters in ``[a_lo, a_hi]``."""

    center: PlanePoint
    a_lo: Fraction
    a_hi: Fraction

    def __post_init__(self) -> None:
        if not (0 < self.a_lo < self.a_hi):
            raise DomainError(f"sector needs 0 < a_lo < a_hi, got {self.a_lo}, {self.a_hi}")


def jump_sector(sector: AngleSector) -> AngleSector:
    """Image of a sector under the jump move; ordering is preserved."""
    return AngleSector(
        jump_map(sector.center),
        jump_parameter(sector.a_lo),
        jump_parameter(sector.a_hi),
    )


def sector_interp_value(
    sector: AngleSector, v_lo: Fraction, v_hi: Fraction, a: Fraction
) -> Fraction:
    """Value of the per-level linear interpolant along the ray with parameter ``a``.

    Interpolating ``v_lo`` on the ``a_lo`` edge and ``v_hi`` on the ``a_hi``
    edge along each horizontal line yields a function that is constant on
    rays; this returns its value on the ray with parameter ``a``.
    """
    if not (sector.a_lo <= a <= sector.a_hi):
        raise DomainError(f"parameter {a} outside sector [{sector.a_lo}, {sector.a_hi}]")
    return (v_hi - v_lo) * (a - sector.a_lo) / (sector.a_hi - sector.a_lo) + v_lo
