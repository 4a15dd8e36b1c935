"""Constructive extremizers attaining the sharp level-set bound.

Recipes are small algebraic trees of concatenation moves.  Interpreting a
recipe yields a concrete configuration (set plus weight sequence); the
canned constructors below produce, exactly, the configurations that attain
``bellman_value`` on the lattice of curve vertices: full-measure chains at
x = 1, the curve-vertex family at x = 2**-k, and the tower example.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .candidate import bellman_value, vertex_f
from .dyadic import (
    CarlesonSequence,
    Config,
    DyadicInterval,
    DyadicSet,
    ROOT,
    carleson_constant,
    concat_configs,
)
from .rational import DomainError, _index, format_rational

__all__ = [
    "Recipe",
    "Base",
    "Jump",
    "Halve",
    "MixZero",
    "interpret",
    "base_double_config",
    "x1_chain_recipe",
    "curve_vertex_recipe",
    "EXTREMIZER_CURVE_CAP",
    "curve_vertex_config",
    "corollary_config",
    "tower_config",
    "AttainmentTarget",
    "curve_vertex_target",
    "attainment_report",
]

ZERO = Fraction(0)
ONE = Fraction(1)


class Recipe:
    """Base class for extremizer recipes."""


@dataclass(frozen=True)
class Base(Recipe):
    """The double-root base of measure x (``base_double_config``)."""

    x: Fraction


@dataclass(frozen=True)
class Jump(Recipe):
    inner: Recipe


@dataclass(frozen=True)
class Halve(Recipe):
    inner: Recipe


@dataclass(frozen=True)
class MixZero(Recipe):
    inner: Recipe


def base_double_config(x: Fraction) -> Config:
    """Set of measure x equidistributed over both halves, weights on root and children.

    Two copies of the prefix [0, x) under a unit root weight, concatenated
    under another: each child sees average x, so the operator is constant
    2x at height 2.
    """
    half = Config(DyadicSet.prefix(x), CarlesonSequence.from_mapping({ROOT: ONE}))
    return concat_configs(half, half, ONE)


def interpret(recipe: Recipe) -> Config:
    """Interpret a recipe into a concrete configuration."""
    if isinstance(recipe, Base):
        return base_double_config(recipe.x)
    if isinstance(recipe, Jump):
        inner = interpret(recipe.inner)
        return concat_configs(inner, inner, ONE)
    if isinstance(recipe, Halve):
        return concat_configs(interpret(recipe.inner), Config.empty(), ZERO)
    if isinstance(recipe, MixZero):
        return concat_configs(interpret(recipe.inner), Config.full_unweighted(), ZERO)
    raise DomainError(f"unknown recipe node {recipe!r}")


def x1_chain_recipe(m: int) -> Recipe:
    """Chain pinned at full measure: m rounds of averaging with the bare full set, then a jump."""
    if _index(m, "chain length") < 0:
        raise DomainError(f"chain length must be nonnegative, got {m}")
    recipe: Recipe = Base(ONE)
    for _ in range(m):
        recipe = Jump(MixZero(recipe))
    return recipe


def curve_vertex_recipe(m: int, k: int) -> Recipe:
    """Recipe attaining the bound at the k-th vertex of the m-th curve."""
    m, k = _index(m, "curve index"), _index(k, "vertex index")
    if not 0 <= k <= m:
        raise DomainError(f"vertex indices need 0 <= k <= m, got k={k}, m={m}")
    recipe = x1_chain_recipe(m - k)
    for _ in range(k):
        recipe = Jump(Halve(recipe))
    return recipe


# The configuration of curve m has 2**(m+2) - 1 weights, so the time and
# memory to build it double with m: ``extremize 10 0`` takes about 0.2 s as
# a new process (2-core VM, Python 3.11), two thirds of it starting Python
# and importing the package, and about 30 ms building, certifying and
# printing the configuration; m near 22 no longer fits in memory.
EXTREMIZER_CURVE_CAP = 10


def _check_curve_cap(m: int, context: str = "") -> None:
    if m > EXTREMIZER_CURVE_CAP:
        raise DomainError(
            f"{context}the extremizer of curve m={m} has 2**{m + 2} - 1 weights; "
            f"extremizers are capped at m={EXTREMIZER_CURVE_CAP}"
        )


def curve_vertex_config(m: int, k: int) -> Config:
    """Configuration with measure 2**-k, height 2, level-set 2**-m at the vertex level.

    Raises ``DomainError`` above ``EXTREMIZER_CURVE_CAP`` before building anything.
    """
    m, k = _index(m, "curve index"), _index(k, "vertex index")
    _check_curve_cap(m)
    config = interpret(curve_vertex_recipe(m, k))
    if carleson_constant(config.seq) > 2:
        raise AssertionError("constructed sequence exceeds the height budget")
    return config


def corollary_config(n: int, big_n: int) -> Config:
    """Configuration attaining ``corollary_bound(n, big_n)`` exactly."""
    n, big_n = _index(n, "n"), _index(big_n, "big_n")
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if big_n < 3:
        raise DomainError(f"the lattice bound needs big_n >= 3, got {big_n}")
    m = big_n + n - 3
    _check_curve_cap(m, f"the lattice point n={n}, N={big_n} lies on curve m={m}: ")
    return curve_vertex_config(m, n)


def tower_config(n: int) -> Config:
    """Full set with unit weights on the nested prefixes [0, 2**-j), j = 0..n.

    The operator counts the containing weighted intervals, so the level-set
    measure at integer thresholds halves with each level.
    """
    if _index(n, "tower height") < 0:
        raise DomainError(f"tower height must be nonnegative, got {n}")
    seq = CarlesonSequence.from_mapping({DyadicInterval(j, 0): ONE for j in range(n + 1)})
    return Config(DyadicSet.full(), seq)


@dataclass(frozen=True)
class AttainmentTarget:
    """A lattice point with the bound value the construction must reach."""

    x: Fraction
    height: Fraction
    level: Fraction
    value: Fraction


def curve_vertex_target(m: int, k: int) -> AttainmentTarget:
    point = vertex_f(k, m)
    value = bellman_value(point.x, Fraction(2), point.y)
    return AttainmentTarget(point.x, Fraction(2), point.y, value)


def attainment_report(config: Config, target: AttainmentTarget) -> dict:
    """JSON-ready report comparing a configuration against its target.

    The bound covers 0/1 weights only, so a fractional weight raises
    ``DomainError`` (the sequence has already checked that it lies in [0, 1]).
    """
    for iv, w in config.seq.weights:
        if w.denominator != 1:
            raise DomainError(f"the bound covers weights 0 and 1 only, got {w} at {iv}")
    achieved = config.level_set(target.level)
    return {
        "target": {
            "x": format_rational(target.x),
            "A": format_rational(target.height),
            "lambda": format_rational(target.level),
            "B": format_rational(target.value),
        },
        "achieved_V": format_rational(achieved),
        "attained": achieved == target.value,
        "config_measure": format_rational(config.measure),
        "config_height": format_rational(config.height),
    }
