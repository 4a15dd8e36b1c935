"""Constructive extremizers attaining the sharp level-set bound.

Every extremizer is built by one move, ``Concat(left, right, gamma)``: two
configurations halved onto [0, 1/2) and [1/2, 1) under a root weight
gamma.  A recipe is a DAG of these nodes with ``Config`` leaves, and
``interpret`` builds it, a child shared by both sides once.  The moves
``Base``, ``Jump``, ``Halve`` and ``MixZero`` are ``Concat`` nodes of a fixed
shape.  The canned constructors below produce, exactly, the configurations
that attain ``bellman_value`` on the lattice of curve vertices: full-measure
chains at x = 1, the curve-vertex family at x = 2**-k, and the tower example.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .candidate import _corollary_point, bellman_value, corollary_bound, vertex_f
from .dyadic import (
    CarlesonSequence,
    Config,
    DyadicInterval,
    DyadicSet,
    ROOT,
    carleson_constant,
    concat_configs,
)
from .rational import DomainError, _index

__all__ = [
    "Concat",
    "Base",
    "Jump",
    "Halve",
    "MixZero",
    "interpret",
    "curve_vertex_recipe",
    "EXTREMIZER_CURVE_CAP",
    "curve_vertex_config",
    "corollary_config",
    "tower_config",
    "AttainmentTarget",
    "curve_vertex_target",
    "corollary_target",
    "attainment_report",
]

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True, eq=False)
class Concat:
    """Recipe node: ``left`` and ``right`` halved side by side, the root weighted by ``gamma``.

    The children are ``Concat`` nodes or ``Config`` leaves.  The measure is
    the mean of the children's and the height gamma plus the mean of theirs.
    Nodes compare and hash by identity, in constant time on a shared DAG.
    """

    left: Concat | Config
    right: Concat | Config
    gamma: Fraction


def Base(x: Fraction) -> Concat:
    """Set of measure x equidistributed over both halves, weights on root and children.

    Two copies of the prefix [0, x) under a unit root weight, concatenated
    under another: each child sees average x, so the operator is constant
    2x at height 2.
    """
    half = Config(DyadicSet.prefix(x), CarlesonSequence.from_mapping({ROOT: ONE}))
    return Concat(half, half, ONE)


def Jump(recipe: Concat | Config) -> Concat:
    """Two copies under a unit root weight: the attained level moves up by the measure."""
    return Concat(recipe, recipe, ONE)


def Halve(recipe: Concat | Config) -> Concat:
    """Beside the empty configuration: measure, height and the level sets above 0 halve."""
    return Concat(recipe, Config.empty(), ZERO)


def MixZero(recipe: Concat | Config) -> Concat:
    """Beside the bare full set: the measure moves halfway to 1, the rest halves as in ``Halve``."""
    return Concat(recipe, Config.full_unweighted(), ZERO)


def interpret(recipe: Concat | Config) -> Config:
    """Build the configuration of a recipe; a child shared by both sides is built once."""
    if isinstance(recipe, Config):
        return recipe
    if not isinstance(recipe, Concat):
        raise DomainError(f"unknown recipe node {recipe!r}")
    left = interpret(recipe.left)
    right = left if recipe.right is recipe.left else interpret(recipe.right)
    return concat_configs(left, right, recipe.gamma)


def curve_vertex_recipe(m: int, k: int) -> Concat:
    """Recipe attaining the bound at the k-th vertex of the m-th curve.

    From the base of full measure, m - k rounds of averaging with the bare
    full set, each followed by a jump, give the chain pinned at x = 1; then
    k rounds of halving, each followed by a jump, bring the measure to 2**-k.
    """
    m, k = _index(m, "curve index"), _index(k, "vertex index")
    if not 0 <= k <= m:
        raise DomainError(f"vertex indices need 0 <= k <= m, got k={k}, m={m}")
    recipe = Base(ONE)
    for _ in range(m - k):
        recipe = Jump(MixZero(recipe))
    for _ in range(k):
        recipe = Jump(Halve(recipe))
    return recipe


# Curve m's configuration has 2**(m+2) - 1 weights, so time and memory double
# with m.  ``extremize 10 0`` takes about 0.14 s as a new process (2-core VM,
# Python 3.11), about 20 ms of it building, certifying and printing the
# configuration and the rest starting Python; m near 22 no longer fits in memory.
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
    """Configuration attaining ``corollary_bound(n, big_n)``; checks the cap before building."""
    n, big_n = _corollary_point(n, big_n)
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


def corollary_target(n: int, big_n: int) -> AttainmentTarget:
    """The lattice point of ``corollary_bound``: vertex n of curve m = big_n + n - 3."""
    value = corollary_bound(n, big_n)
    point = vertex_f(n, big_n + n - 3)
    return AttainmentTarget(point.x, Fraction(2), point.y, value)


def attainment_report(config: Config, target: AttainmentTarget) -> dict:
    """The report comparing a configuration against its target, in exact values.

    Every value but the ``attained`` bool is a ``Fraction``.  The bound covers
    0/1 weights only, so a fractional weight raises ``DomainError`` (the
    sequence has already checked that it lies in [0, 1]).
    """
    if config.seq._den != 1:
        iv, w = next((iv, w) for iv, w in config.seq.weights if w.denominator != 1)
        raise DomainError(f"the bound covers weights 0 and 1 only, got {w} at {iv}")
    achieved = config.level_set(target.level)
    return {
        "target": {"x": target.x, "A": target.height, "lambda": target.level, "B": target.value},
        "achieved_V": achieved,
        "attained": achieved == target.value,
        "config_measure": config.measure,
        "config_height": config.height,
    }
