"""Exact level-set bounds for dyadic sparse averaging operators.

The package evaluates the sharp bound ``bellman_value(x, a, level)`` on the
measure of the set where a sparse averaging operator applied to an indicator
reaches a level, simulates dyadic configurations exactly, constructs the
configurations attaining the bound, and verifies the defining inequalities
with exact rational arithmetic.

The top level holds only the names of the README example; everything else
is imported from its module (``sparsebound.candidate``, ``.dyadic``,
``.extremal``, ``.verify`` and so on).
"""

from .candidate import bellman_value, vertex_f
from .extremal import curve_vertex_config
from .rational import DomainError

__all__ = ["bellman_value", "vertex_f", "curve_vertex_config", "DomainError", "__version__"]

__version__ = "0.1.0"
