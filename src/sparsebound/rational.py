"""Exact rational scalars and their repo-wide text format.

Every coordinate, weight, measure and function value in this package is a
``fractions.Fraction``.  The serialization convention is ``"p/q"`` in lowest
terms and ASCII digits, with ``"p"`` alone for integers; no floating point
appears anywhere.
``_exact`` and ``_index`` are the one boundary check of the public entry
points: they refuse floats and bools with ``DomainError``.
"""

from __future__ import annotations

import numbers
import re
import sys
from fractions import Fraction

__all__ = ["DomainError", "parse_rational", "format_rational"]


class DomainError(ValueError):
    """An argument lies outside the domain of the requested operation."""


def _exact(value: Fraction | int, name: str) -> Fraction:
    """An argument of a public entry point as a Fraction.

    Floats and bools are refused rather than rounded or read as 0/1, so no
    inexact value gets into the exact arithmetic or leaks out of it.
    """
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, numbers.Rational) and not isinstance(value, bool):
        return Fraction(value)
    raise DomainError(f"{name} must be an int or a Fraction, got {value!r}")


def _index(value: int, name: str) -> int:
    """An index argument of a public entry point, as an int (bools refused)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DomainError(f"{name} must be an int, got {value!r}")


# ASCII digits only: without re.ASCII, \d also matches other scripts' digits,
# which int() would read.
_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z", re.ASCII)

# Python limits int <-> decimal string conversions to a settable number of
# digits, which may not be set below this threshold; longer numbers are
# converted in pieces of at most this many digits, whatever the limit.
_SAFE_DIGITS = sys.int_info.str_digits_check_threshold
_SAFE_BITS = _SAFE_DIGITS * 3  # 2**(3d) < 10**d


def _int_from_digits(digits: str) -> int:
    if len(digits) <= _SAFE_DIGITS:
        return int(digits)
    low = len(digits) // 2
    return _int_from_digits(digits[:-low]) * 10**low + _int_from_digits(digits[-low:])


def _digits(n: int) -> str:
    if n < 0:
        return "-" + _digits(-n)
    if n.bit_length() <= _SAFE_BITS:
        return str(n)
    # About half of n's decimal digits (log10(2) > 3/10): the high part is
    # nonzero, and the low part is padded back to exactly ``low`` digits.
    low = n.bit_length() * 3 // 20
    high, rest = divmod(n, 10**low)
    return _digits(high) + _digits(rest).zfill(low)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (or a bare integer ``"p"``) into an exact fraction."""
    token = text.strip()
    if not _RATIONAL_RE.match(token):
        raise DomainError(f"not a rational token: {text!r}")
    sign = -1 if token[0] == "-" else 1
    num, _, den = token.lstrip("+-").partition("/")
    denominator = _int_from_digits(den) if den else 1
    if denominator == 0:
        raise DomainError(f"zero denominator: {text!r}")
    return Fraction(sign * _int_from_digits(num), denominator)


def format_rational(value: Fraction | int) -> str:
    """Render a rational in lowest terms as ``"p/q"``, or ``"p"`` if integral.

    A float or a bool raises ``DomainError``, as at every entry point.
    """
    q = _exact(value, "value")
    if q.denominator == 1:
        return _digits(q.numerator)
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"
