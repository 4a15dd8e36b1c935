import sys
from fractions import Fraction as F

import pytest

from sparsebound.rational import DomainError, format_rational, parse_rational


def test_parse_basic():
    assert parse_rational("5/2") == F(5, 2)
    assert parse_rational("-3/6") == F(-1, 2)
    assert parse_rational("7") == F(7)
    assert parse_rational(" -2 ") == F(-2)
    assert parse_rational("+1/3") == F(1, 3)


def test_parse_rejects_non_rationals():
    for bad in ("0.5", "1/2/3", "", "a/b", "1/0", "1e3", "1 / 2"):
        with pytest.raises(DomainError):
            parse_rational(bad)


def test_format_basic():
    assert format_rational(F(5, 2)) == "5/2"
    assert format_rational(F(-1, 2)) == "-1/2"
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(3) == "3"


def test_round_trip():
    for q in (F(0), F(22, 7), F(-9, 8), F(10**9, 3)):
        assert parse_rational(format_rational(q)) == q


def test_round_trip_beyond_digit_limit(default_digit_limit):
    for q in (F(1, 2**20000), F(-(3**12000), 7), F(2**20000 + 1, 3**9000)):
        text = format_rational(q)
        assert len(text) > default_digit_limit
        assert parse_rational(text) == q
    assert sys.get_int_max_str_digits() == default_digit_limit
