import sys

import pytest


@pytest.fixture
def default_digit_limit():
    """Python's default int <-> str digit limit for one test; yields the limit."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield sys.int_info.default_max_str_digits
    finally:
        sys.set_int_max_str_digits(previous)
