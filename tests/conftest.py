import signal
import sys
from contextlib import contextmanager

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


@pytest.fixture
def time_limit():
    """``with time_limit(seconds):`` fails the test if the block runs longer.

    The limit is a SIGALRM timer, so it cuts into Python code between
    bytecodes.  On exit the timer is cleared and the previous handler put
    back.
    """

    @contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            pytest.fail(f"took longer than {seconds} s", pytrace=False)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
