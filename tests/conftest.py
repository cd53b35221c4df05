"""Shared fixtures of the test suite."""

import signal

import pytest

# a fault in a loop bound (the brute walk's pruning, a power's compositions)
# can make a test run for hours; this bound turns that hang into a failure
TIME_BOUND_S = 5


@pytest.fixture
def time_bound():
    """Fail the test that uses it once it runs past TIME_BOUND_S seconds.

    Opt-in, for files whose every test takes well under the bound:
    `pytestmark = pytest.mark.usefixtures("time_bound")`.
    """
    if not hasattr(signal, "setitimer"):  # no interval timers on Windows
        yield
        return

    def expired(signum, frame):
        pytest.fail(f"ran past its {TIME_BOUND_S} s bound", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
