"""Shared fixtures of the test suite."""

import signal

import pytest

# a fault in a loop bound (the brute walk's pruning, a power's compositions)
# can make a test run for hours; this bound turns that hang into a failure
TIME_BOUND_S = 5


def pytest_configure(config):
    config.addinivalue_line("markers", f"unbounded: runs past the {TIME_BOUND_S} s bound of time_bound on purpose")


@pytest.fixture(autouse=True)
def time_bound(request):
    """Fail every test once it runs past TIME_BOUND_S seconds.

    A test marked `@pytest.mark.unbounded` opts out.
    """
    if request.node.get_closest_marker("unbounded") or not hasattr(signal, "setitimer"):  # no interval timers on Windows
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
