import signal

import pytest


@pytest.fixture
def time_limit():
    """time_limit(seconds) makes the test raise TimeoutError once that much wall time
    has passed, so an input that hangs fails its own test instead of stalling the suite."""
    def expire(_signum, _frame):
        raise TimeoutError("still running at the test's time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
