import signal

import pytest

BUDGET_SECONDS = 5


@pytest.fixture
def time_budget():
    """Fail the test with TimeoutError once it runs past BUDGET_SECONDS, instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"over the {BUDGET_SECONDS} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(BUDGET_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
