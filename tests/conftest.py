import contextlib
import signal

import pytest

from kbonacci import kbonacci


@pytest.fixture(scope="session")
def s2():
    return kbonacci(2)


@pytest.fixture(scope="session")
def s3():
    return kbonacci(3)


@pytest.fixture(scope="session")
def s4():
    return kbonacci(4)


@pytest.fixture
def time_limit():
    """A context manager that raises TimeoutError in the test once `seconds` of wall time have passed."""

    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
