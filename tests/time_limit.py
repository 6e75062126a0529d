"""A wall-clock limit on a block of test code, so that a runaway fails the
test instead of hanging the suite.  It uses SIGALRM, so it runs on POSIX
and in the main thread only."""

import contextlib
import signal


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
