import os
import signal

import pytest


@pytest.fixture
def no_child_left():
    """Fails a test that leaves a child of this process behind, running or
    unreaped, and bounds the test's waits: past a minute an alarm raises
    ``TimeoutError`` in whatever wait is blocked, and again 5 s later in a
    wait that the first alarm's unwinding starts."""

    def expire(signum, frame):
        signal.alarm(5)
        raise TimeoutError("a forked child did not end within the test's time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
