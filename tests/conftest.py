"""Guards every test shares: none hangs, and none leaves a child process behind."""

import os
import signal

import pytest

# far above the slowest test (criterion 7, about 5 s, which fails itself past 60 s)
HANG_S = 60


@pytest.fixture(autouse=True)
def bounded_single_process():
    """Fail a test still running after HANG_S seconds (a command blocked on a
    pipe or on a child it forked) and a test that leaves a child unreaped."""
    def hung(signum, frame):
        raise TimeoutError(f"test still running after {HANG_S} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(HANG_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
