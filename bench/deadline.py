"""Per-operation deadline on SIGALRM, with no helper thread or process."""

from __future__ import annotations

import signal
from contextlib import contextmanager


class DeadlineExceeded(BaseException):
    """Raised inside an operation that ran past its deadline.

    A BaseException, so the library's and the CLI's `except ValueError` /
    `except KeyError` / `except AssertionError` handlers cannot swallow it.
    """


@contextmanager
def deadline(seconds: float):
    def on_alarm(signum, frame):
        raise DeadlineExceeded(f"deadline of {seconds} s exceeded")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
