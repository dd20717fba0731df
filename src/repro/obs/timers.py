"""Shared wall-clock timing utility.

Every timing the library reports (solve and query latency histograms,
serve CLI warm-up, benchmarks) goes through :class:`Timer`, so reported
numbers come from one monotonic-clock code path (``time.perf_counter``).
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = ["Timer"]


class Timer:
    """Context-manager stopwatch on the monotonic clock::

        with Timer() as t:
            work()
        print(t.seconds)

    ``seconds`` reads the elapsed time; inside the block it returns the
    running elapsed time, after exit the frozen total.
    """

    __slots__ = ("_start", "_elapsed")

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self._elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        # Exiting a timer that was never entered is a no-op, not a
        # TypeError on ``None`` arithmetic.
        if self._start is not None:
            self._elapsed = time.perf_counter() - self._start
            self._start = None
        return False

    @property
    def seconds(self) -> float:
        if self._start is not None:
            return time.perf_counter() - self._start
        return self._elapsed
