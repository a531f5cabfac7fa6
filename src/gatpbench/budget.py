"""Cooperative wall-clock budgets for long-running algebraic loops.

A Deadline is handed down into every potentially unbounded loop (pseudo-
division rounds, Buchberger pair processing, triangulation passes).  The
loops call check() between steps; overspending raises DeadlineExceeded,
which callers turn into a timeout verdict.
"""

from __future__ import annotations

import math
import time


class DeadlineExceeded(Exception):
    """The wall-clock budget ran out."""


class Deadline:
    __slots__ = ("limit", "_t0")

    def __init__(self, seconds: float | None = None):
        # nan fails both comparisons, so it is rejected along with inf
        if seconds is not None and not 0 < seconds < math.inf:
            raise ValueError("budget must be positive and finite")
        self.limit = seconds
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def expired(self) -> bool:
        return self.limit is not None and self.elapsed() > self.limit

    def check(self) -> None:
        if self.expired():
            raise DeadlineExceeded(f"budget of {self.limit}s exhausted")
