"""Cooperative wall-clock budgets for long-running algebraic loops.

A Deadline is handed down into every potentially unbounded loop (pseudo-
division rounds, Buchberger pair processing, triangulation passes).  The
loops call check() between steps; overspending raises DeadlineExceeded,
which callers turn into a timeout verdict.
"""

from __future__ import annotations

import time


class DeadlineExceeded(Exception):
    """The wall-clock budget ran out."""


def budget_seconds(seconds: float) -> float:
    """seconds itself, or ValueError unless it is positive and finite."""
    # nan fails both comparisons, so it is rejected along with inf
    if not 0 < seconds < float("inf"):
        raise ValueError("budget must be positive and finite")
    return seconds


class Deadline:
    __slots__ = ("limit", "_t0")

    def __init__(self, seconds: float | None = None):
        self.limit = None if seconds is None else budget_seconds(seconds)
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def check(self) -> None:
        if self.limit is not None and self.elapsed() > self.limit:
            raise DeadlineExceeded(f"budget of {self.limit}s exhausted")
