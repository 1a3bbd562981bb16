"""Clock abstraction so pipelines run identically on wall time or virtual time."""

from __future__ import annotations

import math
import time


class MonotonicClock:
    """Wall clock; nanoseconds from an arbitrary monotonic origin."""

    def now_ns(self) -> int:
        return time.monotonic_ns()


class VirtualClock:
    """Deterministic clock advanced explicitly by a driver."""

    def __init__(self, start_ns: int = 0):
        self._now = start_ns

    def now_ns(self) -> int:
        return self._now

    def advance_ms(self, ms: float) -> int:
        self._now += int(ms * 1_000_000)
        return self._now

    def advance_ns(self, ns: int) -> int:
        self._now += ns
        return self._now


def ms_to_ns(ms: float) -> int:
    return int(ms * 1_000_000)


def is_period_ms(value) -> bool:
    """True for an int or float (not a bool) that is finite and at least one
    nanosecond once :func:`ms_to_ns` converts it: deadlines advance by whole
    nanoseconds, so a shorter period would never move them."""
    return type(value) in (int, float) and 1 <= value * 1_000_000 < math.inf
