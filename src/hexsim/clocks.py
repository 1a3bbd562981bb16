"""Clock abstraction so pipelines run identically on wall time or virtual time."""

from __future__ import annotations

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
