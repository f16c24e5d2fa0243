"""Clock abstractions.

The whole system is written against the :class:`Clock` interface so the same
code runs under a deterministic :class:`VirtualClock` (tests, simulation) or
a :class:`MonotonicClock` (interactive demos, benchmarks that want wall
time).  Times are float seconds.
"""

from __future__ import annotations

import time


class Clock:
    """Interface: something that can tell the current time in seconds."""

    def now(self) -> float:
        raise NotImplementedError


class VirtualClock(Clock):
    """A clock that only moves when told to.

    The :class:`~repro.util.scheduler.Scheduler` advances it as events fire,
    which makes every latency in the simulation exact and reproducible.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to absolute time ``t`` (never backward)."""
        if t < self._now:
            raise ValueError(
                f"virtual clock cannot move backward: {t} < {self._now}"
            )
        self._now = float(t)

    def advance(self, dt: float) -> None:
        """Move the clock forward by ``dt`` seconds."""
        if dt < 0:
            raise ValueError(f"negative clock advance: {dt}")
        self._now += dt


class MonotonicClock(Clock):
    """Wall-clock time via :func:`time.monotonic`, offset to start at zero."""

    def __init__(self) -> None:
        self._origin = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._origin
