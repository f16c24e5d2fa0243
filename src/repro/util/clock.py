"""The virtual clock.

The whole system reads time from a deterministic :class:`VirtualClock`,
which only the scheduler moves, so every run of a simulation is exact and
reproducible.  Times are float seconds.
"""

from __future__ import annotations


class VirtualClock:
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
