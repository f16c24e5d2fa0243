"""Simulation kernel utilities: clock, scheduler, ids, deterministic RNG.

Everything in the reproduction runs on a *virtual* clock so that tests and
benchmarks are deterministic: network latency, device think time and context
changes are scheduled events, not wall-clock sleeps.
"""

from repro.util.clock import VirtualClock
from repro.util.errors import (
    ProtocolError,
    ReactorError,
    ReproError,
    SchedulerError,
    TransportClosed,
    TransportError,
)
from repro.util.ids import guid_from_seed
from repro.util.scheduler import Event, Scheduler

__all__ = [
    "Event",
    "ProtocolError",
    "ReactorError",
    "ReproError",
    "Scheduler",
    "SchedulerError",
    "TransportClosed",
    "TransportError",
    "VirtualClock",
    "guid_from_seed",
]
