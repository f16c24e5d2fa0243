"""Deterministic virtual-time event scheduler.

This is the simulation kernel: every asynchronous thing in the reproduction
(network delivery, appliance timers, context changes, device think time) is
an :class:`Event` in one :class:`Scheduler`.  Running the scheduler advances
the :class:`~repro.util.clock.VirtualClock`; two runs with the same inputs
produce byte-identical traces.

Events at the same timestamp fire in scheduling order (FIFO), which keeps
causality intuitive: if A schedules B and C at the same instant, B fires
before C.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.util.clock import VirtualClock
from repro.util.errors import SchedulerError


class Event:
    """A cancellable callback scheduled at an absolute virtual time."""

    __slots__ = ("time", "callback", "args", "cancelled", "fired",
                 "_scheduler")

    def __init__(
        self, time: float, callback: Callable[..., Any], args: tuple
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._scheduler: "Scheduler | None" = None

    def cancel(self) -> None:
        """Prevent the event from firing; cancelling twice is harmless."""
        if self.cancelled:
            return
        self.cancelled = True
        # A fired event has already left the heap; only a still-queued
        # cancellation affects the scheduler's dead-entry accounting.
        if not self.fired and self._scheduler is not None:
            self._scheduler._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "cancelled" if self.cancelled else "fired" if self.fired else "pending"
        )
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.6f} {name} {state}>"


class Scheduler:
    """Priority-queue scheduler over a :class:`VirtualClock`.

    >>> sched = Scheduler()
    >>> order = []
    >>> _ = sched.call_later(0.2, order.append, "b")
    >>> _ = sched.call_later(0.1, order.append, "a")
    >>> sched.run_until_idle()
    >>> order
    ['a', 'b']
    >>> sched.now()
    0.2
    """

    #: Heaps smaller than this are never compacted: the O(n) rebuild only
    #: pays for itself once a meaningful number of dead entries pile up.
    COMPACT_MIN_SIZE = 64

    def __init__(self, clock: VirtualClock | None = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        #: ``(time, seq, event)`` heap: the unique ``seq`` breaks time
        #: ties in scheduling order, so two events are never compared.
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._fired_count = 0
        # Cancelled-but-still-queued entries, kept live so pending_count()
        # is O(1) and the heap can be compacted before it grows without
        # bound under cancel-heavy timer churn (e.g. backpressure timers).
        self._cancelled_in_heap = 0
        self._compactions = 0

    # -- time -------------------------------------------------------------

    def now(self) -> float:
        return self.clock.now()

    @property
    def fired_count(self) -> int:
        """Number of events that have fired (for tests and diagnostics)."""
        return self._fired_count

    def pending_count(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events."""
        return len(self._queue) - self._cancelled_in_heap

    def next_event_time(self) -> float | None:
        """Virtual time of the earliest live pending event, or ``None``.

        Dead (cancelled) heap heads are reaped on the way, so repeated
        peeks stay cheap.  A reactor uses this to size its ``select()``
        timeout: block for I/O only until the scheduler has work again.
        """
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
            self._cancelled_in_heap -= 1
        return self._queue[0][0] if self._queue else None

    def has_ready(self) -> bool:
        """True if an event is due at (or before) the current instant."""
        when = self.next_event_time()
        return when is not None and when <= self.clock.now() + 1e-12

    # -- scheduling -------------------------------------------------------

    def call_at(self, when: float, callback: Callable, *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``when``."""
        if when < self.clock.now() - 1e-12:
            raise SchedulerError(
                f"cannot schedule at {when}; clock already at {self.clock.now()}"
            )
        event = Event(max(when, self.clock.now()), callback, args)
        event._scheduler = self
        heapq.heappush(self._queue, (event.time, next(self._seq), event))
        return event

    def call_later(self, delay: float, callback: Callable, *args: Any) -> Event:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulerError(f"negative delay: {delay}")
        return self.call_at(self.clock.now() + delay, callback, *args)

    def call_soon(self, callback: Callable, *args: Any) -> Event:
        """Schedule ``callback(*args)`` at the current instant (FIFO)."""
        return self.call_at(self.clock.now(), callback, *args)

    # -- cancellation accounting ------------------------------------------

    def _note_cancelled(self) -> None:
        """A queued event was cancelled; compact once mostly dead.

        The heap keeps cancelled entries until they are popped, so a
        workload that schedules and cancels timers far faster than time
        advances (backpressure churn) would otherwise grow the heap
        without bound.  Rebuilding from the live entries is O(n) and
        amortises against the >50% dead entries it removes.
        """
        self._cancelled_in_heap += 1
        if (len(self._queue) >= self.COMPACT_MIN_SIZE
                and self._cancelled_in_heap * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        self._queue = [e for e in self._queue if not e[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_in_heap = 0
        self._compactions += 1

    # -- execution --------------------------------------------------------

    def _pop_next(self) -> Event | None:
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if not event.cancelled:
                return event
            self._cancelled_in_heap -= 1
        return None

    def step(self) -> bool:
        """Fire the single earliest pending event.

        Returns ``True`` if an event fired, ``False`` if the queue was empty.
        """
        event = self._pop_next()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        event.fired = True
        self._fired_count += 1
        event.callback(*event.args)
        return True

    def run_ready(self, limit: int = 1_000_000) -> int:
        """Fire up to ``limit`` events due at the current instant.

        Unlike :meth:`run_until_idle` this never advances the clock past
        ``now()``: only events already due fire, so a reactor can give each
        of many schedulers a bounded *event budget* per turn without any
        of them running ahead of its own virtual time.  Returns the number
        of events fired (0 when nothing is due).
        """
        if self._running:
            raise SchedulerError("scheduler is not reentrant")
        self._running = True
        fired = 0
        try:
            while fired < limit and self.has_ready():
                self.step()
                fired += 1
            return fired
        finally:
            self._running = False

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Fire events until none remain; returns the number fired.

        ``max_events`` guards against runaway self-rescheduling loops.
        """
        if self._running:
            raise SchedulerError("scheduler is not reentrant")
        self._running = True
        fired = 0
        try:
            while fired < max_events:
                if not self.step():
                    return fired
                fired += 1
            raise SchedulerError(
                f"run_until_idle exceeded {max_events} events; "
                "likely a self-perpetuating event loop"
            )
        finally:
            self._running = False

    def run_until(self, deadline: float, max_events: int = 1_000_000) -> int:
        """Fire all events with time <= deadline, then advance the clock.

        Returns the number of events fired.  The clock always ends exactly at
        ``deadline`` even if the queue empties earlier, so periodic processes
        observe a consistent notion of elapsed time.
        """
        if self._running:
            raise SchedulerError("scheduler is not reentrant")
        if deadline < self.clock.now():
            raise SchedulerError(
                f"deadline {deadline} is in the past (now={self.clock.now()})"
            )
        self._running = True
        fired = 0
        try:
            while fired < max_events:
                while self._queue and self._queue[0][2].cancelled:
                    heapq.heappop(self._queue)
                    self._cancelled_in_heap -= 1
                if not self._queue or self._queue[0][0] > deadline:
                    break
                self.step()
                fired += 1
            else:
                raise SchedulerError(
                    f"run_until exceeded {max_events} events before {deadline}"
                )
            self.clock.advance_to(deadline)
            return fired
        finally:
            self._running = False

    def run_for(self, duration: float, max_events: int = 1_000_000) -> int:
        """Convenience: :meth:`run_until` ``now() + duration``."""
        return self.run_until(self.clock.now() + duration, max_events)
