"""Unit tests for the virtual-time scheduler and clocks."""

import pytest

from repro.util import Scheduler, SchedulerError, VirtualClock
from repro.util.scheduler import Event


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(10.0).now() == 10.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance(1.5)
        assert clock.now() == 1.5

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(3.0)
        assert clock.now() == 3.0

    def test_cannot_move_backward(self):
        clock = VirtualClock(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)


class TestScheduler:
    def test_events_fire_in_time_order(self):
        sched = Scheduler()
        order = []
        sched.call_later(0.3, order.append, "c")
        sched.call_later(0.1, order.append, "a")
        sched.call_later(0.2, order.append, "b")
        sched.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self):
        sched = Scheduler()
        order = []
        for tag in "abcde":
            sched.call_at(1.0, order.append, tag)
        sched.run_until_idle()
        assert order == list("abcde")

    def test_clock_advances_to_last_event(self):
        sched = Scheduler()
        sched.call_later(2.5, lambda: None)
        sched.run_until_idle()
        assert sched.now() == 2.5

    def test_call_soon_runs_at_current_time(self):
        sched = Scheduler()
        times = []
        sched.call_later(1.0, lambda: sched.call_soon(
            lambda: times.append(sched.now())))
        sched.run_until_idle()
        assert times == [1.0]

    def test_cancel_prevents_firing(self):
        sched = Scheduler()
        fired = []
        event = sched.call_later(1.0, fired.append, "x")
        event.cancel()
        sched.run_until_idle()
        assert fired == []

    def test_cancel_twice_is_harmless(self):
        sched = Scheduler()
        event = sched.call_later(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sched.run_until_idle() == 0

    def test_scheduling_in_past_rejected(self):
        sched = Scheduler()
        sched.call_later(1.0, lambda: None)
        sched.run_until_idle()
        with pytest.raises(SchedulerError):
            sched.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulerError):
            Scheduler().call_later(-0.1, lambda: None)

    @pytest.mark.parametrize("run", [
        lambda sched: sched.run_ready(),
        lambda sched: sched.run_until_idle(),
        lambda sched: sched.run_until(sched.now() + 1.0),
    ], ids=["run_ready", "run_until_idle", "run_until"])
    def test_an_event_cannot_run_its_own_scheduler(self, run):
        sched = Scheduler()
        errors = []

        def reenter():
            try:
                run(sched)
            except SchedulerError as error:
                errors.append(str(error))

        sched.call_soon(reenter)
        sched.run_until_idle()
        assert errors == ["scheduler is not reentrant"]

    def test_events_can_schedule_events(self):
        sched = Scheduler()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 5:
                sched.call_later(0.1, chain, n + 1)

        sched.call_soon(chain, 1)
        sched.run_until_idle()
        assert seen == [1, 2, 3, 4, 5]
        assert sched.now() == pytest.approx(0.4)

    def test_run_until_stops_at_deadline(self):
        sched = Scheduler()
        fired = []
        sched.call_later(1.0, fired.append, "early")
        sched.call_later(5.0, fired.append, "late")
        count = sched.run_until(2.0)
        assert count == 1
        assert fired == ["early"]
        assert sched.now() == 2.0

    def test_run_until_then_idle_fires_remaining(self):
        sched = Scheduler()
        fired = []
        sched.call_later(5.0, fired.append, "late")
        sched.run_until(2.0)
        sched.run_until_idle()
        assert fired == ["late"]

    def test_run_for_advances_relative(self):
        sched = Scheduler()
        sched.run_for(1.0)
        sched.run_for(1.0)
        assert sched.now() == 2.0

    def test_run_until_rejects_past_deadline(self):
        sched = Scheduler()
        sched.run_for(2.0)
        with pytest.raises(SchedulerError):
            sched.run_until(1.0)

    def test_runaway_loop_before_a_deadline_detected(self):
        sched = Scheduler()

        def forever():
            sched.call_soon(forever)

        sched.call_soon(forever)
        with pytest.raises(SchedulerError, match="before 1.0"):
            sched.run_until(1.0, max_events=100)

    def test_runaway_loop_detected(self):
        sched = Scheduler()

        def forever():
            sched.call_soon(forever)

        sched.call_soon(forever)
        with pytest.raises(SchedulerError):
            sched.run_until_idle(max_events=100)

    def test_pending_count_excludes_cancelled(self):
        sched = Scheduler()
        sched.call_later(1.0, lambda: None)
        event = sched.call_later(2.0, lambda: None)
        event.cancel()
        assert sched.pending_count() == 1

    def test_cancel_heavy_churn_keeps_heap_bounded(self):
        """Backpressure-style timer churn: schedule+cancel in a tight loop.

        Cancelled entries must not accumulate in the heap until popped —
        the scheduler compacts once more than half the heap is dead.
        """
        sched = Scheduler()
        keepers = [sched.call_later(10.0 + i, lambda: None)
                   for i in range(10)]
        for i in range(10_000):
            sched.call_later(1.0 + i * 1e-4, lambda: None).cancel()
        # without compaction the heap would hold ~10_010 entries
        assert len(sched._queue) < 2 * len(keepers) + Scheduler.COMPACT_MIN_SIZE
        assert sched.pending_count() == len(keepers)
        assert sched._compactions > 0
        assert sched.run_until_idle() == len(keepers)
        assert sched.pending_count() == 0

    def test_compaction_preserves_fifo_order(self):
        sched = Scheduler()
        order = []
        survivors = []
        for i in range(200):
            event = sched.call_at(1.0, order.append, i)
            if i % 7 == 0:
                survivors.append(i)
            else:
                event.cancel()
        assert sched._compactions > 0
        sched.run_until_idle()
        assert order == survivors

    def test_same_time_events_stay_fifo_across_a_large_compaction(self):
        sched = Scheduler()
        order = []
        survivors = []
        for i in range(3000):
            when = 1.0 if i % 3 else 2.0
            event = sched.call_at(when, order.append, i)
            if i % 5 == 0:
                survivors.append((when, i))
            else:
                event.cancel()
        assert sched._compactions > 0
        assert len(sched._queue) < 2 * len(survivors)
        sched.run_until_idle()
        assert order == [i for _, i in sorted(survivors)]

    def test_events_are_never_compared(self, monkeypatch):
        """Heap order comes from ``(time, seq)`` alone: two events at one
        instant are ordered by their scheduling sequence number."""
        def refuse(self, other):
            raise AssertionError("two Events were compared")

        for name in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__",
                     "__ge__"):
            monkeypatch.setattr(Event, name, refuse)
        sched = Scheduler()
        order = []
        events = [sched.call_at(1.0, order.append, i) for i in range(500)]
        for event in events[::2]:
            event.cancel()
        sched.call_soon(order.append, "now")
        sched.run_until(1.0)
        assert order == ["now"] + list(range(1, 500, 2))

    def test_cancel_after_fire_does_not_corrupt_accounting(self):
        sched = Scheduler()
        event = sched.call_later(1.0, lambda: None)
        sched.call_later(2.0, lambda: None)
        sched.run_until_idle()
        event.cancel()       # already fired: must not touch the counter
        event.cancel()       # and cancelling twice stays harmless
        sched.call_later(3.0, lambda: None)
        assert sched.pending_count() == 1

    def test_cancel_inside_callback_is_safe(self):
        sched = Scheduler()
        fired = []
        later = sched.call_later(2.0, fired.append, "later")

        def fire_and_cancel():
            fired.append("first")
            later.cancel()

        sched.call_later(1.0, fire_and_cancel)
        sched.run_until_idle()
        assert fired == ["first"]
        assert sched.pending_count() == 0

    def test_fired_count(self):
        sched = Scheduler()
        for _ in range(3):
            sched.call_later(1.0, lambda: None)
        sched.run_until_idle()
        assert sched.fired_count == 3

    def test_step_returns_false_when_empty(self):
        assert Scheduler().step() is False

    def test_args_passed_to_callback(self):
        sched = Scheduler()
        result = []
        sched.call_soon(lambda a, b: result.append(a + b), 2, 3)
        sched.run_until_idle()
        assert result == [5]
