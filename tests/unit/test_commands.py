"""Unit tests for the command spine (repro.app.commands) and the
messaging-layer guards underneath it (timeouts, EGONE synthesis)."""

from pathlib import Path

import pytest

from repro.app import FcmHandle
from repro.app.commands import (
    Command,
    CommandError,
    CommandLog,
    CommandSpine,
    CommandState,
    TERMINAL_STATES,
    coalescible,
)
from repro.havi import HomeNetwork, SEID, SoftwareElement
from repro.havi.messaging import MessageSystem, MessageType
from repro.util import Scheduler
from repro.util.ids import guid_from_seed


class Responder(SoftwareElement):
    """Scriptable request target: replies SUCCESS/failure, or never."""

    def __init__(self, seid, messaging, mode="ok"):
        super().__init__(seid, messaging)
        self.mode = mode
        self.received = []

    def handle_request(self, message):
        self.received.append((message.opcode, dict(message.payload)))
        if self.mode == "ok":
            self.reply(message, {"echo": message.opcode})
        elif self.mode == "fail":
            self.reply(message, {"detail": "scripted failure"},
                       status="EFAIL")
        # "silent": never reply — the timeout guard must recover


def rig(mode="ok"):
    scheduler = Scheduler()
    messaging = MessageSystem(scheduler)
    requester = SoftwareElement(SEID(guid_from_seed("req"), 0), messaging)
    requester.attach()
    responder = Responder(SEID(guid_from_seed("resp"), 1), messaging,
                          mode=mode)
    responder.attach()
    spine = CommandSpine(requester)
    return scheduler, messaging, requester, responder, spine


class TestCommandLifecycle:
    def test_success_path(self):
        scheduler, _, _, responder, spine = rig()
        command = spine.submit(responder.seid, "power.set", {"on": True},
                               origin="api")
        assert command.state is CommandState.INFLIGHT
        assert not command.done
        scheduler.run_until_idle()
        assert command.state is CommandState.DONE
        assert command.ok
        assert command.status == "SUCCESS"
        assert command.result == {"echo": "power.set"}
        assert command.latency_s is not None and command.latency_s > 0

    def test_failure_path(self):
        scheduler, _, _, responder, spine = rig(mode="fail")
        command = spine.submit(responder.seid, "power.set", {"on": True})
        scheduler.run_until_idle()
        assert command.state is CommandState.FAILED
        assert command.status == "EFAIL"
        assert command.detail == "scripted failure"

    def test_timeout_on_virtual_clock(self):
        scheduler, messaging, _, responder, spine = rig(mode="silent")
        command = spine.submit(responder.seid, "power.set", {"on": True},
                               timeout_s=1.5)
        scheduler.run_until_idle()
        assert command.state is CommandState.TIMED_OUT
        assert command.status == "ETIMEOUT"
        assert command.latency_s == pytest.approx(1.5)
        assert messaging.requests_timed_out == 1
        assert not messaging._pending  # no leaked entry

    def test_reply_cancels_timer_without_dragging_clock(self):
        scheduler, _, _, responder, spine = rig()
        spine.submit(responder.seid, "power.set", {"on": True})
        scheduler.run_until_idle()
        # the 2 s guard timer must be cancelled, not fired: settling may
        # not fast-forward the home by the timeout
        assert scheduler.now() < 0.01

    def test_terminal_exactly_once(self):
        scheduler, _, _, responder, spine = rig()
        command = spine.submit(responder.seid, "power.set", {"on": True})
        scheduler.run_until_idle()
        assert command.state in TERMINAL_STATES
        with pytest.raises(CommandError):
            command._finish(CommandState.DONE, 0.0)

    def test_latency_needs_a_send_and_a_terminal_state(self):
        scheduler, _, _, responder, spine = rig()
        first = spine.submit(responder.seid, "volume.set", {"volume": 1})
        second = spine.submit(responder.seid, "volume.set", {"volume": 2})
        third = spine.submit(responder.seid, "volume.set", {"volume": 3})
        assert first.latency_s is None  # sent, not yet answered
        scheduler.run_until_idle()
        assert first.latency_s is not None and first.latency_s >= 0
        # superseded while queued: never sent, so no latency
        assert second.state is CommandState.SUPERSEDED
        assert second.latency_s is None
        assert third.ok

    def test_a_command_is_sent_once(self):
        scheduler, _, _, responder, spine = rig()
        command = spine.submit(responder.seid, "power.set", {"on": True})
        with pytest.raises(CommandError, match="sent twice"):
            command._mark_inflight(0.0, 99)

    def test_a_command_finishes_only_in_a_terminal_state(self):
        scheduler, _, _, responder, spine = rig()
        command = spine.submit(responder.seid, "power.set", {"on": True})
        with pytest.raises(CommandError, match="not a terminal state"):
            command._finish(CommandState.INFLIGHT, 0.0)
        assert command.state is CommandState.INFLIGHT

    def test_on_done_fires_late_subscriber_immediately(self):
        scheduler, _, _, responder, spine = rig()
        command = spine.submit(responder.seid, "power.set", {"on": True})
        seen = []
        command.on_done(lambda c: seen.append(c.state))
        scheduler.run_until_idle()
        command.on_done(lambda c: seen.append("late"))
        assert seen == [CommandState.DONE, "late"]


class TestCoalescing:
    def test_set_writes_coalesce_last_wins(self):
        scheduler, _, _, responder, spine = rig()
        first = spine.submit(responder.seid, "volume.set", {"volume": 10})
        second = spine.submit(responder.seid, "volume.set", {"volume": 20})
        third = spine.submit(responder.seid, "volume.set", {"volume": 30})
        assert first.state is CommandState.INFLIGHT
        assert second.state is CommandState.SUPERSEDED
        assert second.superseded_by == third.command_id
        assert third.state is CommandState.QUEUED
        scheduler.run_until_idle()
        assert first.ok and third.ok
        # the middle write never hit the wire
        assert [p for _, p in responder.received] == [
            {"volume": 10}, {"volume": 30}]
        assert spine.coalesced == 1
        assert spine.dispatched == 2

    def test_superseded_never_fires_on_reply(self):
        scheduler, _, _, responder, spine = rig()
        replies = []
        spine.submit(responder.seid, "volume.set", {"volume": 1})
        spine.submit(responder.seid, "volume.set", {"volume": 2},
                     on_reply=replies.append)
        spine.submit(responder.seid, "volume.set", {"volume": 3})
        scheduler.run_until_idle()
        assert replies == []

    def test_non_idempotent_opcodes_bypass_coalescing(self):
        scheduler, _, _, responder, spine = rig()
        assert not coalescible("timer.add")
        for _ in range(3):
            spine.submit(responder.seid, "timer.add", {"seconds": 30})
        scheduler.run_until_idle()
        # all three adds reach the appliance — 3 x 30 s, never 1 x 30 s
        assert len(responder.received) == 3
        assert spine.dispatched == 3
        assert spine.coalesced == 0

    def test_inflight_for_lists_each_lane_and_its_waiter(self):
        scheduler, _, _, responder, spine = rig(mode="silent")
        first = spine.submit(responder.seid, "volume.set", {"volume": 1})
        waiting = spine.submit(responder.seid, "volume.set", {"volume": 2})
        power = spine.submit(responder.seid, "power.set", {"on": True})
        assert spine.inflight_for(responder.seid) == [first, waiting, power]
        assert spine.inflight_for(SEID(guid_from_seed("other"), 9)) == []

    def test_lanes_drain(self):
        scheduler, _, _, responder, spine = rig()
        spine.submit(responder.seid, "volume.set", {"volume": 1})
        spine.submit(responder.seid, "volume.set", {"volume": 2})
        assert spine.inflight_count == 2
        scheduler.run_until_idle()
        assert spine.inflight_count == 0
        assert spine.inflight_for(responder.seid) == []


class TestCommandLog:
    def test_ring_rotation_keeps_counters(self):
        scheduler, _, _, responder, spine = rig()
        log = spine.log
        log2 = CommandLog(capacity=4)
        spine.log = log2
        for i in range(10):
            spine.submit(responder.seid, "timer.add", {"n": i})
        scheduler.run_until_idle()
        assert len(log2) == 4
        assert log2.submitted == 10
        assert log2.terminal["done"] == 10

    def test_terminal_states_partition(self):
        scheduler, _, _, responder, spine = rig()
        spine.submit(responder.seid, "volume.set", {"volume": 1})
        spine.submit(responder.seid, "volume.set", {"volume": 2})
        spine.submit(responder.seid, "volume.set", {"volume": 3})
        spine.submit(responder.seid, "timer.add", {"seconds": 5})
        scheduler.run_until_idle()
        stats = spine.log.stats()
        assert sum(stats["terminal"].values()) == stats["submitted"] == 4
        assert stats["terminal"]["superseded"] == 1

    def test_open_commands_lists_only_unfinished(self):
        scheduler, _, _, responder, spine = rig(mode="silent")
        first = spine.submit(responder.seid, "timer.add", {"n": 1},
                             timeout_s=1.0)
        second = spine.submit(responder.seid, "timer.add", {"n": 2},
                              timeout_s=3.0)
        assert spine.log.open_commands() == [first, second]
        scheduler.run_for(2.0)
        assert first.state is CommandState.TIMED_OUT
        assert spine.log.open_commands() == [second]
        scheduler.run_until_idle()
        assert spine.log.open_commands() == []

    def test_journal_filters_by_origin(self):
        scheduler, _, _, responder, spine = rig()
        spine.submit(responder.seid, "a.op", origin="widget")
        spine.submit(responder.seid, "b.op", origin="voice")
        scheduler.run_until_idle()
        assert [c.opcode for c in spine.log if c.origin == "voice"] \
            == ["b.op"]
        assert spine.log.stats()["by_origin"] == {"widget": 1, "voice": 1}


class TestMessagingGuards:
    """Satellite: the pending-reply leak and its synthesized failures."""

    def test_destination_unregister_synthesizes_egone(self):
        scheduler = Scheduler()
        messaging = MessageSystem(scheduler)
        requester = SoftwareElement(SEID(guid_from_seed("r"), 0), messaging)
        requester.attach()
        target = Responder(SEID(guid_from_seed("t"), 1), messaging,
                           mode="silent")
        target.attach()
        replies = []
        requester.send_request(target.seid, "power.set", {"on": True},
                               on_reply=replies.append)
        scheduler.run_until_idle()
        assert replies == []          # silent target: still pending
        assert messaging._pending     # the would-be leak
        target.detach()
        scheduler.run_until_idle()
        assert [m.status for m in replies] == ["EGONE"]
        assert replies[0].opcode == "power.set"
        assert messaging.replies_synthesized == 1
        assert not messaging._pending  # regression: no strand

    def test_only_requests_to_the_vanished_element_fail(self):
        scheduler = Scheduler()
        messaging = MessageSystem(scheduler)
        requester = SoftwareElement(SEID(guid_from_seed("r"), 0), messaging)
        requester.attach()
        gone, stays = (Responder(SEID(guid_from_seed(name), 1), messaging,
                                 mode="silent") for name in ("g", "s"))
        gone.attach()
        stays.attach()
        replies = []
        for target in (stays, gone):
            requester.send_request(target.seid, "power.set", {"on": True},
                                   on_reply=replies.append,
                                   timeout_s=None)
        scheduler.run_until_idle()
        gone.detach()
        scheduler.run_until_idle()
        assert [(m.source, m.status) for m in replies] == [
            (gone.seid, "EGONE")]
        assert len(messaging._pending) == 1  # the request to ``stays``

    def test_egone_reply_reaches_spine_as_failed(self):
        scheduler, _, _, responder, spine = rig(mode="silent")
        command = spine.submit(responder.seid, "power.set", {"on": True})
        scheduler.run_until(0.001)  # request delivered, no reply yet
        assert responder.received
        responder.detach()  # unplugged mid-flight, before any reply
        scheduler.run_until_idle()
        assert command.state is CommandState.FAILED
        assert command.status == "EGONE"

    def test_requester_unregister_cancels_timers(self):
        scheduler = Scheduler()
        messaging = MessageSystem(scheduler)
        requester = SoftwareElement(SEID(guid_from_seed("r"), 0), messaging)
        requester.attach()
        target = Responder(SEID(guid_from_seed("t"), 1), messaging,
                           mode="silent")
        target.attach()
        requester.send_request(target.seid, "x.op", on_reply=lambda m: None,
                               timeout_s=5.0)
        requester.detach()
        scheduler.run_until_idle()
        assert not messaging._pending
        assert scheduler.now() < 0.01  # cancelled timer didn't fire/drag
        assert messaging.requests_timed_out == 0


class TestFcmHandleErrors:
    """Satellite: bounded error history + totals on the handle."""

    def make_handle(self, mode="fail"):
        scheduler, messaging, requester, responder, spine = rig(mode=mode)
        handle = FcmHandle(requester, responder.seid, {
            "fcm.type": "tuner",
            "device.guid": guid_from_seed("resp"),
            "device.name": "T",
            "device.class": "tv",
        }, spine=spine)
        return scheduler, handle

    def test_errors_capped_total_keeps_counting(self):
        from repro.app.handles import ERRORS_KEPT
        scheduler, handle = self.make_handle()
        for i in range(ERRORS_KEPT + 8):
            handle.command("op.fail", {"i": i})
        scheduler.run_until_idle()
        assert len(handle.errors) == ERRORS_KEPT
        assert handle.errors_total == ERRORS_KEPT + 8
        assert handle.commands_sent == ERRORS_KEPT + 8

    def test_stats_count_the_handles_inflight_commands(self):
        scheduler, handle = self.make_handle(mode="silent")
        handle.command("volume.set", {"volume": 1})
        handle.command("volume.set", {"volume": 2})
        assert handle.command_stats()["inflight"] == 2
        assert [c.payload for c in handle.inflight] == [{"volume": 1},
                                                        {"volume": 2}]

    def test_a_failed_refresh_leaves_the_state_alone(self):
        scheduler, handle = self.make_handle(mode="fail")
        handle.refresh()
        scheduler.run_until_idle()
        assert handle.state == {}
        assert handle.errors_total == 1

    def test_unsubscribing_twice_is_harmless(self):
        scheduler, handle = self.make_handle(mode="ok")
        listener = handle.subscribe(lambda key, value: None)
        handle.unsubscribe(listener)
        handle.unsubscribe(listener)
        assert handle.listeners == []

    def test_command_returns_tracked_command(self):
        scheduler, handle = self.make_handle(mode="ok")
        command = handle.command("power.set", {"on": True},
                                 origin="widget")
        assert isinstance(command, Command)
        scheduler.run_until_idle()
        assert command.ok
        assert command.origin == "widget"
        assert handle.command_stats()["commands_sent"] == 1
        assert handle.command_stats()["errors_total"] == 0


class TestNoDirectActuation:
    def test_no_send_request_actuation_outside_spine(self):
        """Acceptance guard: the spine is the ONLY place that turns an
        actuation into a bus request.  ``.send_request(`` may appear only
        in the spine's dispatch and in the SoftwareElement/MessageSystem
        plumbing that defines it."""
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        allowed = {
            src / "app" / "commands.py",    # the spine's single dispatch
            src / "havi" / "element.py",    # definition/delegation
        }
        offenders = []
        for path in src.rglob("*.py"):
            if path in allowed:
                continue
            if ".send_request(" in path.read_text():
                offenders.append(str(path.relative_to(src)))
        assert offenders == []
