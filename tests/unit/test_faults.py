"""Unit tests for the fault-injection harness (repro.net.faults)."""

import errno
import random

import pytest

from repro.net import (
    ETHERNET_100,
    FaultInjector,
    FaultPlan,
    FaultyTransport,
    LOOPBACK,
    SocketTransport,
    TcpListener,
    connect_tcp,
    inject_socket_faults,
    make_pipe,
    make_socket_transport_pair,
)
from repro.havi import SEID, MessageSystem
from repro.util import Scheduler, TransportError


def faulty_pair(plan):
    """(faulty wrapper over a, b, scheduler) with received bytes captured."""
    sched = Scheduler()
    pair = make_pipe(sched, LOOPBACK, name="chaos")
    faulty = FaultyTransport(pair.a, plan, sched)
    got = []
    pair.b.on_receive = lambda data: got.append(bytes(data))
    return faulty, pair, sched, got


class TestFaultPlan:
    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(TransportError):
            FaultPlan(drop=0.5, duplicate=0.3, delay=0.2, truncate=0.1)

    def test_rates_must_be_probabilities(self):
        with pytest.raises(TransportError):
            FaultPlan(partial=1.5)
        with pytest.raises(TransportError):
            FaultPlan(drop=-0.1)

    def test_errno_at_validates_side_and_chains(self):
        plan = FaultPlan().errno_at(0, errno.EINTR).errno_at(
            10, errno.ECONNRESET, side="recv")
        assert plan.syscall_faults == [("send", 0, errno.EINTR),
                                       ("recv", 10, errno.ECONNRESET)]
        with pytest.raises(TransportError):
            plan.errno_at(0, errno.EINTR, side="sideways")

    def test_rng_streams_are_per_name_and_reproducible(self):
        plan = FaultPlan(seed=7)
        a1 = [plan.rng_for("a").random() for _ in range(3)]
        a2 = [plan.rng_for("a").random() for _ in range(3)]
        b = [plan.rng_for("b").random() for _ in range(3)]
        assert a1 == a2
        assert a1 != b

    def test_fate_is_one_draw_through_exclusive_slices(self):
        plan = FaultPlan(drop=0.125, truncate=0.25, duplicate=0.25,
                         delay=0.125)
        edges = ((0.125, "drop"), (0.375, "truncate"), (0.625, "duplicate"),
                 (0.75, "delay"), (1.0, "pass"))
        rng, twin = random.Random(5), random.Random(5)
        for _ in range(200):
            roll = twin.random()
            assert plan.fate(rng) == next(
                fate for edge, fate in edges if roll < edge)


class TestFaultyTransport:
    def test_drop_all(self):
        faulty, pair, sched, got = faulty_pair(FaultPlan(drop=1.0))
        for i in range(5):
            faulty.send(b"x%d" % i)
        sched.run_until_idle()
        assert got == []
        assert faulty.frames_dropped == 5

    def test_duplicate_all(self):
        faulty, pair, sched, got = faulty_pair(FaultPlan(duplicate=1.0))
        faulty.send(b"ping")
        sched.run_until_idle()
        assert got == [b"ping", b"ping"]
        assert faulty.frames_duplicated == 1

    def test_delay_holds_then_delivers(self):
        plan = FaultPlan(delay=1.0, delay_s=0.5)
        faulty, pair, sched, got = faulty_pair(plan)
        faulty.send(b"late")
        sched.run_ready()
        assert got == []
        sched.run_until_idle()
        assert got == [b"late"]
        assert sched.now() >= 0.5
        assert faulty.frames_delayed == 1

    def test_truncate_sends_strict_prefix(self):
        faulty, pair, sched, got = faulty_pair(FaultPlan(truncate=1.0))
        faulty.send(b"0123456789")
        sched.run_until_idle()
        assert len(got) == 1
        assert b"0123456789".startswith(got[0])
        assert 0 < len(got[0]) < 10
        assert faulty.frames_truncated == 1

    def test_frame_too_short_to_truncate_passes_through(self):
        # a UIP Bell is one byte: there is no strict prefix to cut
        faulty, pair, sched, got = faulty_pair(
            FaultPlan(seed=1, truncate=1.0))
        for _ in range(5):
            faulty.send(b"\x02")
        sched.run_until_idle()
        assert got == [b"\x02"] * 5
        assert faulty.frames_duplicated == faulty.frames_truncated == 0
        assert faulty.frames_passed == 5

    def test_clean_plan_passes_everything(self):
        faulty, pair, sched, got = faulty_pair(FaultPlan())
        payloads = [b"a", b"bb", b"ccc"]
        for payload in payloads:
            faulty.send(payload)
        sched.run_until_idle()
        assert got == payloads
        assert faulty.frames_passed == 3

    def test_same_seed_same_fault_sequence(self):
        def run(seed):
            faulty, pair, sched, got = faulty_pair(
                FaultPlan(seed=seed, drop=0.3, duplicate=0.2))
            for i in range(40):
                faulty.send(b"m%02d" % i)
            sched.run_until_idle()
            return (faulty.frames_dropped, faulty.frames_duplicated, got)

        assert run(3) == run(3)
        assert run(3)[:2] != run(4)[:2]

    def test_unstalling_a_live_link_changes_nothing(self):
        faulty, pair, sched, got = faulty_pair(FaultPlan())
        faulty.unstall()
        faulty.send(b"one")
        sched.run_until_idle()
        assert got == [b"one"]
        assert faulty.frames_stalled == 0

    def test_stall_buffers_then_flushes_in_order(self):
        faulty, pair, sched, got = faulty_pair(FaultPlan())
        faulty.stall()
        faulty.send(b"one")
        faulty.send(b"two")
        sched.run_until_idle()
        assert got == []
        assert faulty.frames_stalled == 2
        faulty.unstall()
        sched.run_until_idle()
        assert got == [b"one", b"two"]

    def test_timed_stall_lifts_itself(self):
        faulty, pair, sched, got = faulty_pair(FaultPlan())
        faulty.stall(2.0)
        faulty.send(b"held")
        sched.run_until_idle()   # the one-shot unstall fires at t=2
        assert got == [b"held"]
        assert sched.now() >= 2.0
        assert not faulty.stalled

    def test_delegation_quacks_like_a_transport(self):
        faulty, pair, sched, got = faulty_pair(FaultPlan())
        assert faulty.is_open and faulty.writable
        assert faulty.name == pair.a.name
        assert faulty.queued_bytes == pair.a.queued_bytes
        seen = []
        faulty.on_close = lambda: seen.append("closed")
        faulty.close()
        sched.run_until_idle()
        assert not faulty.is_open
        assert seen == ["closed"]

    def test_callbacks_and_counters_live_in_the_inner_transport(self):
        faulty, pair, sched, got = faulty_pair(FaultPlan())
        assert faulty.credit_limit == pair.a.credit_limit
        assert faulty.stats is pair.a.stats
        on_receive, on_writable = got.append, lambda: None
        faulty.on_receive = on_receive
        faulty.on_writable = on_writable
        assert pair.a.on_receive is on_receive is faulty.on_receive
        assert pair.a.on_writable is on_writable is faulty.on_writable
        faulty.on_close = on_writable
        assert faulty.on_close is pair.a.on_close is on_writable
        faulty.send(b"in flight")
        faulty.abort()
        sched.run_until_idle()
        assert got == []  # an abort loses what was in flight
        assert not pair.a.is_open and not faulty.is_open


class TestBusFaults:
    @pytest.mark.parametrize("rates, copies", [
        ({"truncate": 1.0}, 1),  # meaningless for a message: passes
        ({"duplicate": 1.0}, 2),
        ({"drop": 1.0}, 0),
    ])
    def test_each_message_meets_its_fate_once(self, rates, copies):
        sched = Scheduler()
        bus = MessageSystem(sched)
        target = SEID("tv", 1)
        got = []
        bus.register(target, got.append)
        bus.inject_faults(FaultPlan(seed=1, **rates))
        for _ in range(3):
            bus.send_request(SEID("remote", 1), target, "ping")
        sched.run_until_idle()
        assert len(got) == 3 * copies


class TestFaultySocket:
    def test_eintr_on_send_is_masked_by_the_pump(self, reactor, socket_pair):
        pair = socket_pair()
        plan = FaultPlan().errno_at(0, errno.EINTR)
        wrapper = inject_socket_faults(pair.a, plan)
        got = []
        pair.b.on_receive = lambda data: got.append(bytes(data))
        pair.a.send(b"survives")
        reactor.run_until_idle()
        assert b"".join(got) == b"survives"
        assert wrapper.faults_fired == 1

    def test_eagain_then_recovery(self, reactor, socket_pair):
        # a spurious send-side EAGAIN parks the outbox behind armed write
        # interest, so EPOLLOUT resumes the flush without another send;
        # a recv-side EAGAIN is masked by the level-triggered read poll
        pair = socket_pair()
        wrapper = inject_socket_faults(
            pair.a, FaultPlan().errno_at(0, errno.EAGAIN))
        wrapper_b = inject_socket_faults(
            pair.b, FaultPlan().errno_at(0, errno.EAGAIN, side="recv"))
        got = []
        pair.b.on_receive = lambda data: got.append(bytes(data))
        pair.a.send(b"back")
        reactor.run_until_idle()
        assert b"".join(got) == b"back"
        pair.a.send(b"off")
        reactor.run_until_idle()
        assert b"".join(got) == b"backoff"
        assert wrapper.faults_fired == 1
        assert wrapper_b.faults_fired == 1

    def test_econnreset_surfaces_as_close(self, reactor, socket_pair):
        pair = socket_pair()
        plan = FaultPlan().errno_at(0, errno.ECONNRESET, side="recv")
        inject_socket_faults(pair.b, plan)
        closed = []
        pair.b.on_close = lambda: closed.append(True)
        pair.a.send(b"doomed")
        reactor.run_until_idle()
        assert closed == [True]
        assert not pair.b.is_open

    def test_partial_writes_preserve_byte_stream(self, reactor, socket_pair):
        pair = socket_pair()
        inject_socket_faults(pair.a, FaultPlan(seed=11, partial=1.0))
        got = []
        pair.b.on_receive = lambda data: got.append(bytes(data))
        blob = bytes(range(256)) * 64
        pair.a.send(blob)
        reactor.run_until_idle()
        assert b"".join(got) == blob
        assert pair.a.queued_bytes == 0

    def test_schedules_are_private_per_socket(self, reactor, socket_pair):
        plan = FaultPlan().errno_at(0, errno.EINTR)
        pair = socket_pair()
        w1 = inject_socket_faults(pair.a, plan, name="a")
        w2 = inject_socket_faults(pair.b, plan, name="b")
        got = []
        pair.b.on_receive = lambda data: got.append(bytes(data))
        pair.a.send(b"hello")
        pair.b.send(b"yo")
        reactor.run_until_idle()
        # both wrappers fired their own copy of the same one-shot
        assert w1.faults_fired == 1
        assert w2.faults_fired == 1


class TestFaultInjector:
    def test_rst_kills_both_halves(self):
        sched = Scheduler()
        pair = make_pipe(sched, ETHERNET_100, name="victim")
        closed = []
        pair.a.on_close = lambda: closed.append("a")
        pair.b.on_close = lambda: closed.append("b")
        chaos = FaultInjector()
        chaos.rst(pair.a)
        sched.run_until_idle()
        assert sorted(closed) == ["a", "b"]
        assert not pair.a.is_open and not pair.b.is_open
        assert chaos.log == [("rst", "victim.a")]

    def test_stall_link_holds_frames_for_its_seconds(self):
        faulty, pair, sched, got = faulty_pair(FaultPlan())
        chaos = FaultInjector()
        chaos.stall_link(faulty, 2.0)
        assert chaos.log == [("stall", "chaos.a")]
        faulty.send(b"one")
        faulty.send(b"two")
        sched.run_until(1.9)
        assert got == [] and faulty.stalled
        assert faulty.frames_stalled == 2
        sched.run_until_idle()   # the unstall fires at t=2
        assert got == [b"one", b"two"]
        assert not faulty.stalled
        faulty.send(b"after")
        sched.run_until_idle()
        assert got == [b"one", b"two", b"after"]

    def test_partition_goes_deaf_then_heals_on_schedule(self, reactor,
                                                        closing):
        server_sched, client_sched = Scheduler(), Scheduler()
        server_member = reactor.add_scheduler(server_sched, name="srv")
        client_member = reactor.add_scheduler(client_sched, name="cli")
        accepted = []

        def on_accept(conn, addr):
            accepted.append(closing(SocketTransport(
                server_sched, conn, ETHERNET_100, "srv", reactor=reactor,
                member=server_member)))

        listener = closing(
            TcpListener(reactor, on_accept, member=server_member))
        client = closing(connect_tcp(reactor, client_sched, listener.address,
                                     member=client_member))
        assert reactor.run_until(lambda: len(accepted) == 1)
        got = []
        accepted[0].on_receive = lambda data: got.append(bytes(data))

        chaos = FaultInjector()
        chaos.partition(reactor, client_member, seconds=1.0,
                        scheduler=client_sched)
        assert reactor.is_partitioned(client_member)
        assert client_member.partitioned
        client.send(b"through the wall")
        reactor.run_until_idle()   # heal timer fires at t=1 client-time
        assert not reactor.is_partitioned(client_member)
        assert b"".join(got) == b"through the wall"
        assert [a for a, _ in chaos.log] == ["partition", "heal"]

    def test_partition_spares_in_process_socketpairs(self, reactor,
                                                     closing):
        # a partition cuts the network: a device's socketpair leg to its
        # proxy stays live, so taps still reach the proxy mid-partition
        member = reactor.add_scheduler(Scheduler(), name="home")
        pair = make_socket_transport_pair(member)
        closing(pair.a)
        closing(pair.b)
        got = []
        pair.b.on_receive = lambda data: got.append(bytes(data))
        FaultInjector().partition(reactor, member)
        pair.a.send(b"tap")
        reactor.run_until_idle()
        assert reactor.is_partitioned(member)
        assert got == [b"tap"]

    def test_crash_detonates_in_the_targets_loop(self, reactor):
        sched = Scheduler()
        member = reactor.add_scheduler(sched, name="bomb")
        chaos = FaultInjector()
        chaos.crash(sched, "boom", exc_type=ValueError)
        reactor.run_until_idle()
        assert member.failed
        assert isinstance(member.last_error, ValueError)
        assert "boom" in str(member.last_error)
