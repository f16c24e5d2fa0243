"""Unit tests for the fleet reactor: turn anatomy, fairness, containment,
TCP listeners and reactor-driven socket transports."""

import socket
import time

import pytest

from repro.net import (
    ETHERNET_100,
    Reactor,
    SocketTransport,
    TcpListener,
    connect_tcp,
)
from repro.util import ReactorError, Scheduler, TransportError


@pytest.fixture
def tcp_pair(reactor, closing):
    """``tcp_pair(server_sched, client_sched)``: a connected
    (server_transport, client_transport, listener) triple on ``reactor``,
    all three closed at teardown."""

    def connect(server_sched, client_sched):
        accepted = []

        def on_accept(conn, addr):
            accepted.append(closing(SocketTransport(
                server_sched, conn, ETHERNET_100, "srv", reactor=reactor)))

        listener = closing(TcpListener(reactor, on_accept))
        client = closing(connect_tcp(reactor, client_sched,
                                     listener.address))
        assert reactor.run_until(lambda: len(accepted) == 1)
        return accepted[0], client, listener

    return connect


class TestMembership:
    def test_budget_must_be_positive(self):
        reactor = Reactor()
        with pytest.raises(ReactorError):
            reactor.add_scheduler(Scheduler(), budget=0)

    def test_duplicate_scheduler_rejected(self):
        reactor = Reactor()
        sched = Scheduler()
        reactor.add_scheduler(sched)
        with pytest.raises(ReactorError):
            reactor.add_scheduler(sched)

    def test_duplicate_fd_rejected(self):
        reactor = Reactor()
        a, b = socket.socketpair()
        try:
            reactor.register(a, on_readable=lambda: None)
            with pytest.raises(ReactorError):
                reactor.register(a, on_readable=lambda: None)
        finally:
            a.close()
            b.close()
            reactor.close()

    def test_remove_scheduler_drops_its_handles(self):
        reactor = Reactor()
        sched = Scheduler()
        member = reactor.add_scheduler(sched)
        a, b = socket.socketpair()
        try:
            reactor.register(a, on_readable=lambda: None, member=member)
            assert reactor.handle_count == 1
            reactor.remove_scheduler(member)
            assert reactor.handle_count == 0
        finally:
            a.close()
            b.close()
            reactor.close()

    def test_register_after_close_raises(self):
        reactor = Reactor()
        reactor.close()
        a, b = socket.socketpair()
        try:
            with pytest.raises(ReactorError):
                reactor.register(a, on_readable=lambda: None)
        finally:
            a.close()
            b.close()


class TestTurn:
    def test_a_closed_reactor_does_not_turn(self):
        reactor = Reactor()
        reactor.close()
        with pytest.raises(ReactorError, match="closed"):
            reactor.turn()

    def test_a_member_that_never_idles_is_reported(self):
        reactor = Reactor()
        sched = Scheduler()
        reactor.add_scheduler(sched)

        def forever():
            sched.call_soon(forever)

        sched.call_soon(forever)
        try:
            with pytest.raises(ReactorError, match="exceeded 5 turns"):
                reactor.run_until_idle(max_turns=5)
            with pytest.raises(ReactorError, match="exceeded 3 turns"):
                reactor.run_until(lambda: False, timeout_s=None, max_turns=3)
        finally:
            reactor.close()

    def test_budget_caps_a_storming_member_per_turn(self):
        reactor = Reactor()
        stormy, meek = Scheduler(), Scheduler()
        m_storm = reactor.add_scheduler(stormy, "storm", budget=16)
        reactor.add_scheduler(meek, "meek", budget=16)

        def storm():
            stormy.call_soon(storm)

        stormy.call_soon(storm)
        ticks = []
        meek.call_soon(lambda: ticks.append(1))
        reactor.turn()
        assert ticks == [1], "the meek member's event ran this turn"
        assert m_storm.events_fired == 16, "the storm burned exactly its budget"
        reactor.close()

    def test_idle_members_fast_forward_their_clocks(self):
        reactor = Reactor()
        sched = Scheduler()
        reactor.add_scheduler(sched)
        fired = []
        sched.call_later(3600.0, lambda: fired.append(sched.now()))
        start = time.monotonic()
        reactor.run_until_idle()
        assert fired == [3600.0]
        assert sched.now() == 3600.0
        assert time.monotonic() - start < 5.0, "virtual, not wall, time"
        reactor.close()

    def test_clocks_advance_independently(self):
        reactor = Reactor()
        fast, slow = Scheduler(), Scheduler()
        reactor.add_scheduler(fast)
        reactor.add_scheduler(slow)
        fast.call_later(100.0, lambda: None)
        slow.call_later(2.0, lambda: None)
        reactor.run_until_idle()
        assert fast.now() == 100.0
        assert slow.now() == 2.0
        reactor.close()

    def test_run_until_times_out_to_false(self):
        reactor = Reactor()
        reactor.add_scheduler(Scheduler())
        assert reactor.run_until(lambda: False, timeout_s=0.05) is False
        reactor.close()

    def test_close_is_idempotent(self):
        reactor = Reactor()
        reactor.close()
        reactor.close()


class TestContainment:
    def test_raising_event_quarantines_only_its_member(self):
        reactor = Reactor()
        bad_sched, good_sched = Scheduler(), Scheduler()
        seen = []
        bad = reactor.add_scheduler(bad_sched, "bad",
                                    on_error=seen.append)
        good = reactor.add_scheduler(good_sched, "good")

        def boom():
            raise RuntimeError("kaput")

        bad_sched.call_soon(boom)
        ran = []
        good_sched.call_soon(lambda: ran.append(1))
        reactor.run_until_idle()
        assert bad.failed and not good.failed
        assert isinstance(bad.last_error, RuntimeError)
        assert [type(e) for e in seen] == [RuntimeError]
        assert ran == [1]
        assert reactor.failed_members == (bad,)
        reactor.close()

    def test_quarantined_member_stops_firing(self):
        reactor = Reactor()
        sched = Scheduler()
        member = reactor.add_scheduler(sched, "flappy")
        after = []

        def boom():
            sched.call_soon(lambda: after.append(1))
            raise RuntimeError("kaput")

        sched.call_soon(boom)
        reactor.run_until_idle()
        assert member.failed
        assert after == [], "no events fire after quarantine"
        reactor.close()

    def test_raising_io_callback_quarantines_member_and_drops_fds(self):
        reactor = Reactor()
        sched = Scheduler()
        member = reactor.add_scheduler(sched, "io-bad")
        a, b = socket.socketpair()
        a.setblocking(False)
        b.setblocking(False)
        try:
            def explode():
                raise ValueError("bad bytes")

            reactor.register(a, on_readable=explode, member=member)
            b.sendall(b"x")
            reactor.run_until_idle()
            assert member.failed
            assert reactor.handle_count == 0
        finally:
            a.close()
            b.close()
            reactor.close()

    def test_orphan_handle_error_is_recorded_and_unregistered(self):
        reactor = Reactor()
        a, b = socket.socketpair()
        a.setblocking(False)
        b.setblocking(False)
        try:
            def explode():
                raise ValueError("bad bytes")

            reactor.register(a, on_readable=explode)  # no member
            b.sendall(b"x")
            reactor.run_until_idle()
            assert reactor.handle_count == 0
            assert [name for name, _ in reactor.errors] == [None]
        finally:
            a.close()
            b.close()
            reactor.close()


class TestTcpTransport:
    def test_roundtrip_over_real_tcp(self, reactor, tcp_pair):
        ssched, csched = Scheduler(), Scheduler()
        reactor.add_scheduler(ssched)
        reactor.add_scheduler(csched)
        server, client, listener = tcp_pair(ssched, csched)
        got = []
        server.on_receive = lambda d: got.append(bytes(d))
        client.send([b"uni", b"int"])
        assert reactor.run_until(lambda: b"".join(got) == b"uniint")

    def test_blocked_send_arms_write_interest_and_drains(self, reactor,
                                                         tcp_pair):
        # the regression the reactor mode exists for: a kernel buffer
        # full mid-send becomes an EPOLLOUT wait, never a silent stall
        ssched, csched = Scheduler(), Scheduler()
        reactor.add_scheduler(ssched)
        reactor.add_scheduler(csched)
        server, client, listener = tcp_pair(ssched, csched)
        total = [0]
        server.on_receive = lambda d: total.__setitem__(0, total[0] + len(d))
        blob_len = 4 * 1024 * 1024
        client.send(b"z" * blob_len)
        assert client._outbox, "payload must exceed the kernel buffer"
        assert client._handle.want_write, \
            "continuation armed at stall time"
        assert reactor.run_until(lambda: total[0] == blob_len, timeout_s=30)
        assert not client._outbox
        assert not client._handle.want_write, \
            "write interest disarmed once drained"
        assert client.queued_bytes == 0, \
            "kernel-accepted bytes release credit in unpeered mode"

    def test_graceful_close_propagates_eof(self, reactor, tcp_pair):
        ssched, csched = Scheduler(), Scheduler()
        reactor.add_scheduler(ssched)
        reactor.add_scheduler(csched)
        server, client, listener = tcp_pair(ssched, csched)
        closed = []
        server.on_close = lambda: closed.append(True)
        got = []
        server.on_receive = lambda d: got.append(bytes(d))
        client.send(b"goodbye")
        client.close()
        assert reactor.run_until(lambda: closed == [True])
        assert b"".join(got) == b"goodbye", "flush-before-EOF ordering"

    def test_connection_refused_resets_and_releases_credit(self, reactor,
                                                           closing):
        sched = Scheduler()
        reactor.add_scheduler(sched)
        # grab an ephemeral port, then close it so nobody listens there
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()
        probe.close()
        client = closing(connect_tcp(reactor, sched, dead_address))
        client.send(b"into the void")
        assert client.queued_bytes > 0
        assert reactor.run_until(lambda: not client.is_open, timeout_s=10)
        assert client.queued_bytes == 0, "reset returns all charged credit"

    def test_connect_to_unroutable_name_raises(self):
        reactor = Reactor()
        sched = Scheduler()
        reactor.add_scheduler(sched)
        with pytest.raises(TransportError):
            connect_tcp(reactor, sched, ("not-a-host.invalid.", 1))
        reactor.close()


class TestTcpListener:
    def test_accepts_many_clients(self, reactor, closing):
        ssched = Scheduler()
        reactor.add_scheduler(ssched)
        conns = []

        def on_accept(conn, addr):
            conns.append(closing(SocketTransport(ssched, conn, ETHERNET_100,
                                                 reactor=reactor)))

        listener = closing(TcpListener(reactor, on_accept))
        clients = []
        for i in range(5):
            csched = Scheduler()
            reactor.add_scheduler(csched, f"c{i}")
            clients.append(closing(
                connect_tcp(reactor, csched, listener.address)))
        assert reactor.run_until(lambda: len(conns) == 5)
        assert listener.accepted == 5
        for client in clients:
            client.close()
        assert reactor.run_until(
            lambda: all(not t.is_open for t in conns))

    def test_listen_failure_raises_transport_error(self):
        reactor = Reactor()
        with pytest.raises(TransportError):
            TcpListener(reactor, lambda c, a: None, host="203.0.113.1")
        reactor.close()
