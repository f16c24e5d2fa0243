"""Unit tests for self-healing sessions: liveness heartbeats, proxy
reconnect with backoff (each redial a fresh UIP session on its user's
surface), device-leg redial, and the satellite robustness fixes that
rode along (listener accept-path leak, quarantine diagnostics, handshake
name-length cap)."""

import socket

import pytest

from repro.devices import Pda, WallDisplay
from repro.home import TRANSPORTS, Home
from repro.net import (
    ETHERNET_100,
    FaultInjector,
    Reactor,
    TcpListener,
    make_pipe,
)
from repro.proxy import UniIntProxy
from repro.proxy.session import REDIAL_ATTEMPTS, REDIAL_CAP_S
from repro.server import UniIntServer
from repro.toolkit import Label, UIWindow
from repro.uip import RAW, ZRLE, ClientHandshake, ServerHandshake
from repro.uip.handshake import MAX_NAME_LEN
from repro.util import Scheduler
from repro.util.errors import ProxyError
from repro.windows import DisplayServer
from repro.appliances import DimmableLight, MicrowaveOven, Television
from tests.helpers import (
    MALFORMED_SERVER_MESSAGES,
    assert_one_session_per_user,
    received_encodings,
)


def resilient_home(name="home", transport="pipe"):
    home = Home(name=name, resilience=True, transport=transport)
    home.add_appliance(Television("tv"))
    pda = Pda("pda-1", home.scheduler)
    home.add_device(pda)
    home.settle()
    return home, pda


class TestRedialIsAFreshSession:
    """A redial carries no token: it is a fresh UIP session, which the
    home binds to the user who dialed it."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_the_user_names_the_redialed_server_session(self, transport):
        home, pda = resilient_home(transport=transport)
        try:
            lost = home.server_session
            FaultInjector().rst(home.session.upstream.endpoint)
            home.settle()
            assert home.session.resilience.reconnect_count == 1
            assert lost.closed
            assert not home.server_session.closed
            assert home.uniint_server.sessions == [home.server_session]
        finally:
            home.close()

    def test_concurrent_tcp_redials_land_on_their_own_surfaces(self):
        """Redials that race each other to one listener are each bound
        by their local port, not by the order they are accepted in."""
        home = Home(transport="tcp", resilience=True)
        try:
            for appliance in (Television("tv"), MicrowaveOven("oven"),
                              DimmableLight("lamp")):
                home.add_appliance(appliance)
            alice = home.add_user("alice")
            bob = home.add_user("bob")
            guest = home.add_user("guest", view_of="bob")
            home.settle()
            alice.show_appliance("oven")
            bob.show_appliance("tv")  # the resident's view shows the lamp
            home.settle()
            screens = [user.display.framebuffer
                       for user in (home.default_user, alice, bob)]
            assert all(a != b for i, a in enumerate(screens)
                       for b in screens[i + 1:])
            chaos = FaultInjector()
            for user in (alice, bob, guest):
                chaos.rst(user.session.upstream.endpoint)
            home.settle()
            for user in (alice, bob, guest):
                upstream = user.session.upstream
                assert user.session.resilience.reconnect_count == 1
                assert upstream.updates_received == 1, user.user_id
                assert upstream.framebuffer == user.display.framebuffer, \
                    user.user_id
            assert_one_session_per_user(home)
        finally:
            home.close()

    def test_a_failed_add_user_keeps_other_users_redials(self):
        """A newcomer whose provisioning fails forgets only their own
        dials: a redial in flight at that moment still lands on its
        user's surface."""
        home = Home(transport="tcp", resilience=True)
        try:
            home.add_appliance(Television("tv"))
            alice = home.add_user("alice")
            wall = home.add_device(WallDisplay("wall", home.scheduler),
                                   shared=True)
            home.settle()

            def refuse(proxy, member=None):
                # alice's upstream dies and she redials; the refusal
                # comes before the listener accepts her connection
                FaultInjector().rst(alice.session.upstream.endpoint)
                home.scheduler.run_ready()
                raise ProxyError("wall refuses new proxies")

            wall.connect = refuse
            with pytest.raises(ProxyError, match="refuses"):
                home.add_user("carol")
            home.settle()
            assert alice.session.resilience.reconnect_count == 1
            assert (alice.session.upstream.framebuffer
                    == alice.display.framebuffer)
            assert_one_session_per_user(home)
        finally:
            home.close()

    def test_a_redial_offers_the_same_encodings(self):
        scheduler = Scheduler()
        window = UIWindow(160, 120)
        label = Label("hello")
        window.set_root(label)
        server = UniIntServer(DisplayServer(window), scheduler)

        def dial():
            pipe = make_pipe(scheduler, ETHERNET_100, name="c")
            server.accept(pipe.a)
            return pipe.b

        session = UniIntProxy(scheduler).connect(dial(),
                                                 encodings=(ZRLE, RAW))
        session.enable_resilience(scheduler, dial, seed="zrle")
        scheduler.run_until_idle()
        session.upstream.endpoint.abort()
        scheduler.run_until_idle()
        assert session.resilience.reconnect_count == 1
        assert [s.encodings for s in server.sessions] == [(ZRLE, RAW)]
        seen = received_encodings(session.upstream)
        label.text = "redialed"
        scheduler.run_until_idle()
        assert seen and set(seen) == {ZRLE}
        assert session.upstream.framebuffer == server.display.framebuffer


class TestSessionSelfHealing:
    def test_rst_recovers_with_one_resync(self):
        home, pda = resilient_home()
        user = home.default_user
        frames_before = pda.frames_received
        user.session.upstream.endpoint.abort()
        home.scheduler.run_until_idle()
        res = user.session.resilience
        assert res.reconnect_count == 1
        assert res.death_reasons == ["transport closed"]
        assert len(res.reconnect_latencies) == 1
        assert user.session.upstream.ready
        # exactly one full-frame resync flowed to the new upstream
        assert user.session.upstream.updates_received == 1
        assert_one_session_per_user(home)
        assert pda.frames_received == frames_before + 1
        assert user.current_output == "pda-1"

    @pytest.mark.parametrize("name", MALFORMED_SERVER_MESSAGES)
    def test_malformed_server_message_redials_to_a_true_mirror(self, name):
        home, pda = resilient_home()
        user = home.default_user
        frames_before = pda.frames_received
        user.server_session.endpoint.send(MALFORMED_SERVER_MESSAGES[name])
        home.scheduler.run_until_idle()  # must not raise
        res = user.session.resilience
        assert res.reconnect_count == 1
        assert res.death_reasons == ["transport closed"]
        assert user.session.upstream.ready
        assert user.session.upstream.framebuffer == home.display.framebuffer
        assert pda.frames_received == frames_before + 1

    def test_heartbeat_detects_silent_death(self):
        home, pda = resilient_home()
        user = home.default_user
        # blackhole the server side: bytes in, nothing out — only the
        # miss-based heartbeat can notice this
        home.uniint_server.sessions[0].endpoint.on_receive = lambda d: None
        pda.send_event({"type": "tap", "x": 1, "y": 1})  # wakes heartbeat
        home.scheduler.run_until_idle()
        res = user.session.resilience
        assert res.death_reasons == ["3 unanswered pings"]
        assert res.reconnect_count == 1
        assert user.session.upstream.ready

    def test_idle_heartbeats_go_dormant(self):
        home, pda = resilient_home()
        res = home.default_user.session.resilience
        home.scheduler.run_until_idle()
        beats = res.heartbeats_sent
        # idle: the one-shot chain has gone dormant, so the clock is not
        # being dragged forward forever and no further beats fire
        home.scheduler.run_until_idle()
        assert res.heartbeats_sent == beats
        # activity wakes it again
        pda.send_event({"type": "tap", "x": 1, "y": 1})
        home.scheduler.run_until_idle()
        assert res.heartbeats_sent > beats

    def test_gives_up_after_max_attempts(self):
        home, pda = resilient_home()
        user = home.default_user
        res = user.session.resilience

        def dead_dial():
            from repro.util.errors import TransportError
            raise TransportError("house burned down")

        res.dial = dead_dial
        user.session.upstream.endpoint.abort()
        home.scheduler.run_until_idle()
        assert res.failed_permanently
        assert not res.reconnecting
        assert res.reconnect_count == 0
        assert len(res.attempt_failures) == REDIAL_ATTEMPTS
        assert "gave up after" in res.give_up_reason
        # permanent failure is quiescent: no timers left spinning
        assert home.scheduler.pending_count() == 0

    def test_backoff_grows_and_caps(self):
        home, pda = resilient_home()
        res = home.default_user.session.resilience
        from repro.util.errors import TransportError

        times = []
        real_dial = res.dial

        def failing_dial():
            times.append(home.scheduler.now())
            raise TransportError("nope")

        res.dial = failing_dial
        home.default_user.session.upstream.endpoint.abort()
        home.scheduler.run_until_idle()
        gaps = [b - a for a, b in zip(times, times[1:])]
        # exponential up to the cap with +/-50% jitter
        assert gaps[0] < 1.0
        assert len(gaps) == REDIAL_ATTEMPTS - 1
        assert all(gap <= REDIAL_CAP_S * 1.5 + 1e-9 for gap in gaps)
        assert max(gaps) > gaps[0]

    def test_homes_that_die_together_redial_apart(self):
        """Each session seeds its jitter from its home's name and its
        user, so sessions that lose their server at one instant spread
        their redials instead of retrying in lockstep."""
        from repro.util.errors import TransportError

        first_gaps = []
        for name in ("home-0", "home-1", "home-2"):
            home, pda = resilient_home(name)
            res = home.default_user.session.resilience
            times = []

            def failing_dial(times=times, home=home):
                times.append(home.scheduler.now())
                raise TransportError("nope")

            res.dial = failing_dial
            home.default_user.session.upstream.endpoint.abort()
            home.scheduler.run_until_idle()
            first_gaps.append(times[1] - times[0])
            home.close()
        assert len(set(first_gaps)) == 3, first_gaps

    def _redial_once_via(self, home, make_endpoint):
        """Arm the next redial to dial ``make_endpoint`` once, then the
        real server again."""
        res = home.default_user.session.resilience
        real_dial = res.dial

        def dial():
            res.dial = real_dial
            return make_endpoint()

        res.dial = dial
        return res

    def test_silent_redial_times_out_then_recovers(self):
        home, pda = resilient_home()
        user = home.default_user
        silent = []

        def into_silence():
            pipe = make_pipe(home.scheduler, ETHERNET_100, name="silent")
            silent.append(pipe)  # nobody serves the far end
            return pipe.b

        res = self._redial_once_via(home, into_silence)
        user.session.upstream.endpoint.abort()
        home.scheduler.run_until_idle()
        assert res.attempt_failures == ["attempt 1: attempt timed out"]
        assert res.reconnect_count == 1
        assert user.session.upstream.ready
        # the abandoned attempt was torn down, not left half-open
        assert not silent[0].b.is_open
        assert_one_session_per_user(home)

    def test_redial_dropped_mid_handshake_retries(self):
        home, pda = resilient_home()
        user = home.default_user

        def hung_up():
            pipe = make_pipe(home.scheduler, ETHERNET_100, name="hangup")
            home.scheduler.call_later(0.01, pipe.a.close)
            return pipe.b

        res = self._redial_once_via(home, hung_up)
        user.session.upstream.endpoint.abort()
        home.scheduler.run_until_idle()
        assert res.attempt_failures == [
            "attempt 1: connection died mid-handshake"]
        assert res.reconnect_count == 1
        assert user.session.upstream.ready

    def test_garbled_redial_is_one_more_retry(self):
        home, pda = resilient_home()
        user = home.default_user

        def stranger():
            pipe = make_pipe(home.scheduler, ETHERNET_100, name="stranger")
            home.scheduler.call_later(
                0.01, lambda: pipe.a.send(b"HTTP/1.1 400\n"))
            return pipe.b

        res = self._redial_once_via(home, stranger)
        user.session.upstream.endpoint.abort()
        home.scheduler.run_until_idle()
        assert len(res.attempt_failures) == 1
        assert res.attempt_failures[0].startswith(
            "attempt 1: handshake failed: ")
        assert res.reconnect_count == 1
        assert not res.failed_permanently
        assert user.session.upstream.ready

    def test_close_disables_resilience(self):
        home, pda = resilient_home()
        user = home.default_user
        res = user.session.resilience
        user.proxy.disconnect()
        home.scheduler.run_until_idle()
        assert not res.enabled
        assert res.reconnect_count == 0
        assert home.scheduler.pending_count() == 0


class TestDeviceLegSelfHealing:
    def test_leg_bounce_redials_and_reselects(self):
        home, pda = resilient_home()
        user = home.default_user
        pda.endpoint_for(user.proxy.proxy_id).abort()
        home.scheduler.run_until_idle()
        assert pda.link_reconnects == 1
        assert pda.connected
        assert user.current_input == "pda-1"
        assert user.current_output == "pda-1"
        # the screen still works over the new leg
        frames = pda.frames_received
        user.app.show_appliance("tv")
        home.scheduler.run_until_idle()
        assert pda.frames_received >= frames

    def test_deliberate_disconnect_is_not_retried(self):
        home, pda = resilient_home()
        pda.disconnect()
        home.scheduler.run_until_idle()
        assert not pda.connected
        assert pda.link_reconnects == 0

    def test_gives_up_after_budget(self):
        home, pda = resilient_home()
        user = home.default_user
        # make every redial fail: the proxy claims the id is taken
        from repro.util.errors import ProxyError
        redials = []

        def reject(device, endpoint):
            redials.append(home.scheduler.now())
            raise ProxyError("no room at the inn")

        user.proxy.register_device = reject
        pda.endpoint_for(user.proxy.proxy_id).abort()
        home.scheduler.run_until_idle()  # waits out every backoff
        assert len(redials) == REDIAL_ATTEMPTS
        assert pda.link_reconnects == 0
        assert pda.link_reconnects_failed == 1
        assert not pda.connected


class TestSatelliteFixes:
    def test_listener_closes_conn_when_accept_callback_raises(self):
        reactor = Reactor()
        accepted_fds = []

        def exploding_accept(conn, addr):
            accepted_fds.append(conn)
            raise RuntimeError("no thanks")

        listener = TcpListener(reactor, exploding_accept)
        client = socket.create_connection(listener.address)
        # the raise quarantines the listener's orphan handling path, but
        # the freshly accepted socket must not leak open
        for _ in range(50):
            reactor.turn(block_s=0.01)
            if accepted_fds:
                break
        assert accepted_fds
        assert accepted_fds[0].fileno() == -1, "accepted socket must close"
        client.close()
        listener.close()
        reactor.close()

    def test_quarantine_diagnostics(self):
        import time as _time
        reactor = Reactor()
        sched = Scheduler()
        member = reactor.add_scheduler(sched, name="sick-home")

        def boom():
            raise ValueError("contained")

        before = _time.time()
        sched.call_soon(boom)
        reactor.run_until_idle()
        assert member.failed
        assert member.failed_at is not None
        assert before <= member.failed_at <= _time.time()
        assert "ValueError: contained" in member.last_traceback
        assert len(member.tracebacks) == 1
        assert "QUARANTINED" in repr(member)
        assert "sick-home" in repr(member)
        assert "quarantined=['sick-home']" in repr(reactor)
        reactor.close()

    def test_partitioned_state_in_repr(self):
        reactor = Reactor()
        sched = Scheduler()
        member = reactor.add_scheduler(sched, name="walled")
        reactor.partition_member(member)
        assert "PARTITIONED" in repr(member)
        reactor.heal_member(member)
        assert "ok" in repr(member)
        reactor.close()

    def test_handshake_rejects_absurd_name_length(self):
        # hand-drive the client against a hostile ServerInit whose name
        # length claims ~4 GiB: must fail, not buffer forever
        server = ServerHandshake(160, 120, "x" * 10)
        client = ClientHandshake()
        client.feed(server.outgoing())
        server.feed(client.outgoing())
        client.feed(server.outgoing())
        server.feed(client.outgoing())
        wire = bytearray(server.outgoing())  # ServerInit
        # poison the u32 name length (offset: 2+2+16 = 20)
        wire[20:24] = (MAX_NAME_LEN + 1).to_bytes(4, "big")
        client.feed(bytes(wire))
        assert client.failed is not None
        assert "exceeds" in client.failed

    def test_handshake_accepts_max_name_length(self):
        server = ServerHandshake(160, 120, "n" * MAX_NAME_LEN)
        client = ClientHandshake()
        client.feed(server.outgoing())
        server.feed(client.outgoing())
        client.feed(server.outgoing())
        server.feed(client.outgoing())
        client.feed(server.outgoing())
        assert client.done
        assert client.result.name == "n" * MAX_NAME_LEN
