"""Unit tests for self-healing sessions: liveness heartbeats, server-side
session parking + warm resume, proxy reconnect with backoff, device-leg
redial, and the satellite robustness fixes that rode along (listener
accept-path leak, quarantine diagnostics, handshake name-length cap)."""

import socket

import pytest

from repro.devices import Pda
from repro.home import Home
from repro.net import ETHERNET_100, Reactor, TcpListener, make_pipe
from repro.proxy.session import REDIAL_ATTEMPTS, REDIAL_CAP_S
from repro.proxy.upstream import UniIntClient
from repro.server import UniIntServer
from repro.toolkit import Button, Column, Label, UIWindow
from repro.uip import RAW, ZRLE, ClientHandshake, ServerHandshake
from repro.uip.handshake import MAX_NAME_LEN
from repro.util import Scheduler
from repro.windows import DisplayServer
from repro.appliances import Television
from tests.helpers import MALFORMED_SERVER_MESSAGE


def make_server(width=160, height=120, **server_kwargs):
    scheduler = Scheduler()
    window = UIWindow(width, height)
    col = Column()
    col.add(Label("hello"))
    col.add(Button("Go"))
    window.set_root(col)
    display = DisplayServer(window)
    server = UniIntServer(display, scheduler, name="test-home",
                          **server_kwargs)
    return scheduler, display, window, server


def connect(scheduler, server, **kwargs):
    pipe = make_pipe(scheduler, ETHERNET_100, name="c")
    server.accept(pipe.a)
    return UniIntClient(pipe.b, **kwargs)


def resilient_home(name="home"):
    home = Home(name=name, resilience=True)
    home.add_appliance(Television("tv"))
    pda = Pda("pda-1", home.scheduler)
    home.add_device(pda)
    home.scheduler.run_until_idle()
    return home, pda


class TestSessionParking:
    def test_no_grant_without_resume_grace(self):
        scheduler, display, window, server = make_server()
        client = connect(scheduler, server)
        scheduler.run_until_idle()
        assert client.resume_token is None
        assert server.parked_count == 0

    def test_grant_and_park_on_abrupt_loss(self):
        scheduler, *_, server = make_server(resume_grace_s=30.0)
        client = connect(scheduler, server)
        scheduler.run_until_idle()
        assert client.resume_token is not None
        client.endpoint.abort()
        scheduler.run_until_idle()
        assert server.sessions == []
        assert server.sessions_parked == 1
        assert server.parked_count == 1

    def test_resume_transplants_state_with_one_full_resync(self):
        scheduler, display, window, server = make_server(resume_grace_s=30.0)
        client = connect(scheduler, server, encodings=(ZRLE, RAW))
        scheduler.run_until_idle()
        token = client.resume_token
        client.endpoint.abort()
        scheduler.run_until_idle()

        revived = connect(scheduler, server, encodings=(ZRLE, RAW),
                          resume_from=token)
        scheduler.run_until_idle()
        assert server.sessions_resumed == 1
        assert server.parked_count == 0
        assert len(server.sessions) == 1
        session = server.sessions[0]
        assert session.resumed
        # a resuming client sends no SetEncodings: the parked offer
        # came back with the token
        assert session.encodings == (ZRLE, RAW)
        # exactly one full-frame resync: the resuming client's single
        # non-incremental request
        assert revived.updates_received == 1
        assert revived.framebuffer == display.framebuffer
        # a fresh token was granted to the new connection
        assert revived.resume_token is not None
        assert revived.resume_token != token

    def test_expired_token_degrades_to_fresh_session(self):
        scheduler, display, window, server = make_server(resume_grace_s=2.0)
        client = connect(scheduler, server)
        scheduler.run_until_idle()
        token = client.resume_token
        client.endpoint.abort()
        scheduler.run_until_idle()
        scheduler.run_for(10.0)  # grace window sails past

        revived = connect(scheduler, server, resume_from=token)
        scheduler.run_until_idle()
        assert server.sessions_resumed == 0
        assert server.resume_misses == 1
        assert server.sessions_expired == 1
        # the session still works, just without the parked state
        assert revived.updates_received == 1
        assert revived.framebuffer == display.framebuffer

    def test_reap_stale_sessions(self):
        scheduler, *_, server = make_server(resume_grace_s=1.0)
        client = connect(scheduler, server)
        scheduler.run_until_idle()
        client.endpoint.abort()
        scheduler.run_until_idle()
        assert server.parked_count == 1
        assert server.reap_stale_sessions() == 0  # still inside the grace
        scheduler.run_for(5.0)
        assert server.reap_stale_sessions() == 1
        assert server.parked_count == 0
        assert server.sessions_expired == 1

    def test_takeover_presenting_a_live_token(self):
        scheduler, *_, server = make_server(resume_grace_s=30.0)
        first = connect(scheduler, server)
        scheduler.run_until_idle()
        token = first.resume_token
        # the old leg is still "live" from the server's point of view when
        # the new connection presents its token: takeover must park the
        # zombie first, then resume into the newcomer
        second = connect(scheduler, server, resume_from=token)
        scheduler.run_until_idle()
        assert server.sessions_resumed == 1
        assert len(server.sessions) == 1
        assert server.sessions[0].resumed
        assert second.updates_received >= 1

    def test_deliberate_close_discards_token(self):
        scheduler, *_, server = make_server(resume_grace_s=30.0)
        client = connect(scheduler, server)
        scheduler.run_until_idle()
        server.sessions[0].close()
        scheduler.run_until_idle()
        assert server.parked_count == 0
        assert server.sessions_parked == 0

    def test_unknown_token_is_a_miss_and_a_cold_session(self):
        scheduler, display, window, server = make_server(resume_grace_s=30.0)
        client = connect(scheduler, server, resume_from=4242)
        scheduler.run_until_idle()
        assert server.resume_misses == 1
        assert server.sessions_resumed == 0
        assert not server.sessions[0].resumed
        assert client.framebuffer == display.framebuffer

    def test_resume_returns_the_session_to_its_parked_surface(self):
        """A reconnect lands on the default surface; its token moves it
        back to the surface (and encode cache) it was parked from."""
        scheduler, display, window, server = make_server(resume_grace_s=30.0)
        other = UIWindow(160, 120)
        other.set_root(Label("second view"))
        second_display = DisplayServer(other)
        second = server.add_surface(second_display)
        pipe = make_pipe(scheduler, ETHERNET_100, name="c2")
        server.accept(pipe.a, surface=second)
        client = UniIntClient(pipe.b)
        scheduler.run_until_idle()
        token = client.resume_token
        client.endpoint.abort()
        scheduler.run_until_idle()

        revived = connect(scheduler, server, resume_from=token)
        scheduler.run_until_idle()
        session = server.sessions[0]
        assert session.resumed
        assert session.surface is second
        assert second.sessions == [session]
        assert server.default_surface.sessions == []
        assert session._encoder.cache is second.encode_cache
        assert revived.framebuffer == second_display.framebuffer
        assert revived.framebuffer != display.framebuffer


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
        assert home.uniint_server.sessions_resumed == 1
        assert pda.frames_received == frames_before + 1
        assert user.current_output == "pda-1"

    def test_malformed_server_message_redials_to_a_true_mirror(self):
        home, pda = resilient_home()
        user = home.default_user
        frames_before = pda.frames_received
        user.server_session.endpoint.send(MALFORMED_SERVER_MESSAGE)
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
        assert home.uniint_server.sessions_resumed == 1

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
