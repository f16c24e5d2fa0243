"""Integration tests for the many-home fleet: real TCP control plane,
per-home isolation (budget fairness, crash quarantine), and the reset
paths that keep credit sane when clients vanish mid-broadcast."""

import gc
import os
import socket

import pytest

from repro import Home, HomeFleet
from repro.appliances import DimmableLight, MicrowaveOven, Television
from repro.devices import Pda
from repro.havi import FcmType
from repro.util.errors import ProxyError
from tests.helpers import (
    MALFORMED_CLIENT_MESSAGES,
    MALFORMED_SERVER_MESSAGE,
    OPEN_HANDSHAKE,
)


def populate(home, tag):
    home.add_appliance(DimmableLight(f"lamp-{tag}"))
    home.add_device(Pda(f"pda-{tag}", home.scheduler))
    return home


def sent_bytes(home):
    return home.server_session.endpoint.stats.bytes_sent


class TestTcpHome:
    def test_single_tcp_home_full_stack(self):
        home = Home(width=160, height=120, transport="tcp")
        populate(home, "solo")
        home.settle()
        assert home.server_session.ready
        assert sent_bytes(home) > 0, "frames crossed a real TCP socket"
        assert home.user().current_output == "pda-solo"
        reactor = home.reactor
        home.close()
        assert reactor.handle_count == 0, "all fds released on close"

    def test_run_for_advances_a_tcp_homes_clock(self):
        home = populate(Home(width=160, height=120, transport="tcp"), "t")
        home.settle()
        start = home.scheduler.now()
        home.run_for(30.0)
        assert home.scheduler.now() == pytest.approx(start + 30.0)
        # the home still serves after the jump
        lamp = home.appliances["lamp-t"].dcm.fcm_by_type(FcmType.LIGHT)
        pda = home.devices["pda-t"]
        frames = pda.frames_received
        lamp.invoke_local("power.toggle")
        home.settle()
        assert pda.frames_received > frames
        home.close()

    def test_multi_user_tcp_home_binds_surfaces_correctly(self):
        home = Home(width=160, height=120, transport="tcp")
        home.add_user("alice")
        home.settle()
        for user_id in ("resident", "alice"):
            user = home.user(user_id)
            assert user.server_session.ready
            assert user.server_session.surface is user.view.surface
        home.close()

    def test_close_closes_the_sockets_a_quarantine_dropped(self):
        home = populate(Home(width=160, height=120, transport="tcp"), "q")
        home.settle()
        member = home.reactor_member
        sockets = [handle.fileobj for handle in
                   home.reactor.handles_of(member)]
        assert len(sockets) >= 4  # listener, both TCP ends, device leg

        def boom():
            raise RuntimeError("appliance handler crashed")

        home.scheduler.call_soon(boom)
        home.settle()
        assert member.failed and not home.reactor.handles_of(member)
        home.close()
        assert [s for s in sockets if s.fileno() != -1] == []

    def test_reactor_requires_tcp_transport(self):
        from repro.net import Reactor
        reactor = Reactor()
        with pytest.raises(ValueError):
            Home(transport="pipe", reactor=reactor)
        reactor.close()


class TestFleet:
    def test_fleet_of_homes_all_serve_over_tcp(self):
        fleet = HomeFleet()
        for i in range(6):
            populate(fleet.add_home(f"h{i}"), i)
        fleet.settle()
        assert len(fleet) == 6
        assert all(h.server_session.ready for h in fleet)
        assert all(sent_bytes(h) > 0 for h in fleet)
        ports = {h.listener.port for h in fleet}
        assert len(ports) == 6, "each home listens on its own port"
        fleet.close()

    def test_duplicate_home_name_rejected(self):
        fleet = HomeFleet()
        fleet.add_home("h0")
        with pytest.raises(ProxyError):
            fleet.add_home("h0")
        fleet.close()

    def test_crashing_home_is_quarantined_and_siblings_keep_painting(self):
        fleet = HomeFleet()
        for i in range(4):
            populate(fleet.add_home(f"h{i}"), i)
        fleet.settle()

        def boom():
            raise RuntimeError("appliance driver crashed")

        fleet.home("h2").scheduler.call_soon(boom)
        fleet.settle()
        assert [h.name for h in fleet.failed_homes] == ["h2"]
        assert isinstance(fleet.error_of("h2"), RuntimeError)
        survivor = fleet.home("h0")
        before = sent_bytes(survivor)
        survivor.add_appliance(MicrowaveOven("late-micro"))
        fleet.settle()
        assert sent_bytes(survivor) > before, \
            "a crashed sibling must not stop this home's frames"
        fleet.close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts fds through /proc")
    def test_an_unsupervised_fleet_restarts_nothing(self):
        fleet = HomeFleet()
        try:
            populate(fleet.add_home("h0"), 0)
            fleet.settle()
            assert fleet.supervise() == []
        finally:
            fleet.close()

    def test_supervised_restarts_leave_no_fd_after_close(self):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        def boom():
            raise RuntimeError("appliance handler crashed")

        gc.collect()
        gc.disable()  # only close() may release a socket here
        try:
            baseline = open_fds()
            fleet = HomeFleet()
            fleet.enable_supervision(
                max_restarts=5, rebuild=lambda f, name, h: populate(h, name))
            populate(fleet.add_home("h0"), 0)
            fleet.settle()
            held = open_fds()
            for _ in range(3):
                fleet.home("h0").scheduler.call_soon(boom)
                fleet.settle()
                assert fleet.supervise() == ["h0"]
                fleet.settle()
                assert open_fds() == held, "a restart kept the old fds"
            fleet.close()
            assert open_fds() == baseline
        finally:
            gc.enable()

    def test_storming_home_cannot_starve_siblings(self):
        # a home stuck in a self-perpetuating event loop burns only its
        # per-turn budget; the sibling's UI churn still completes (the
        # fleet can never settle globally, so drive with a predicate)
        fleet = HomeFleet(event_budget=64)
        populate(fleet.add_home("calm"), "calm")
        populate(fleet.add_home("busy"), "busy")
        fleet.settle()
        busy = fleet.home("busy")

        def storm():
            busy.scheduler.call_soon(storm)

        busy.scheduler.call_soon(storm)
        calm = fleet.home("calm")
        before = sent_bytes(calm)
        calm.add_appliance(Television("tv-calm"))
        assert fleet.run_until(lambda: sent_bytes(calm) > before,
                               timeout_s=10)
        assert busy.reactor_member.events_fired > 0
        assert not busy.reactor_member.failed, \
            "storming is starved fairly, not quarantined"
        fleet.close()

    def test_client_reset_mid_broadcast_releases_credit_fleet_wide(self):
        # one resident's client dies with RST while the server is
        # broadcasting: that session's charged credit must come back and
        # the session drop, while every other session still gets frames
        fleet = HomeFleet()
        home = fleet.add_home("h0", width=200, height=150)
        home.add_user("alice")
        populate(fleet.add_home("h1"), 1)
        fleet.settle()
        victim = home.user("alice")
        victim_endpoint = victim.server_session.endpoint
        survivor_sessions = [home.user("resident").server_session,
                             fleet.home("h1").user().server_session]
        before = [s.endpoint.stats.bytes_sent for s in survivor_sessions]
        # RST the client socket (linger 0 = hard reset, not FIN)
        client_sock = victim.session.upstream.endpoint._sock
        client_sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER,
            b"\x01\x00\x00\x00\x00\x00\x00\x00")
        client_sock.close()
        # now broadcast: damage every surface in both homes
        home.add_appliance(DimmableLight("lamp-h0"))
        fleet.home("h1").add_appliance(Television("tv-h1"))
        fleet.settle()
        assert not victim_endpoint.is_open
        assert victim_endpoint.queued_bytes == 0, \
            "reset must release the dead session's charged credit"
        assert victim.server_session not in home.uniint_server.sessions
        after = [s.endpoint.stats.bytes_sent for s in survivor_sessions]
        assert all(a > b for a, b in zip(after, before)), \
            "all surviving sessions kept receiving the broadcast"
        fleet.close()

    @pytest.mark.parametrize("name", ["unknown-type", "bad-pixel-format",
                                      "set-pixel-format", "resume-session"])
    def test_a_malformed_client_message_closes_only_its_session(self, name):
        # a raw TCP client finishes the handshake, then sends bytes the
        # server's decoder rejects: the server closes that session alone
        # instead of letting the error quarantine the home
        fleet = HomeFleet()
        home = populate(fleet.add_home("h0"), 0)
        fleet.settle()
        rogue = socket.create_connection(home.listener.address)
        try:
            rogue.sendall(OPEN_HANDSHAKE + MALFORMED_CLIENT_MESSAGES[name])
            rogue.setblocking(False)

            def rogue_sees_eof():
                try:
                    while rogue.recv(65536):
                        pass
                except BlockingIOError:
                    return False
                return True

            assert fleet.run_until(rogue_sees_eof)
            assert fleet.failed_homes == ()
            assert home.uniint_server.sessions == [home.server_session]
            pda = home.devices["pda-0"]
            frames = pda.frames_received
            lamp = home.appliances["lamp-0"].dcm.fcm_by_type(FcmType.LIGHT)
            lamp.invoke_local("power.toggle")
            assert fleet.run_until(lambda: pda.frames_received > frames)
        finally:
            rogue.close()
        fleet.close()

    def test_a_malformed_server_message_closes_only_the_upstream(self):
        # the proxy's decoder rejects a server message: its upstream
        # session closes and redials instead of the error quarantining
        # the home
        fleet = HomeFleet()
        home = populate(fleet.add_home("h0", resilience=True), 0)
        fleet.settle()
        home.server_session.endpoint.send(MALFORMED_SERVER_MESSAGE)
        resilience = home.session.resilience
        assert fleet.run_until(lambda: resilience.reconnect_count == 1)
        fleet.settle()
        assert fleet.failed_homes == ()
        assert home.session.upstream.ready
        assert home.session.upstream.framebuffer == home.display.framebuffer
        pda = home.devices["pda-0"]
        frames = pda.frames_received
        lamp = home.appliances["lamp-0"].dcm.fcm_by_type(FcmType.LIGHT)
        lamp.invoke_local("power.toggle")
        assert fleet.run_until(lambda: pda.frames_received > frames)
        fleet.close()

    def test_turn_reports_whether_any_work_happened(self):
        fleet = HomeFleet()
        home = populate(fleet.add_home("h0"), 0)
        fleet.settle()
        assert fleet.turn() is False
        pda = home.devices["pda-0"]
        frames = pda.frames_received
        lamp = home.appliances["lamp-0"].dcm.fcm_by_type(FcmType.LIGHT)
        lamp.invoke_local("power.toggle")
        assert fleet.turn() is True
        assert fleet.run_until(lambda: pda.frames_received > frames)
        fleet.close()

    def test_close_is_idempotent_and_releases_everything(self):
        fleet = HomeFleet()
        populate(fleet.add_home("h0"), 0)
        fleet.settle()
        reactor = fleet.reactor
        fleet.close()
        fleet.close()
        assert reactor.handle_count == 0
