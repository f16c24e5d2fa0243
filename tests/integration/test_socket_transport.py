"""Integration: the full session stack over a real socketpair transport.

The acceptance bar for the Transport abstraction: the server/proxy stack
must behave identically whether bytes move over the simulated pipe or a
genuine kernel byte stream (:func:`make_socket_transport_pair` on a
reactor), which re-segments chunks arbitrarily and signals close via EOF
instead of a scheduler event.
"""

import pytest

from repro import Home
from repro.appliances import Television
from repro.devices import RemoteControl
from repro.net import make_socket_transport_pair
from repro.proxy import UniIntProxy
from repro.server import UniIntServer
from repro.toolkit import Button, Column, Label, ToggleButton, UIWindow
from repro.uip import keysyms
from repro.util import Scheduler
from repro.windows import DisplayServer


@pytest.fixture
def build_stack(reactor, closing):
    """``build_stack(...)``: the test_thin_client stack, but over a
    socketpair transport on ``reactor``, both halves closed at teardown."""

    def build(width=400, height=300):
        scheduler = Scheduler()
        member = reactor.add_scheduler(scheduler)
        window = UIWindow(width, height)
        col = Column()
        label = col.add(Label("READY"))
        label.widget_id = "status"
        toggle = col.add(ToggleButton("Power"))
        toggle.widget_id = "power"
        toggle.on_activate = lambda w: setattr(
            label, "text", "ON" if w.value else "OFF")
        button = col.add(Button("Next"))
        button.widget_id = "next"
        window.set_root(col)
        display = DisplayServer(window)
        server = UniIntServer(display, scheduler)
        proxy = UniIntProxy(scheduler)
        pair = make_socket_transport_pair(member, name="server-link")
        closing(pair.a)
        closing(pair.b)
        server.accept(pair.a)
        session = proxy.connect(pair.b)
        return reactor, display, window, server, proxy, session

    return build


class TestSocketSession:
    def test_handshake_and_initial_frame(self, build_stack):
        reactor, display, window, server, proxy, session = build_stack()
        reactor.run_until_idle()
        assert session.upstream.ready
        assert session.upstream.framebuffer is not None
        assert session.upstream.framebuffer == display.framebuffer

    def test_mirror_tracks_ui_changes(self, build_stack):
        reactor, display, window, server, proxy, session = build_stack()
        reactor.run_until_idle()
        window.root.find("status").text = "CHANGED TEXT"
        reactor.run_until_idle()
        assert session.upstream.framebuffer == display.framebuffer

    def test_key_event_roundtrip_drives_widget(self, build_stack):
        reactor, display, window, server, proxy, session = build_stack()
        reactor.run_until_idle()
        session.upstream.press_key(keysyms.RETURN)  # toggle has focus
        reactor.run_until_idle()
        assert window.root.find("status").text == "ON"
        assert session.upstream.framebuffer == display.framebuffer

    def test_close_propagates_to_server(self, build_stack):
        reactor, display, window, server, proxy, session = build_stack()
        reactor.run_until_idle()
        assert len(server.sessions) == 1
        session.close()
        reactor.run_until_idle()
        assert len(server.sessions) == 0

    def test_server_side_close_reaches_client(self, build_stack):
        reactor, display, window, server, proxy, session = build_stack()
        reactor.run_until_idle()
        server.sessions[0].close()
        reactor.run_until_idle()
        assert session.upstream.closed

    def test_many_churn_rounds_stay_pixel_identical(self, build_stack):
        reactor, display, window, server, proxy, session = build_stack()
        reactor.run_until_idle()
        label = window.root.find("status")
        for round_no in range(25):
            label.text = f"round {round_no}"
            reactor.run_until_idle()
            assert session.upstream.framebuffer == display.framebuffer


class TestSocketHome:
    def test_full_home_over_sockets(self):
        # a TCP home: UIP over TCP, the remote's leg over a socketpair,
        # every socket on the home's reactor
        home = Home(transport="tcp")
        home.add_appliance(Television("TV"))
        remote = RemoteControl("clicker", home.scheduler)
        home.add_device(remote)
        home.settle()
        assert home.session.upstream.framebuffer == home.display.framebuffer
        # input events flow device -> proxy -> server over the socket link
        remote.press("ok")
        home.settle()
        assert home.session.upstream.framebuffer == home.display.framebuffer
        assert home.server_session.key_events > 0
        home.close()

    def test_rejects_unknown_transport(self):
        for transport in ("carrier-pigeon", "socket"):
            with pytest.raises(ValueError):
                Home(transport=transport)
