"""Failure injection and robustness tests across the stack."""

import json

import pytest

from repro import Home
from repro.appliances import Television
from repro.devices import CellPhone, Pda, TvDisplay, VoiceInput
from repro.havi import FcmType
from repro.net import LOOPBACK, LinkProfile, make_pipe
from repro.net.framing import encode_frame
from repro.proxy import UniIntProxy
from repro.server import UniIntServer
from repro.toolkit import Column, Label, ToggleButton, UIWindow
from repro.util import Scheduler
from repro.windows import DisplayServer


def stack(width=200, height=150):
    scheduler = Scheduler()
    window = UIWindow(width, height)
    col = Column()
    toggle = col.add(ToggleButton("Power"))
    toggle.widget_id = "power"
    col.add(Label("panel"))
    window.set_root(col)
    display = DisplayServer(window)
    server = UniIntServer(display, scheduler)
    proxy = UniIntProxy(scheduler)
    pipe = make_pipe(scheduler, LOOPBACK, name="up")
    server.accept(pipe.a)
    session = proxy.connect(pipe.b)
    return scheduler, display, window, server, proxy, session


class TestMalformedDeviceTraffic:
    def test_bad_json_recorded_and_dropped(self):
        scheduler, display, window, server, proxy, session = stack()
        phone = CellPhone("ph", scheduler)
        phone.connect(proxy)
        proxy.select_input("ph")
        scheduler.run_until_idle()
        # raw garbage framed as an event
        phone.endpoint_for(proxy.proxy_id).send(
            encode_frame(b"\xFF\xFEnot json"))
        scheduler.run_until_idle()
        assert len(session.plugin_errors) == 1
        # session still works afterwards
        phone.press("5")
        scheduler.run_until_idle()
        assert window.root.find("power").value is True

    def test_plugin_rejection_recorded(self):
        scheduler, display, window, server, proxy, session = stack()
        phone = CellPhone("ph", scheduler)
        phone.connect(proxy)
        proxy.select_input("ph")
        scheduler.run_until_idle()
        phone.endpoint_for(proxy.proxy_id).send(encode_frame(
            json.dumps({"type": "key", "key": "Z"}).encode()))
        scheduler.run_until_idle()
        assert "ph" in session.plugin_errors[0]
        phone.press("5")
        scheduler.run_until_idle()
        assert window.root.find("power").value is True

    def test_rejected_events_keep_only_the_newest(self):
        scheduler, display, window, server, proxy, session = stack()
        phone = CellPhone("ph", scheduler)
        phone.connect(proxy)
        proxy.select_input("ph")
        scheduler.run_until_idle()
        for i in range(100):
            phone.endpoint_for(proxy.proxy_id).send(encode_frame(
                json.dumps({"type": "key", "key": f"Z{i}"}).encode()))
        scheduler.run_until_idle()
        assert len(session.plugin_errors) <= 32
        assert "'Z99'" in session.plugin_errors[-1]
        phone.press("5")
        scheduler.run_until_idle()
        assert window.root.find("power").value is True

    def test_unselected_device_events_ignored_silently(self):
        scheduler, display, window, server, proxy, session = stack()
        a = CellPhone("a", scheduler)
        b = CellPhone("b", scheduler)
        a.connect(proxy)
        b.connect(proxy)
        proxy.select_input("a")
        scheduler.run_until_idle()
        b.press("5")
        scheduler.run_until_idle()
        assert window.root.find("power").value is False
        assert session.plugin_errors == []


class TestLossyLinks:
    def test_lossy_voice_link_degrades_gracefully(self):
        scheduler, display, window, server, proxy, session = stack()

        class FlakyVoice(VoiceInput):
            def build_descriptor(self):
                descriptor = super().build_descriptor()
                lossy = LinkProfile("flaky-bt", latency_s=0.02,
                                    bandwidth_bps=500e3, loss=0.4)
                return type(descriptor)(
                    device_id=descriptor.device_id, kind=descriptor.kind,
                    screen=None, input_modes=descriptor.input_modes,
                    link=lossy, tags=descriptor.tags)

        voice = FlakyVoice("mic", scheduler, seed=11)
        voice.connect(proxy)
        proxy.select_input("mic")
        scheduler.run_until_idle()
        for _ in range(30):
            voice.say("select")
            scheduler.run_until_idle()
        delivered = session.events_forwarded // 2  # press+release pairs
        assert 0 < delivered < 30          # some lost, some made it
        # toggle state equals parity of delivered activations
        assert window.root.find("power").value is (delivered % 2 == 1)


class TestDisconnects:
    def test_output_device_vanishes_mid_session(self):
        scheduler, display, window, server, proxy, session = stack()
        pda = Pda("pda", scheduler)
        tv = TvDisplay("tv", scheduler)
        pda.connect(proxy)
        tv.connect(proxy)
        proxy.select_input("pda")
        proxy.select_output("tv")
        scheduler.run_until_idle()
        tv.disconnect()
        scheduler.run_until_idle()
        assert proxy.current_output is None
        # UI changes must not crash with no output device
        window.root.find("power").toggle()
        scheduler.run_until_idle()
        # and a replacement device picks the session back up
        proxy.select_output("pda")
        scheduler.run_until_idle()
        assert pda.frames_received >= 1

    def test_upstream_close_marks_client_closed(self):
        scheduler, display, window, server, proxy, session = stack()
        scheduler.run_until_idle()
        server.sessions[0].close()
        scheduler.run_until_idle()
        assert session.upstream.closed
        assert server.sessions == []

    def test_proxy_disconnect_allows_reconnect(self):
        scheduler, display, window, server, proxy, session = stack()
        scheduler.run_until_idle()
        proxy.disconnect()
        scheduler.run_until_idle()
        pipe = make_pipe(scheduler, name="up2")
        server.accept(pipe.a)
        new_session = proxy.connect(pipe.b)
        scheduler.run_until_idle()
        assert new_session.upstream.ready
        assert new_session.upstream.framebuffer == display.framebuffer


class TestMultiUser:
    def test_two_proxies_one_home(self):
        """One home server, two users with their own proxies and devices."""
        scheduler = Scheduler()
        window = UIWindow(200, 150)
        col = Column()
        toggle = col.add(ToggleButton("Power"))
        toggle.widget_id = "power"
        window.set_root(col)
        display = DisplayServer(window)
        server = UniIntServer(display, scheduler)

        proxies = []
        phones = []
        for user in ("alice", "bob"):
            proxy = UniIntProxy(scheduler, proxy_id=f"proxy-{user}")
            pipe = make_pipe(scheduler, name=f"up-{user}")
            server.accept(pipe.a)
            proxy.connect(pipe.b)
            phone = CellPhone(f"phone-{user}", scheduler)
            phone.connect(proxy)
            proxy.select_input(f"phone-{user}")
            proxy.select_output(f"phone-{user}")
            proxies.append(proxy)
            phones.append(phone)
        scheduler.run_until_idle()
        assert len(server.sessions) == 2

        # alice toggles power; bob's phone sees the repaint
        bob_frames = phones[1].frames_received
        phones[0].press("5")
        scheduler.run_until_idle()
        assert toggle.value is True
        assert phones[1].frames_received > bob_frames

        # bob toggles it back
        phones[1].press("5")
        scheduler.run_until_idle()
        assert toggle.value is False


class TestApplianceFaultSurface:
    def test_command_to_departed_appliance_errors_cleanly(self):
        home = Home()
        tv = Television("TV")
        home.add_appliance(tv)
        home.settle()
        handle = home.app.handle_for("TV", "tuner")
        home.remove_appliance("TV")
        home.settle()
        # the old handle's target SEID is gone; command bounces
        handle.command("power.set", {"on": True})
        home.settle()
        assert any("EUNKNOWN_ELEMENT" in e for e in handle.errors)

    def test_rapid_hotplug_cycles_stay_consistent(self):
        home = Home()
        tv = Television("TV")
        for _ in range(5):
            home.add_appliance(tv)
            home.settle()
            assert len(home.app.appliances) == 1
            home.remove_appliance("TV")
            home.settle()
            assert home.app.appliances == []
        assert len(home.network.registry) == 0
