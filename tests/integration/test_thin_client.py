"""Integration tests: UniInt server <-> proxy <-> devices pipeline."""

import pytest

from repro.devices import CellPhone, Pda, RemoteControl, TvDisplay, VoiceInput
from repro.graphics import RGB888
from repro.net import ETHERNET_100, make_pipe
from repro.proxy import UniIntProxy
from repro.server import UniIntServer
from repro.toolkit import Button, Column, Label, ToggleButton, UIWindow
from repro.uip import keysyms
from repro.util import Scheduler
from repro.windows import DisplayServer


def build_stack(width=400, height=300):
    """A display server with one window, a UniInt server, and a proxy."""
    scheduler = Scheduler()
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
    pipe = make_pipe(scheduler, ETHERNET_100, name="server-link")
    server.accept(pipe.a)
    session = proxy.connect(pipe.b)
    return scheduler, display, window, server, proxy, session


class TestUpstreamMirror:
    def test_handshake_and_initial_frame(self):
        scheduler, display, window, server, proxy, session = build_stack()
        scheduler.run_until_idle()
        assert session.upstream.ready
        assert session.upstream.framebuffer is not None
        assert session.upstream.framebuffer.size == (400, 300)
        # mirror matches the composited framebuffer exactly (RGB888 wire)
        assert session.upstream.framebuffer == display.framebuffer

    def test_mirror_tracks_ui_changes(self):
        scheduler, display, window, server, proxy, session = build_stack()
        scheduler.run_until_idle()
        label = window.root.find("status")
        label.text = "CHANGED TEXT"
        scheduler.run_until_idle()
        assert session.upstream.framebuffer == display.framebuffer

    def test_key_event_roundtrip_drives_widget(self):
        scheduler, display, window, server, proxy, session = build_stack()
        scheduler.run_until_idle()
        toggle = window.root.find("power")
        assert toggle.value is False
        session.upstream.press_key(keysyms.RETURN)  # toggle has focus
        scheduler.run_until_idle()
        assert toggle.value is True
        assert window.root.find("status").text == "ON"
        # and the updated pixels came back to the mirror
        assert session.upstream.framebuffer == display.framebuffer

    def test_pointer_event_roundtrip(self):
        scheduler, display, window, server, proxy, session = build_stack()
        scheduler.run_until_idle()
        toggle = window.root.find("power")
        cx, cy = toggle.abs_rect().center
        session.upstream.click(cx, cy)
        scheduler.run_until_idle()
        assert toggle.value is True

    def test_updates_are_incremental_not_full(self):
        scheduler, display, window, server, proxy, session = build_stack()
        scheduler.run_until_idle()
        server_session = server.sessions[0]
        sent_before = server_session.rects_sent
        window.root.find("status").text = "x"
        scheduler.run_until_idle()
        # a label change must not resend the whole screen
        assert server_session.rects_sent > sent_before
        label_rect = window.root.find("status").abs_rect()
        bytes_per_px = RGB888.bytes_per_pixel
        full_frame = 400 * 300 * bytes_per_px
        # (generous bound: hextile of the label area is far below full frame)
        assert session.upstream.endpoint.stats.bytes_received < full_frame

    def test_quiescent_when_idle(self):
        scheduler, display, window, server, proxy, session = build_stack()
        scheduler.run_until_idle()
        fired = scheduler.fired_count
        scheduler.run_until_idle()
        assert scheduler.fired_count == fired


class TestMultiSessionBroadcast:
    """N proxy sessions sharing one display server (the wall-display +
    PDA + phone scenario): every mirror stays independently decodable."""

    def _build_multi(self, configs):
        scheduler = Scheduler()
        window = UIWindow(400, 300)
        col = Column()
        label = col.add(Label("READY"))
        label.widget_id = "status"
        toggle = col.add(ToggleButton("Power"))
        toggle.widget_id = "power"
        window.set_root(col)
        display = DisplayServer(window)
        server = UniIntServer(display, scheduler)
        sessions = []
        for kwargs in configs:
            proxy = UniIntProxy(scheduler)
            pipe = make_pipe(scheduler, ETHERNET_100, name="multi")
            server.accept(pipe.a)
            sessions.append(proxy.connect(pipe.b, **kwargs))
        return scheduler, display, window, server, sessions

    def test_mixed_encodings_all_track(self):
        from repro.uip import HEXTILE, RAW, ZRLE
        configs = [
            {},                                        # HEXTILE, default
            {"encodings": (ZRLE, RAW)},
            {"encodings": (HEXTILE, RAW)},
            {"encodings": (RAW,)},
        ]
        scheduler, display, window, server, sessions = self._build_multi(
            configs)
        scheduler.run_until_idle()
        assert len(server.sessions) == len(configs)
        for rounds in range(3):
            window.root.find("status").text = f"round {rounds}"
            scheduler.run_until_idle()
        for session in sessions:
            assert session.upstream.framebuffer == display.framebuffer

    def test_shared_encode_fans_out_fewer_encodes(self):
        configs = [{} for _ in range(5)]
        scheduler, display, window, server, sessions = self._build_multi(
            configs)
        scheduler.run_until_idle()
        cache = server.default_surface.encode_cache
        misses_before, hits_before = cache.misses, cache.hits
        window.root.find("status").text = "fan out"
        scheduler.run_until_idle()
        new_misses = cache.misses - misses_before
        new_hits = cache.hits - hits_before
        assert new_misses > 0
        assert new_hits >= 4 * new_misses  # 1 encode feeds 5 sessions
        for session in sessions:
            assert session.upstream.framebuffer == display.framebuffer

    def test_input_from_one_session_updates_all_mirrors(self):
        from repro.uip import RAW, ZRLE
        configs = [{}, {}, {"encodings": (ZRLE, RAW)}]
        scheduler, display, window, server, sessions = self._build_multi(
            configs)
        scheduler.run_until_idle()
        toggle = window.root.find("power")
        cx, cy = toggle.abs_rect().center
        sessions[0].upstream.click(cx, cy)
        scheduler.run_until_idle()
        assert toggle.value is True
        for session in sessions:
            assert session.upstream.framebuffer == display.framebuffer


class TestDevicePipeline:
    def test_pda_receives_frames_and_taps_back(self):
        scheduler, display, window, server, proxy, session = build_stack()
        pda = Pda("my-pda", scheduler)
        pda.connect(proxy)
        proxy.select_input("my-pda")
        proxy.select_output("my-pda")
        scheduler.run_until_idle()
        assert pda.frames_received >= 1
        assert pda.screen_image.format == "gray4"
        assert pda.screen_image.width == 320
        # tap the toggle through the view transform
        toggle = window.root.find("power")
        cx, cy = toggle.abs_rect().center
        view = session.context.view
        dx, dy = view.to_device(cx, cy)
        pda.tap(dx, dy)
        scheduler.run_until_idle()
        assert toggle.value is True

    def test_phone_keypad_navigation(self):
        scheduler, display, window, server, proxy, session = build_stack()
        phone = CellPhone("keitai", scheduler)
        phone.connect(proxy)
        proxy.select_input("keitai")
        proxy.select_output("keitai")
        scheduler.run_until_idle()
        assert phone.screen_image.format == "mono1"
        toggle = window.root.find("power")
        phone.press("5")  # select -> Return on focused toggle
        scheduler.run_until_idle()
        assert toggle.value is True

    def test_voice_input_with_tv_output(self):
        scheduler, display, window, server, proxy, session = build_stack()
        voice = VoiceInput("kitchen-mic", scheduler)
        tv = TvDisplay("living-tv", scheduler)
        voice.connect(proxy)
        tv.connect(proxy)
        proxy.select_input("kitchen-mic")
        proxy.select_output("living-tv")
        scheduler.run_until_idle()
        assert tv.screen_image.format == "rgb888"
        toggle = window.root.find("power")
        voice.say("select")
        scheduler.run_until_idle()
        assert toggle.value is True
        voice.say("wibble")  # out of vocabulary: ignored
        scheduler.run_until_idle()
        assert toggle.value is True

    def test_remote_button_input(self):
        scheduler, display, window, server, proxy, session = build_stack()
        remote = RemoteControl("sofa-remote", scheduler)
        tv = TvDisplay("tv", scheduler)
        remote.connect(proxy)
        tv.connect(proxy)
        proxy.select_input("sofa-remote")
        proxy.select_output("tv")
        scheduler.run_until_idle()
        remote.press("ok")
        scheduler.run_until_idle()
        assert window.root.find("power").value is True

    def test_dynamic_input_switch_preserves_session(self):
        """Paper §2.1: phone input swapped for voice mid-session."""
        scheduler, display, window, server, proxy, session = build_stack()
        phone = CellPhone("keitai", scheduler)
        voice = VoiceInput("mic", scheduler)
        phone.connect(proxy)
        voice.connect(proxy)
        proxy.select_input("keitai")
        proxy.select_output("keitai")
        scheduler.run_until_idle()
        toggle = window.root.find("power")
        phone.press("5")
        scheduler.run_until_idle()
        assert toggle.value is True
        # both hands become busy: switch to voice
        proxy.select_input("mic")
        assert session.switch_count == 1
        voice.say("select")
        scheduler.run_until_idle()
        assert toggle.value is False  # toggled back off
        # the old device's events are now ignored
        phone.press("5")
        scheduler.run_until_idle()
        assert toggle.value is False

    def test_dynamic_output_switch_repushes_frame(self):
        scheduler, display, window, server, proxy, session = build_stack()
        pda = Pda("pda", scheduler)
        tv = TvDisplay("tv", scheduler)
        pda.connect(proxy)
        tv.connect(proxy)
        proxy.select_output("pda")
        scheduler.run_until_idle()
        assert pda.frames_received >= 1
        assert tv.frames_received == 0
        proxy.select_output("tv")
        scheduler.run_until_idle()
        assert tv.frames_received >= 1
        assert tv.screen_image.width == 720

    def test_unselected_devices_get_no_frames(self):
        scheduler, display, window, server, proxy, session = build_stack()
        pda = Pda("pda", scheduler)
        tv = TvDisplay("tv", scheduler)
        pda.connect(proxy)
        tv.connect(proxy)
        proxy.select_output("tv")
        window.root.find("status").text = "busy busy"
        scheduler.run_until_idle()
        assert pda.frames_received == 0

    def test_device_unregister_clears_selection(self):
        scheduler, display, window, server, proxy, session = build_stack()
        pda = Pda("pda", scheduler)
        pda.connect(proxy)
        proxy.select_input("pda")
        proxy.select_output("pda")
        scheduler.run_until_idle()
        proxy.unregister_device("pda")
        assert proxy.current_input is None
        assert proxy.current_output is None

    def test_screen_luma_reflects_ui(self):
        scheduler, display, window, server, proxy, session = build_stack()
        pda = Pda("pda", scheduler)
        pda.connect(proxy)
        proxy.select_output("pda")
        scheduler.run_until_idle()
        luma = pda.screen_luma()
        assert luma.shape == (240, 320)
        # the panel area is mostly light grey; letterbox bands are black
        assert luma.mean() > 20
