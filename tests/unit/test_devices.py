"""Unit tests for device plug-ins: keypad maps, voice model, gestures."""

import math
import random

import numpy as np

import pytest

from repro.devices import (
    CellPhone,
    GesturePad,
    Pda,
    RemoteControl,
    VoiceInput,
    WallDisplay,
)
from repro.devices.gesture import classify_stroke
from repro.graphics import Bitmap, Rect, ops
from repro.net import frame_chunks
from repro.proxy import DeviceImage, UniIntProxy
from repro.proxy.plugins import LINK_TAG_IMAGE, SessionContext, ViewTransform
from repro.uip import keysyms
from repro.uip.messages import KeyEvent, PointerEvent
from repro.util import Scheduler
from repro.util.errors import PluginError, ProxyError
from tests.helpers import ScreenReplay


def plugin_for(device, view=True):
    context = SessionContext()
    if view:
        context.view = ViewTransform(0.5, 0, 0, 480, 360)
    return device.input_plugin_factory(device.descriptor, context), context


class TestPdaTouchPlugin:
    def test_tap_maps_through_view(self):
        pda = Pda("p", Scheduler())
        plugin, context = plugin_for(pda)
        down = plugin.translate(
            {"type": "touch", "action": "down", "x": 100, "y": 50})
        assert down == [PointerEvent(1, 200, 100)]
        up = plugin.translate(
            {"type": "touch", "action": "up", "x": 100, "y": 50})
        assert up == [PointerEvent(0, 200, 100)]

    def test_no_view_drops_events(self):
        pda = Pda("p", Scheduler())
        plugin, _ = plugin_for(pda, view=False)
        assert plugin.translate(
            {"type": "touch", "action": "down", "x": 1, "y": 1}) == []

    def test_bad_action_rejected(self):
        pda = Pda("p", Scheduler())
        plugin, _ = plugin_for(pda)
        with pytest.raises(PluginError):
            plugin.translate({"type": "touch", "action": "hover",
                              "x": 0, "y": 0})

    def test_foreign_event_ignored(self):
        pda = Pda("p", Scheduler())
        plugin, _ = plugin_for(pda)
        assert plugin.translate({"type": "key", "key": "5"}) == []

    def test_process_counts(self):
        pda = Pda("p", Scheduler())
        plugin, _ = plugin_for(pda)
        plugin.process({"type": "touch", "action": "down", "x": 1, "y": 1})
        assert plugin.events_in == 1
        assert plugin.events_out == 1


class TestPhoneKeypadPlugin:
    def _plugin(self):
        phone = CellPhone("k", Scheduler())
        return plugin_for(phone)[0]

    @pytest.mark.parametrize("key,keysym", [
        ("2", keysyms.UP), ("8", keysyms.DOWN), ("4", keysyms.LEFT),
        ("6", keysyms.RIGHT), ("5", keysyms.RETURN), ("0", keysyms.SPACE),
        ("#", keysyms.ESCAPE), ("*", keysyms.TAB), ("7", keysyms.HOME),
    ])
    def test_simple_keys(self, key, keysym):
        out = self._plugin().translate({"type": "key", "key": key})
        assert out == [KeyEvent(True, keysym), KeyEvent(False, keysym)]

    def test_reverse_focus_chord(self):
        out = self._plugin().translate({"type": "key", "key": "1"})
        assert [e.keysym for e in out] == [
            keysyms.SHIFT_L, keysyms.TAB, keysyms.TAB, keysyms.SHIFT_L]
        assert [e.down for e in out] == [True, True, False, False]

    def test_unknown_key_rejected(self):
        with pytest.raises(PluginError):
            self._plugin().translate({"type": "key", "key": "A"})


def phone_output_plugin():
    phone = CellPhone("k", Scheduler())
    return phone.output_plugin_factory(phone.descriptor, SessionContext())


def full_phone_image(pixels):
    """What a fresh phone plug-in makes of a frame of ``pixels``."""
    frame = Bitmap.from_array(pixels)
    return phone_output_plugin().transform(frame, frame.bounds)


class TestPhoneScreenCache:
    """The phone's output plug-in dithers each distinct fitted frame once:
    a frame that comes back reuses the packed screen made of it."""

    DAMAGE = Rect(96, 72, 48, 24)

    @pytest.fixture
    def dithers(self, monkeypatch):
        """The luma shapes ``ops.floyd_steinberg`` is called on."""
        calls = []
        dither = ops.floyd_steinberg

        def counted(gray, levels=2):
            calls.append(gray.shape)
            return dither(gray, levels)

        monkeypatch.setattr(ops, "floyd_steinberg", counted)
        return calls

    def frames(self):
        """Panel-like pixels A of a 240x180 frame (fitted to 128x96 and
        letterboxed), and B: A with :attr:`DAMAGE` repainted."""
        a = np.full((180, 240, 3), 206, dtype=np.uint8)
        a[20:60, 16:224] = (40, 80, 160)
        a[100:150:7, 30:200] = 0
        b = a.copy()
        b[self.DAMAGE.y:self.DAMAGE.y2, self.DAMAGE.x:self.DAMAGE.x2] = (
            250, 200, 0)
        return a, b

    def test_a_revisited_frame_is_dithered_once(self, dithers):
        a, b = self.frames()
        expected = {"A": full_phone_image(a), "B": full_phone_image(b)}
        dithers.clear()
        plugin, screen = phone_output_plugin(), ScreenReplay()
        frame = Bitmap.from_array(a)
        assert screen.show(plugin.process(frame, frame.bounds)) == \
            expected["A"]
        for name, pixels in [("B", b), ("A", a), ("B", b), ("A", a)]:
            frame.pixels[:] = pixels
            image = plugin.process(frame, self.DAMAGE)
            assert not image.is_full
            assert screen.show(image) == expected[name]
        assert dithers == [(96, 128)] * 2
        assert (plugin.screens.hits, plugin.screens.misses) == (3, 2)

    def test_one_pixel_off_a_revisited_frame_is_dithered_again(
            self, dithers):
        a, b = self.frames()
        plugin, screen = phone_output_plugin(), ScreenReplay()
        frame = Bitmap.from_array(a)
        screen.show(plugin.process(frame, frame.bounds))
        for pixels in (b, a):
            frame.pixels[:] = pixels
            screen.show(plugin.process(frame, self.DAMAGE))
        assert len(dithers) == 2
        frame.pixels[100, 100] = (206, 206, 206)  # one pixel of a rule
        image = plugin.process(frame, Rect(100, 100, 1, 1))
        assert len(dithers) == 3
        assert screen.show(image) == full_phone_image(frame.pixels)

    def test_a_new_frame_object_is_a_full_frame_without_a_dither(
            self, dithers):
        a, b = self.frames()
        plugin = phone_output_plugin()
        frame = Bitmap.from_array(a)
        plugin.process(frame, frame.bounds)
        frame.pixels[:] = b
        plugin.process(frame, self.DAMAGE)
        expected = full_phone_image(a)
        dithers.clear()
        image = plugin.process(Bitmap.from_array(a), Rect(0, 0, 1, 1))
        assert image.is_full and image == expected
        assert dithers == []

    def test_the_same_bytes_in_another_shape_are_dithered_anew(
            self, dithers):
        """A black 6x4 and a black 4x6 frame have the same pixel bytes,
        but not the same letterbox."""
        plugin = phone_output_plugin()
        for shape in [(4, 6, 3), (6, 4, 3)]:
            pixels = np.zeros(shape, dtype=np.uint8)
            frame = Bitmap.from_array(pixels)
            image = plugin.process(frame, frame.bounds)
            assert image == full_phone_image(pixels)
        assert len(dithers) == 4  # two for the plug-in, two fresh ones

    def test_distinct_frames_past_the_cap_keep_it_at_the_cap(self, dithers):
        """Tiny frames are fitted 1:1, so each push is cheap."""
        plugin = phone_output_plugin()
        frame = Bitmap(2, 2)
        cap = plugin.screens.max_entries
        for n in range(cap + 8):
            frame.pixels[0, 0] = (n & 255, n >> 8, 0)
            plugin.process(frame, Rect(0, 0, 1, 1))
        assert len(dithers) == cap + 8
        assert len(plugin.screens) == cap


class TestVoice:
    def test_vocabulary_mapping(self):
        voice = VoiceInput("v", Scheduler())
        plugin = plugin_for(voice)[0]
        out = plugin.translate({"type": "voice", "word": "select"})
        assert out == [KeyEvent(True, keysyms.RETURN),
                       KeyEvent(False, keysyms.RETURN)]

    def test_out_of_vocabulary_silent(self):
        voice = VoiceInput("v", Scheduler())
        plugin = plugin_for(voice)[0]
        assert plugin.translate({"type": "voice", "word": "frobnicate"}) == []

    def test_case_insensitive(self):
        voice = VoiceInput("v", Scheduler())
        plugin = plugin_for(voice)[0]
        assert len(plugin.translate({"type": "voice", "word": "SELECT"})) == 2

    def test_previous_is_chord(self):
        voice = VoiceInput("v", Scheduler())
        plugin = plugin_for(voice)[0]
        out = plugin.translate({"type": "voice", "word": "previous"})
        assert len(out) == 4

    def test_error_model_deterministic(self):
        results = []
        for _ in range(2):
            voice = VoiceInput("v", Scheduler(), seed=5, accuracy=0.5)
            heard = [voice._recognise("select") for _ in range(50)]
            results.append(heard)
        assert results[0] == results[1]

    def test_error_model_rate(self):
        voice = VoiceInput("v", Scheduler(), seed=1, accuracy=0.8)
        trials = 1000
        correct = sum(1 for _ in range(trials)
                      if voice._recognise("up") == "up")
        assert 0.75 * trials < correct < 0.85 * trials

    def test_perfect_accuracy_never_errs(self):
        voice = VoiceInput("v", Scheduler(), accuracy=1.0)
        assert all(voice._recognise("ok") == "ok" for _ in range(100))

    def test_say_counts_every_misrecognition(self):
        scheduler = Scheduler()
        voice = VoiceInput("v", scheduler, seed=3, accuracy=0.0)
        voice.connect(UniIntProxy(scheduler))
        for _ in range(20):
            voice.say("up")  # dropped or confused, never heard right
        scheduler.run_until_idle()
        assert voice.utterances == voice.misrecognitions == 20

    def test_accuracy_validation(self):
        with pytest.raises(ValueError):
            VoiceInput("v", Scheduler(), accuracy=1.5)


class TestRemotePlugin:
    def test_buttons(self):
        remote = RemoteControl("r", Scheduler())
        plugin = plugin_for(remote)[0]
        out = plugin.translate({"type": "button", "button": "ok"})
        assert out[0].keysym == keysyms.RETURN
        out = plugin.translate({"type": "button", "button": "7"})
        assert out[0].keysym == ord("7")

    def test_prev_is_a_reverse_focus_chord(self):
        plugin = plugin_for(RemoteControl("r", Scheduler()))[0]
        out = plugin.translate({"type": "button", "button": "prev"})
        assert [(e.keysym, e.down) for e in out] == [
            (keysyms.SHIFT_L, True), (keysyms.TAB, True),
            (keysyms.TAB, False), (keysyms.SHIFT_L, False)]

    def test_events_other_than_buttons_are_ignored(self):
        plugin = plugin_for(RemoteControl("r", Scheduler()))[0]
        assert plugin.translate({"type": "voice", "word": "up"}) == []

    def test_unknown_button_rejected(self):
        remote = RemoteControl("r", Scheduler())
        plugin = plugin_for(remote)[0]
        with pytest.raises(PluginError):
            plugin.translate({"type": "button", "button": "warp"})


class TestGestureClassification:
    def test_swipes(self):
        line = lambda dx, dy: [(50 + dx * i / 8, 50 + dy * i / 8)
                               for i in range(9)]
        assert classify_stroke(line(80, 0)) == "swipe-right"
        assert classify_stroke(line(-80, 0)) == "swipe-left"
        assert classify_stroke(line(0, -80)) == "swipe-up"
        assert classify_stroke(line(0, 80)) == "swipe-down"

    def test_tap(self):
        assert classify_stroke([(50, 50)]) == "tap"
        assert classify_stroke([(50, 50), (51, 51), (50, 50)]) == "tap"

    def test_circle(self):
        points = [(50 + 20 * math.cos(i / 16 * 2 * math.pi),
                   50 + 20 * math.sin(i / 16 * 2 * math.pi))
                  for i in range(17)]
        assert classify_stroke(points) == "circle"

    def test_repeated_points_do_not_bend_a_circle(self):
        points = [(50 + 20 * math.cos(i / 16 * 2 * math.pi),
                   50 + 20 * math.sin(i / 16 * 2 * math.pi))
                  for i in range(17)]
        assert classify_stroke([p for p in points for _ in (0, 1)]) \
            == "circle"

    def test_ambiguous_returns_none(self):
        # medium displacement, no rotation: between tap and swipe
        points = [(50 + 2 * i, 50) for i in range(9)]
        assert classify_stroke(points) is None

    def test_empty_stroke(self):
        assert classify_stroke([]) is None

    def test_plugin_emits_keys(self):
        pad = GesturePad("g", Scheduler())
        plugin = plugin_for(pad)[0]
        out = plugin.translate({
            "type": "stroke",
            "points": [[50 + 10 * i, 50] for i in range(9)]})
        assert out[0].keysym == keysyms.TAB

    def test_the_plugin_drops_other_events_and_unclassified_strokes(self):
        plugin = plugin_for(GesturePad("g", Scheduler()))[0]
        assert plugin.translate({"type": "button", "button": "ok"}) == []
        ambiguous = [[50 + 2 * i, 50] for i in range(9)]
        assert plugin.translate({"type": "stroke",
                                 "points": ambiguous}) == []

    def test_swipe_left_is_chord(self):
        pad = GesturePad("g", Scheduler())
        plugin = plugin_for(pad)[0]
        out = plugin.translate({
            "type": "stroke",
            "points": [[50 - 10 * i, 50] for i in range(9)]})
        assert len(out) == 4

    def test_jitter_does_not_break_swipe(self):
        rng = random.Random(3)
        noisy = [(50 + 10 * i + rng.uniform(-2.0, 2.0),
                  50 + rng.uniform(-2.0, 2.0)) for i in range(9)]
        assert classify_stroke(noisy) == "swipe-right"


class TestDeviceBase:
    def test_send_event_requires_connection(self):
        from repro.util.errors import ProxyError
        pda = Pda("p", Scheduler())
        with pytest.raises(ProxyError):
            pda.send_event({"type": "touch"})

    def test_link_views_require_a_connection(self):
        pda = Pda("p", Scheduler())
        with pytest.raises(ProxyError, match="not connected"):
            pda.link_stats
        with pytest.raises(ProxyError, match="not connected to proxy"):
            pda.endpoint_for("uniint-proxy")

    def test_screen_luma_requires_frame(self):
        from repro.util.errors import ProxyError
        pda = Pda("p", Scheduler())
        with pytest.raises(ProxyError):
            pda.screen_luma()

    def test_screen_luma_of_a_mono_phone_is_black_or_white(self):
        from repro import Home
        from repro.appliances import Television
        home = Home()
        home.add_appliance(Television("TV"))
        phone = home.add_device(CellPhone("keitai", home.scheduler))
        home.settle()
        image = phone.screen_image
        assert image.format == "mono1"
        luma = phone.screen_luma()
        assert luma.shape == (image.height, image.width)
        assert set(np.unique(luma)) == {0.0, 255.0}

    def test_screen_luma_of_an_rgb_panel_matches_the_frame(self):
        from repro import Home
        from repro.appliances import Television
        from repro.devices import WallDisplay
        from repro.graphics import ops
        home = Home()
        home.add_appliance(Television("TV"))
        wall = home.add_device(WallDisplay("wall", home.scheduler))
        home.default_user.move_to("kitchen")
        home.settle()
        assert wall.screen_image.format == "rgb888"
        luma = wall.screen_luma()
        assert luma.shape == (768, 1024)
        # the 480x360 frame sits centred on the 1024x768 panel
        frame = ops.to_grayscale(home.screenshot().bitmap)
        assert np.allclose(luma[204:204 + 360, 272:272 + 480], frame)


def send_image(proxy, device_id, image):
    """Push ``image`` down ``proxy``'s leg to the device."""
    proxy.binding(device_id).endpoint.send(frame_chunks(
        (bytes([LINK_TAG_IMAGE]), *image.encode())))
    proxy.scheduler.run_until_idle()


class TestDeviceScreen:
    """A device keeps one screen: a full frame replaces it, and a box from
    the leg of that full frame is copied over it."""

    def test_boxes_are_copied_over_the_full_frame(self):
        scheduler = Scheduler()
        proxy = UniIntProxy(scheduler)
        pda = Pda("p", scheduler)
        pda.connect(proxy)
        shown = []
        pda.on_frame = shown.append
        full = DeviceImage(320, 240, "gray4", bytes(80 * 240))
        box = DeviceImage(320, 240, "gray4", b"\x01\x02\x03\x04", x=78,
                          y=238, span=2)
        empty = DeviceImage(320, 240, "gray4", b"", span=0)
        for image in (full, box, empty):
            send_image(proxy, "p", image)
        assert shown == [full, box, empty]  # each as it arrived
        assert pda.frames_received == 3
        screen = bytearray(80 * 240)
        screen[80 * 239 - 2:80 * 239] = b"\x01\x02"
        screen[-2:] = b"\x03\x04"
        assert pda.screen_image == DeviceImage(320, 240, "gray4",
                                               bytes(screen))
        # a full frame replaces the screen whole
        send_image(proxy, "p", DeviceImage(320, 240, "gray4",
                                           b"\x55" * (80 * 240)))
        assert pda.screen_image.data == b"\x55" * (80 * 240)

    def test_a_box_before_any_full_frame_is_rejected(self):
        scheduler = Scheduler()
        proxy = UniIntProxy(scheduler)
        pda = Pda("p", scheduler)
        pda.connect(proxy)
        with pytest.raises(ProxyError, match="before any full frame"):
            send_image(proxy, "p", DeviceImage(320, 240, "gray4",
                                               b"\x55" * 4, x=3, y=7, span=2))
        assert pda.screen_image is None and pda.frames_received == 0

    def test_a_box_of_another_screen_is_rejected(self):
        scheduler = Scheduler()
        proxy = UniIntProxy(scheduler)
        pda = Pda("p", scheduler)
        pda.connect(proxy)
        send_image(proxy, "p", DeviceImage(320, 240, "gray4", bytes(19200)))
        with pytest.raises(ProxyError, match="box of a"):
            send_image(proxy, "p", DeviceImage(128, 128, "mono1",
                                               b"\xff" * 2, span=2))
        assert pda.screen_image.data == bytes(19200)

    def test_a_shared_wall_drops_a_box_from_the_leg_it_left(self):
        """Two residents' proxies share a wall: once the second one's full
        frame owns the screen, a box still in flight on the first leg
        would paint one resident's pixels into the other's screen."""
        scheduler = Scheduler()
        alice = UniIntProxy(scheduler, proxy_id="alice")
        bob = UniIntProxy(scheduler, proxy_id="bob")
        wall = WallDisplay("wall", scheduler)
        wall.connect(alice)
        wall.connect(bob)
        shown = []
        wall.on_frame = shown.append
        size = 1024 * 3 * 768

        def box(fill):
            return DeviceImage(1024, 768, "rgb888", fill * 6, x=30, y=40,
                               span=3)

        send_image(alice, "wall", DeviceImage(1024, 768, "rgb888",
                                              b"\x01" * size))
        send_image(alice, "wall", box(b"\xaa"))
        bob_frame = DeviceImage(1024, 768, "rgb888", b"\x02" * size)
        send_image(bob, "wall", bob_frame)
        assert wall.screen_image == bob_frame
        send_image(alice, "wall", box(b"\xbb"))
        assert wall.screen_image == bob_frame
        assert wall.frames_received == 3 and len(shown) == 3
        # the owning leg's boxes still land
        send_image(bob, "wall", box(b"\xcc"))
        pixels = np.frombuffer(wall.screen_image.data, dtype=np.uint8)
        rows = pixels.reshape(768, 1024 * 3)
        assert rows[40:42, 30:33].tolist() == [[0xcc] * 3] * 2
        assert (rows == 0xcc).sum() == 6 and wall.frames_received == 4


class TestDeviceTransportLeg:
    """The device<->proxy leg rides the flow-controlled Transport stack."""

    def _proxy(self, scheduler=None, proxy_id="uniint-proxy"):
        from repro.proxy import UniIntProxy
        return UniIntProxy(scheduler if scheduler is not None
                           else Scheduler(), proxy_id=proxy_id)

    def test_scheduler_mismatch_rejected(self):
        from repro.util.errors import ProxyError
        proxy = self._proxy(Scheduler())
        pda = Pda("p", Scheduler())  # a different clock
        with pytest.raises(ProxyError, match="different scheduler"):
            pda.connect(proxy)
        assert not pda.connected
        assert "p" not in proxy.devices

    def test_credit_watermarks_come_from_the_bearer(self):
        from repro.net.transport import credit_watermarks
        proxy = self._proxy()
        phone = CellPhone("k", proxy.scheduler)
        phone.connect(proxy)
        high, _low = credit_watermarks(phone.descriptor.link)
        assert phone.endpoint_for("uniint-proxy").credit_limit == high
        assert proxy.binding("k").endpoint.credit_limit == high

    def test_socket_transport_leg(self, reactor, closing):
        from repro.net import SocketTransport
        proxy = self._proxy()
        member = reactor.add_scheduler(proxy.scheduler)
        pda = Pda("p", proxy.scheduler)
        pda.connect(proxy, member=member)
        closing(pda.endpoint_for(proxy.proxy_id))
        closing(proxy.binding("p").endpoint)
        pda.send_event({"type": "touch", "action": "down", "x": 1, "y": 1})
        reactor.run_until_idle()
        binding = proxy.binding("p")
        assert isinstance(binding.endpoint, SocketTransport)
        assert binding.endpoint.stats.bytes_received > 0

    def test_multi_proxy_connect_and_broadcast(self):
        scheduler = Scheduler()
        proxy_a = self._proxy(scheduler, proxy_id="proxy-a")
        proxy_b = self._proxy(scheduler, proxy_id="proxy-b")
        pda = Pda("p", scheduler)
        pda.connect(proxy_a)
        pda.connect(proxy_b)
        assert pda.connected_proxies == ("proxy-a", "proxy-b")
        pda.send_event({"type": "touch", "action": "down", "x": 1, "y": 1})
        scheduler.run_until_idle()
        # both proxies heard the event on their own leg
        assert proxy_a.binding("p").endpoint.stats.bytes_received > 0
        assert proxy_b.binding("p").endpoint.stats.bytes_received > 0
        assert pda.endpoint_for("proxy-a").stats.bytes_sent > 0
        from repro.util.errors import ProxyError
        with pytest.raises(ProxyError, match="use endpoint_for"):
            pda.link_stats

    def test_disconnect_single_leg_keeps_the_other(self):
        scheduler = Scheduler()
        proxy_a = self._proxy(scheduler, proxy_id="proxy-a")
        proxy_b = self._proxy(scheduler, proxy_id="proxy-b")
        pda = Pda("p", scheduler)
        pda.connect(proxy_a)
        pda.connect(proxy_b)
        pda.disconnect("proxy-a")
        scheduler.run_until_idle()
        assert pda.connected_proxies == ("proxy-b",)
        assert "p" not in proxy_a.devices   # proxy side saw the close
        assert "p" in proxy_b.devices

    def test_failed_registration_rolls_back_the_link(self):
        from repro.util.errors import ProxyError
        proxy = self._proxy()
        pda = Pda("p", proxy.scheduler)
        pda.connect(proxy)
        ghost = Pda("p", proxy.scheduler)  # same device id: rejected
        with pytest.raises(ProxyError, match="already registered"):
            ghost.connect(proxy)
        assert not ghost.connected
        assert ghost.connected_proxies == ()
