"""Unit tests for proxy descriptors, plug-in machinery and registration."""

import pytest

from repro.devices import CellPhone, Pda, TvDisplay, VoiceInput
from repro.graphics import Bitmap, Rect
from repro.net import frame_chunks, make_pipe
from repro.proxy import (
    DeviceDescriptor,
    DeviceImage,
    ScreenSpec,
    SessionContext,
    UniIntProxy,
    ViewTransform,
)
from repro.proxy.plugins import LINK_TAG_IMAGE
from repro.util import Scheduler
from repro.util.errors import PluginError, ProxyError


class TestScreenSpec:
    def test_bits_per_pixel(self):
        assert ScreenSpec(10, 10, "mono1").bits_per_pixel == 1
        assert ScreenSpec(10, 10, "gray4").bits_per_pixel == 2
        assert ScreenSpec(10, 10, "rgb888").bits_per_pixel == 24

    def test_validation(self):
        with pytest.raises(ProxyError):
            ScreenSpec(0, 10, "mono1")
        with pytest.raises(ProxyError):
            ScreenSpec(10, 10, "cmyk")
        with pytest.raises(ProxyError):  # no device shows it
            ScreenSpec(10, 10, "rgb565")


class TestDeviceDescriptor:
    def test_roles(self):
        pda = Pda("p", Scheduler()).descriptor
        assert pda.is_input and pda.is_output
        voice = VoiceInput("v", Scheduler()).descriptor
        assert voice.is_input and not voice.is_output
        tv = TvDisplay("t", Scheduler()).descriptor
        assert tv.is_output and not tv.is_input

    def test_useless_device_rejected(self):
        with pytest.raises(ProxyError):
            DeviceDescriptor(device_id="x", kind="brick")

    def test_empty_id_rejected(self):
        with pytest.raises(ProxyError):
            DeviceDescriptor(device_id="", kind="pda",
                             input_modes=frozenset({"touch"}))


#: A screen size per format for the wire tests; the widths leave mono1
#: and gray4 rows a padded last byte.
WIRE_SCREENS = {"mono1": (13, 5), "gray4": (10, 4), "rgb888": (4, 3)}


def wire(image):
    return b"".join(image.encode())


def wire_screen(fmt):
    """``(width, height, bytes per packed row)`` of ``fmt``'s screen."""
    width, height = WIRE_SCREENS[fmt]
    return width, height, DeviceImage(width, height, fmt, b"").row_bytes


class TestDeviceImage:
    def test_roundtrip(self):
        image = DeviceImage(4, 3, "gray4", b"\x12" * 3)
        again = DeviceImage.decode(wire(image))
        assert again == image
        assert (again.x, again.y, again.span, again.rows) == (0, 0, 1, 3)
        assert again.is_full

    @pytest.mark.parametrize("fmt", WIRE_SCREENS)
    def test_all_formats(self, fmt):
        """A full frame, a box in the bottom-right corner and an empty box
        round-trip with their boxes."""
        width, height, row = wire_screen(fmt)
        full = DeviceImage(width, height, fmt, bytes(range(row * height)))
        assert full.span == row and full.rows == height and full.is_full
        assert DeviceImage.decode(wire(full)) == full
        box = DeviceImage(width, height, fmt, b"\x07\x08\x09\x0a",
                          x=row - 2, y=height - 2, span=2)
        again = DeviceImage.decode(wire(box))
        assert again == box and again.format == fmt
        assert (again.x, again.y, again.span, again.rows) == (
            row - 2, height - 2, 2, 2)
        assert not again.is_full
        empty = DeviceImage(width, height, fmt, b"", span=0)
        assert DeviceImage.decode(wire(empty)) == empty
        assert empty.rows == 0 and not empty.is_full

    @pytest.mark.parametrize("fmt", WIRE_SCREENS)
    def test_blit_writes_only_the_box(self, fmt):
        width, height, row = wire_screen(fmt)
        screen = bytearray(b"\xee" * (row * height))
        DeviceImage(width, height, fmt, b"\x01\x02\x03\x04", x=row - 2, y=1,
                    span=2).blit(screen)
        expected = bytearray(b"\xee" * (row * height))
        expected[2 * row - 2:2 * row] = b"\x01\x02"
        expected[3 * row - 2:3 * row] = b"\x03\x04"
        assert screen == expected
        band = bytes(range(row))
        DeviceImage(width, height, fmt, band, y=height - 1).blit(screen)
        assert screen[-row:] == band

    @pytest.mark.parametrize("fmt", WIRE_SCREENS)
    def test_device_link_delivers_bytes(self, fmt):
        """Over a device link the pixels arrive as ``bytes`` equal to the
        ones sent, not as a view into the receive buffer."""
        scheduler = Scheduler()
        proxy = UniIntProxy(scheduler)
        pda = Pda("p", scheduler)
        pda.connect(proxy)
        images = []
        pda.on_frame = images.append
        width, height, row = wire_screen(fmt)
        image = DeviceImage(width, height, fmt, bytes(range(row * height)))
        proxy.binding("p").endpoint.send(frame_chunks(
            (bytes([LINK_TAG_IMAGE]), *image.encode())))
        scheduler.run_until_idle()
        assert type(images[0].data) is bytes
        assert images == [image]
        assert pda.screen_image == image

    def test_unknown_format_rejected(self):
        with pytest.raises(PluginError):
            DeviceImage(1, 1, "hdr", b"").encode()

    def test_format_codes(self):
        """The header's fifth byte names the format; code 3 (once
        rgb565, which no device shows) is refused."""
        assert {fmt: wire(DeviceImage(1, 1, fmt, b""))[4]
                for fmt in WIRE_SCREENS} == {"mono1": 1, "gray4": 2,
                                             "rgb888": 4}
        blob = bytearray(wire(DeviceImage(1, 1, "gray4", b"\x00")))
        blob[4] = 3
        with pytest.raises(PluginError, match="format code 3"):
            DeviceImage.decode(bytes(blob))

    def test_truncated_rejected(self):
        image = DeviceImage(4, 3, "mono1", b"\xFF" * 3)
        blob = wire(image)
        with pytest.raises(PluginError):
            DeviceImage.decode(blob[:-1])

    def test_garbage_rejected(self):
        with pytest.raises(PluginError):
            DeviceImage.decode(b"\x00\x01")

    @pytest.mark.parametrize("fmt", WIRE_SCREENS)
    def test_a_box_outside_the_screen_rejected(self, fmt):
        width, height, row = wire_screen(fmt)
        inside = DeviceImage(width, height, fmt, b"\x00" * 4, x=row - 2,
                             y=height - 2, span=2)
        DeviceImage.decode(wire(inside))
        for outside in (
                # past the last column
                DeviceImage(width, height, fmt, b"\x00" * 4, x=row - 1,
                            y=height - 2, span=2),
                DeviceImage(width, height, fmt, b"\x00" * (row + 1),
                            span=row + 1),
                # past the last row
                DeviceImage(width, height, fmt, b"\x00" * 4, x=row - 2,
                            y=height - 1, span=2),
                DeviceImage(width, height, fmt, b"\x00" * row * (height + 1)),
                # an empty box that starts past the end of a row
                DeviceImage(width, height, fmt, b"", x=row + 1, span=0)):
            with pytest.raises(PluginError, match="outside"):
                DeviceImage.decode(wire(outside))

    @pytest.mark.parametrize("fmt", WIRE_SCREENS)
    def test_a_payload_of_part_rows_rejected(self, fmt):
        width, height, _ = wire_screen(fmt)
        for ragged in (DeviceImage(width, height, fmt, b"\x00" * 3, span=2),
                       DeviceImage(width, height, fmt, b"\x00", span=0)):
            with pytest.raises(PluginError, match="whole rows"):
                DeviceImage.decode(wire(ragged))


class TestViewTransform:
    def test_roundtrip_identity_scale(self):
        view = ViewTransform(1.0, 0, 0, 100, 100)
        assert view.to_server(*view.to_device(40, 60)) == (40, 60)

    def test_letterboxed_mapping(self):
        view = ViewTransform(0.5, 10, 20, 200, 100)
        assert view.to_device(100, 50) == (60, 45)
        assert view.to_server(60, 45) == (100, 50)

    def test_server_coordinates_clamped(self):
        view = ViewTransform(0.5, 10, 20, 200, 100)
        x, y = view.to_server(0, 0)
        assert 0 <= x < 200
        assert 0 <= y < 100

    def test_degenerate_scale_rejected(self):
        view = ViewTransform(0.0, 0, 0, 10, 10)
        with pytest.raises(PluginError):
            view.to_server(1, 1)


class TestOutputPluginGeometry:
    def test_fit_view_letterboxes_and_records_context(self):
        device = Pda("p", Scheduler())
        context = SessionContext()
        plugin = device.output_plugin_factory(device.descriptor, context)
        frame = Bitmap(480, 360)  # 4:3 onto 320x240 (4:3): full fit
        view = plugin.fit_view(frame)
        assert context.view is view
        assert view.offset_x == 0 and view.offset_y == 0
        wide = Bitmap(480, 120)  # 4:1 onto 4:3: vertical letterbox
        view = plugin.fit_view(wide)
        assert view.offset_y > 0
        assert view.offset_x == 0

    def test_fit_view_never_upscales_past_native(self):
        """A 1024x768 wall panel showing a 480x360 window: scale clamps to
        1.0 and the frame is re-centred pixel-for-pixel, not blown up."""
        from repro.devices import WallDisplay
        wall = WallDisplay("wall", Scheduler())
        context = SessionContext()
        plugin = wall.output_plugin_factory(wall.descriptor, context)
        frame = Bitmap(480, 360)
        view = plugin.fit_view(frame)
        assert view.scale == 1.0
        assert view.offset_x == (1024 - 480) // 2 == 272
        assert view.offset_y == (768 - 360) // 2 == 204
        # the inverse mapping still lands inside the server window
        assert view.to_server(*view.to_device(479, 359)) == (479, 359)
        # and the rendered device image keeps the frame at native size
        image = plugin.process(frame, frame.bounds)
        assert (image.width, image.height) == (1024, 768)

    def test_fit_frame_reports_the_rescaled_rect(self):
        device = Pda("p", Scheduler())
        plugin = device.output_plugin_factory(device.descriptor,
                                              SessionContext())
        frame = Bitmap(480, 360)  # scale 2/3
        _, scaled, box = plugin.fit_frame(frame, Rect(0, 0, 1, 1))
        assert scaled.size == (320, 240) and box is None
        # scaled row i boxes source rows [floor(1.5 i), ceil(1.5 i + 1.5)),
        # so rows 20 and 21 meet source rows 30..32 and columns 6..9 meet
        # source columns 9..13
        assert plugin.fit_frame(frame, Rect(9, 30, 5, 3))[2] == Rect(
            6, 20, 4, 2)
        assert plugin.fit_frame(frame, Rect(0, 0, 0, 0))[2].is_empty
        assert plugin.fit_frame(frame, Rect(480, 0, 9, 9))[2].is_empty
        fresh = Bitmap(480, 360)
        assert plugin.fit_frame(fresh, Rect(9, 30, 5, 3))[2] is None

    def test_fit_frame_at_scale_one_reports_the_dirty_rect(self):
        device = Pda("p", Scheduler())
        plugin = device.output_plugin_factory(device.descriptor,
                                              SessionContext())
        frame = Bitmap(320, 200)
        view, scaled, box = plugin.fit_frame(frame, Rect(5, 7, 3, 4))
        assert view.scale == 1.0 and scaled is frame and box is None
        assert plugin.fit_frame(frame, Rect(5, 7, 3, 4))[2] == Rect(5, 7, 3,
                                                                    4)
        assert plugin.fit_frame(frame, Rect(-9, 190, 20, 50))[2] == Rect(
            0, 190, 11, 10)
        assert plugin.fit_frame(frame, Rect(0, -9, 9, 9))[2].is_empty
        fresh = Bitmap(320, 200)
        assert plugin.fit_frame(fresh, Rect(5, 7, 3, 4))[2] is None

    def test_output_plugin_requires_screen(self):
        voice = VoiceInput("v", Scheduler())
        pda = Pda("p", Scheduler())
        with pytest.raises(PluginError):
            pda.output_plugin_factory(voice.descriptor, SessionContext())


class TestProxyRegistration:
    def _proxy(self):
        return UniIntProxy(Scheduler())

    def test_register_and_list(self):
        proxy = self._proxy()
        scheduler = proxy.scheduler
        Pda("pda", scheduler).connect(proxy)
        VoiceInput("voice", scheduler).connect(proxy)
        TvDisplay("tv", scheduler).connect(proxy)
        assert [d.device_id for d in proxy.list_devices()] == [
            "pda", "tv", "voice"]
        assert [d.device_id
                for d in proxy.list_devices(require_input=True)] == [
            "pda", "voice"]
        assert [d.device_id
                for d in proxy.list_devices(require_output=True)] == [
            "pda", "tv"]

    def test_duplicate_id_rejected(self):
        proxy = self._proxy()
        Pda("pda", proxy.scheduler).connect(proxy)
        with pytest.raises(ProxyError):
            CellPhone("pda", proxy.scheduler).connect(proxy)

    def test_double_connect_rejected(self):
        proxy = self._proxy()
        pda = Pda("pda", proxy.scheduler)
        pda.connect(proxy)
        with pytest.raises(ProxyError):
            pda.connect(proxy)

    def test_unregister_unknown_rejected(self):
        with pytest.raises(ProxyError):
            self._proxy().unregister_device("ghost")

    def test_selection_requires_session(self):
        proxy = self._proxy()
        Pda("pda", proxy.scheduler).connect(proxy)
        with pytest.raises(ProxyError):
            proxy.select_input("pda")

    def test_device_disconnect_deselects(self):
        from repro.net import ETHERNET_100
        from repro.server import UniIntServer
        from repro.toolkit import Column, UIWindow
        from repro.windows import DisplayServer
        scheduler = Scheduler()
        window = UIWindow(100, 100)
        window.set_root(Column())
        display = DisplayServer(window)
        server = UniIntServer(display, scheduler)
        proxy = UniIntProxy(scheduler)
        pipe = make_pipe(scheduler, ETHERNET_100)
        server.accept(pipe.a)
        proxy.connect(pipe.b)
        pda = Pda("pda", scheduler)
        pda.connect(proxy)
        proxy.select_input("pda")
        proxy.select_output("pda")
        scheduler.run_until_idle()
        pda.disconnect()
        scheduler.run_until_idle()
        assert proxy.current_input is None
        assert proxy.current_output is None
        assert "pda" not in proxy.devices

    def test_connect_can_select_both_devices(self):
        from repro.net import ETHERNET_100
        from repro.server import UniIntServer
        from repro.toolkit import Column, UIWindow
        from repro.windows import DisplayServer
        proxy = self._proxy()
        window = UIWindow(100, 100)
        window.set_root(Column())
        server = UniIntServer(DisplayServer(window), proxy.scheduler)
        pipe = make_pipe(proxy.scheduler, ETHERNET_100)
        server.accept(pipe.a)
        Pda("pda", proxy.scheduler).connect(proxy)
        proxy.connect(pipe.b, input_device="pda", output_device="pda")
        proxy.scheduler.run_until_idle()
        assert proxy.current_input == proxy.current_output == "pda"

    def test_input_role_validation(self):
        proxy = self._proxy()
        from repro.net import ETHERNET_100
        from repro.server import UniIntServer
        from repro.toolkit import Column, UIWindow
        from repro.windows import DisplayServer
        window = UIWindow(100, 100)
        window.set_root(Column())
        display = DisplayServer(window)
        server = UniIntServer(display, proxy.scheduler)
        pipe = make_pipe(proxy.scheduler, ETHERNET_100)
        server.accept(pipe.a)
        proxy.connect(pipe.b)
        TvDisplay("tv", proxy.scheduler).connect(proxy)
        VoiceInput("voice", proxy.scheduler).connect(proxy)
        with pytest.raises(ProxyError):
            proxy.select_input("tv")      # output-only device
        with pytest.raises(ProxyError):
            proxy.select_output("voice")  # input-only device
