"""PDA: 320x240 4-grey touchscreen over 802.11b (the era's Palm/iPAQ)."""

from __future__ import annotations

import numpy as np

from repro.graphics import ops
from repro.graphics.bitmap import Bitmap
from repro.graphics.region import Rect
from repro.net.link import WIFI_11B
from repro.devices.base import InteractionDevice
from repro.proxy.descriptors import DeviceDescriptor, ScreenSpec
from repro.proxy.plugins import (
    DeviceImage,
    InputPlugin,
    OutputPlugin,
    SessionContext,
    UniversalEvent,
    ViewTransform,
)
from repro.uip.messages import PointerEvent
from repro.util.errors import PluginError

PDA_WIDTH = 320
PDA_HEIGHT = 240


class PdaTouchPlugin(InputPlugin):
    """Maps stylus touches to pointer events via the inverse view transform."""

    def translate(self, event: dict) -> list[UniversalEvent]:
        if event.get("type") != "touch":
            return []
        view = self.context.view
        if view is None:
            return []  # nothing on screen yet; taps go nowhere
        action = event.get("action")
        if action not in ("down", "move", "up"):
            raise PluginError(f"bad touch action {action!r}")
        x, y = view.to_server(int(event["x"]), int(event["y"]))
        buttons = 0 if action == "up" else 1
        return [PointerEvent(buttons, x, y)]


class PdaOutputPlugin(OutputPlugin):
    """Letterboxed box-filter downscale, 4-grey ordered dither, 2-bit pack.

    Ordered dithering is chosen over error diffusion because its pattern is
    stable frame-to-frame — interactive updates do not shimmer.  It is also
    local, so the plug-in keeps the packed screen rows it last sent and
    converts only the full-width scaled rows :meth:`fit_frame` rescaled,
    from a multiple of 4 so each row keeps its Bayer phase; it ships the
    box of bytes those rows changed.  A rescale of every row (a new frame
    object or size) rebuilds the whole screen, letterbox included, and
    ships it as a full frame.
    """

    def __init__(self, descriptor: DeviceDescriptor,
                 context: SessionContext) -> None:
        super().__init__(descriptor, context)
        #: The packed 2-bit screen rows the device was last sent.
        self._rows = np.zeros((self.screen.height,
                               (self.screen.width + 3) // 4), dtype=np.uint8)

    def transform(self, frame: Bitmap, dirty: Rect) -> DeviceImage:
        view, scaled, box = self.fit_frame(frame, dirty)
        if box is None:  # the letterbox may have moved
            self._rows[:] = 0
            self._convert(view, scaled, 0, scaled.height)
            return self.box_image(self._rows)
        first = box.y - box.y % 4  # keep the Bayer phase
        if first >= box.y2:
            return self.box_image(self._rows[:0, :0])
        top = view.offset_y + first
        band = slice(top, top + box.y2 - first)
        sent = self._rows[band].copy()
        self._convert(view, scaled, first, box.y2)
        return self.diff_image(sent, self._rows[band], top)

    def _convert(self, view: ViewTransform, scaled: Bitmap, first: int,
                 end: int) -> None:
        """Grey, dither, letterbox and pack scaled rows ``[first, end)``
        into the kept screen rows."""
        band = scaled.crop(Rect(0, first, scaled.width, end - first))
        dithered = ops.ordered_dither(ops.to_grayscale(band), levels=4)
        canvas = np.zeros((end - first, self.screen.width))
        canvas[:, view.offset_x:view.offset_x + scaled.width] = dithered
        top = view.offset_y + first
        self._rows[top:top + end - first] = np.frombuffer(
            ops.pack_gray4(canvas), dtype=np.uint8).reshape(end - first, -1)


class Pda(InteractionDevice):
    """A stylus-driven PDA: both an input and an output device."""

    kind = "pda"
    input_plugin_factory = PdaTouchPlugin
    output_plugin_factory = PdaOutputPlugin

    def build_descriptor(self) -> DeviceDescriptor:
        return DeviceDescriptor(
            device_id=self.device_id,
            kind=self.kind,
            screen=ScreenSpec(PDA_WIDTH, PDA_HEIGHT, "gray4"),
            input_modes=frozenset({"touch"}),
            link=WIFI_11B,
            tags=frozenset({"portable", "personal", "visual", "silent"}),
        )

    # -- user actions ---------------------------------------------------------

    def tap(self, x: int, y: int) -> None:
        """Stylus tap at device coordinates (x, y)."""
        self.send_event({"type": "touch", "action": "down", "x": x, "y": y})
        self.send_event({"type": "touch", "action": "up", "x": x, "y": y})
