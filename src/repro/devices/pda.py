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
    UniversalEvent,
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
    stable frame-to-frame — interactive updates do not shimmer.
    """

    def transform(self, frame: Bitmap, dirty: Rect) -> DeviceImage:
        view, scaled = self.fit_frame(frame, dirty)
        gray = ops.to_grayscale(scaled)
        dithered = ops.ordered_dither(gray, levels=4)
        canvas = np.zeros((self.screen.height, self.screen.width))
        canvas[view.offset_y:view.offset_y + scaled.height,
               view.offset_x:view.offset_x + scaled.width] = dithered
        return DeviceImage(self.screen.width, self.screen.height, "gray4",
                           ops.pack_gray4(canvas))


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

    def drag(self, points: list[tuple[int, int]]) -> None:
        """Stylus drag through the given device-coordinate points."""
        if not points:
            return
        first, *rest = points
        self.send_event({"type": "touch", "action": "down",
                         "x": first[0], "y": first[1]})
        for x, y in rest:
            self.send_event({"type": "touch", "action": "move",
                             "x": x, "y": y})
        last = points[-1]
        self.send_event({"type": "touch", "action": "up",
                         "x": last[0], "y": last[1]})
