"""Fixed displays: the TV panel and a wall display as output devices.

The paper's user may pick "television displays as his/her output
interaction devices" — the TV screen doubles as the GUI surface while a
phone or voice provides input.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import InteractionDevice
from repro.graphics.bitmap import Bitmap
from repro.graphics.region import Rect
from repro.net.link import ETHERNET_100
from repro.proxy.descriptors import DeviceDescriptor, ScreenSpec
from repro.proxy.plugins import DeviceImage, OutputPlugin


class DisplayOutputPlugin(OutputPlugin):
    """Aspect-preserving fit to the panel, full RGB.

    The plug-in keeps no canvas: a full frame letterboxes the fitted
    frame, and every later push ships the rect of it that
    :meth:`fit_frame` rescaled.
    """

    def transform(self, frame: Bitmap, dirty: Rect) -> DeviceImage:
        view, scaled, box = self.fit_frame(frame, dirty)
        height, width = self.screen.height, self.screen.width
        if box is None:
            canvas = np.zeros((height, width, 3), dtype=np.uint8)
            canvas[view.offset_y:view.offset_y + scaled.height,
                   view.offset_x:view.offset_x + scaled.width] = scaled.pixels
            return self.box_image(canvas.reshape(height, width * 3))
        pixels = scaled.pixels[box.y:box.y2, box.x:box.x2]
        return self.box_image(pixels.reshape(box.h, box.w * 3),
                              (view.offset_x + box.x) * 3,
                              view.offset_y + box.y)


class TvDisplay(InteractionDevice):
    """The television panel as a GUI output surface (720x480)."""

    kind = "tv-display"
    input_plugin_factory = None
    output_plugin_factory = DisplayOutputPlugin

    def build_descriptor(self) -> DeviceDescriptor:
        return DeviceDescriptor(
            device_id=self.device_id,
            kind=self.kind,
            screen=ScreenSpec(720, 480, "rgb888"),
            input_modes=frozenset(),
            link=ETHERNET_100,
            tags=frozenset({"fixed", "shared", "visual", "large",
                            "living_room"}),
        )


class WallDisplay(InteractionDevice):
    """A large wall panel (1024x768) for shared spaces."""

    kind = "wall-display"
    input_plugin_factory = None
    output_plugin_factory = DisplayOutputPlugin

    def build_descriptor(self) -> DeviceDescriptor:
        return DeviceDescriptor(
            device_id=self.device_id,
            kind=self.kind,
            screen=ScreenSpec(1024, 768, "rgb888"),
            input_modes=frozenset(),
            link=ETHERNET_100,
            tags=frozenset({"fixed", "shared", "visual", "large",
                            "kitchen"}),
        )
