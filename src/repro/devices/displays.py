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
    """Aspect-preserving fit to the panel, full RGB."""

    def transform(self, frame: Bitmap, dirty: Rect) -> DeviceImage:
        view, scaled, _ = self.fit_frame(frame, dirty)
        canvas = np.zeros((self.screen.height, self.screen.width, 3),
                          dtype=np.uint8)
        canvas[view.offset_y:view.offset_y + scaled.height,
               view.offset_x:view.offset_x + scaled.width] = scaled.pixels
        return DeviceImage(self.screen.width, self.screen.height, "rgb888",
                           canvas.tobytes())


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
