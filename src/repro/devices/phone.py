"""Cellular phone: 128x128 1-bit screen, 12-key keypad, 9600 bps PDC link.

The keypad plug-in turns the 12 keys into *focus navigation*: because every
appliance panel is built from focusable widgets, arrow/Tab/Return coverage
is sufficient to drive any GUI — this is exactly how the paper's phone
client controls unmodified applications.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.devices.base import InteractionDevice
from repro.graphics import ops
from repro.graphics.bitmap import Bitmap
from repro.graphics.region import Rect
from repro.net.link import CELLULAR_PDC
from repro.proxy.descriptors import DeviceDescriptor, ScreenSpec
from repro.proxy.plugins import (
    DeviceImage,
    InputPlugin,
    OutputPlugin,
    SessionContext,
    UniversalEvent,
)
from repro.uip import keysyms
from repro.uip.encodings import EncodeCache, content_digest
from repro.uip.messages import KeyEvent
from repro.util.errors import PluginError

PHONE_WIDTH = 128
PHONE_HEIGHT = 128

#: Keypad key -> keysym for simple keys.
KEYPAD_MAP = {
    "2": keysyms.UP,
    "8": keysyms.DOWN,
    "4": keysyms.LEFT,
    "6": keysyms.RIGHT,
    "5": keysyms.RETURN,
    "0": keysyms.SPACE,
    "#": keysyms.ESCAPE,
    "*": keysyms.TAB,
    "3": keysyms.PAGE_UP,
    "9": keysyms.PAGE_DOWN,
}

VALID_KEYS = set(KEYPAD_MAP) | {"1", "7"}


def _press(keysym: int) -> list[KeyEvent]:
    return [KeyEvent(True, keysym), KeyEvent(False, keysym)]


class PhoneKeypadPlugin(InputPlugin):
    """12-key keypad -> universal key events."""

    def translate(self, event: dict) -> list[UniversalEvent]:
        if event.get("type") != "key":
            return []
        key = str(event.get("key"))
        if key not in VALID_KEYS:
            raise PluginError(f"unknown keypad key {key!r}")
        if key == "1":  # reverse focus: Shift+Tab chord
            return [KeyEvent(True, keysyms.SHIFT_L),
                    KeyEvent(True, keysyms.TAB),
                    KeyEvent(False, keysyms.TAB),
                    KeyEvent(False, keysyms.SHIFT_L)]
        if key == "7":  # home
            return _press(keysyms.HOME)
        return _press(KEYPAD_MAP[key])


class PhoneOutputPlugin(OutputPlugin):
    """Downscale to 128x128, Floyd-Steinberg to 1 bit, pack to bytes.

    Error diffusion wins on this tiny static screen: panel text stays far
    more legible than with ordered dithering at 1 bit.  It also spreads
    every change down and across the screen, so the plug-in makes the
    whole screen of a fitted frame, keeps the packed rows it last sent
    and ships the box of bytes that differ from them.  A panel shows few
    distinct frames as the focus steps through it, so the screen made of
    each fitted frame is kept in :attr:`screens`: each distinct fitted
    frame is dithered once.
    """

    def __init__(self, descriptor: DeviceDescriptor,
                 context: SessionContext) -> None:
        super().__init__(descriptor, context)
        #: The packed 1-bit screen rows the device was last sent.
        self._sent: Optional[np.ndarray] = None
        #: Packed screens by fitted frame: its shape and pixel digest (the
        #: letterbox offsets follow from the shape).
        self.screens = EncodeCache()

    def transform(self, frame: Bitmap, dirty: Rect) -> DeviceImage:
        view, scaled, box = self.fit_frame(frame, dirty)
        key = (scaled.pixels.shape, content_digest(scaled.pixels))
        packed = self.screens.get(key)
        if packed is None:
            gray = ops.to_grayscale(scaled)
            dithered = ops.floyd_steinberg(gray, levels=2)
            canvas = np.zeros((self.screen.height, self.screen.width))
            canvas[view.offset_y:view.offset_y + scaled.height,
                   view.offset_x:view.offset_x + scaled.width] = dithered
            packed = ops.pack_mono(canvas)
            self.screens.put(key, packed)
        rows = np.frombuffer(packed, dtype=np.uint8).reshape(
            self.screen.height, -1)
        sent, self._sent = self._sent, rows
        if box is None:
            return self.box_image(rows)
        return self.diff_image(sent, rows, 0)


class CellPhone(InteractionDevice):
    """A 2002 cellular phone used as a universal remote."""

    kind = "phone"
    input_plugin_factory = PhoneKeypadPlugin
    output_plugin_factory = PhoneOutputPlugin

    def build_descriptor(self) -> DeviceDescriptor:
        return DeviceDescriptor(
            device_id=self.device_id,
            kind=self.kind,
            screen=ScreenSpec(PHONE_WIDTH, PHONE_HEIGHT, "mono1"),
            input_modes=frozenset({"keypad"}),
            link=CELLULAR_PDC,
            tags=frozenset({"portable", "personal", "silent",
                            "always_carried"}),
        )

    # -- user actions -----------------------------------------------------------

    def press(self, key: str) -> None:
        """Press one keypad key ('0'-'9', '*', '#')."""
        self.send_event({"type": "key", "key": key})
