"""Plug-in model: the code devices upload into the proxy (paper §2.2).

"The input plug-in module contains a code to translate events received from
the input device to mouse or keyboard events.  The output plug-in module
contains a code to convert bitmap images received from a UniInt server to
images that can be displayed on the screen of the target output device."

Both plug-ins of one session share a :class:`SessionContext`: the output
plug-in records the :class:`ViewTransform` it used (scale + letterbox
offsets), and the input plug-in uses the *inverse* transform to map device
touch coordinates back into server framebuffer coordinates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.graphics import ops
from repro.graphics.bitmap import Bitmap
from repro.graphics.region import Rect
from repro.proxy.descriptors import DeviceDescriptor, ScreenSpec
from repro.uip.messages import KeyEvent, PointerEvent
from repro.util.errors import PluginError

#: What input plug-ins produce: universal input events.
UniversalEvent = Union[KeyEvent, PointerEvent]

_IMAGE_HEADER = struct.Struct(">HHBI")
_FORMAT_CODES = {"mono1": 1, "gray4": 2, "rgb565": 3, "rgb888": 4}
_FORMAT_NAMES = {v: k for k, v in _FORMAT_CODES.items()}

#: Device-link frame tags (proxy -> device direction): a frame is one tag
#: byte followed by the payload.
LINK_TAG_IMAGE = 0x01
LINK_TAG_BELL = 0x02


@dataclass(frozen=True)
class DeviceImage:
    """A device-ready frame: packed pixels in the device's native format."""

    width: int
    height: int
    format: str
    data: bytes

    def encode(self) -> bytes:
        """Wire form for the proxy -> device link."""
        code = _FORMAT_CODES.get(self.format)
        if code is None:
            raise PluginError(f"unknown image format {self.format!r}")
        return _IMAGE_HEADER.pack(self.width, self.height, code,
                                  len(self.data)) + self.data

    @classmethod
    def decode(cls, blob: bytes) -> "DeviceImage":
        if len(blob) < _IMAGE_HEADER.size:
            raise PluginError("device image blob truncated")
        width, height, code, length = _IMAGE_HEADER.unpack_from(blob)
        data = blob[_IMAGE_HEADER.size:]
        if len(data) != length:
            raise PluginError(
                f"device image payload is {len(data)} bytes, header says "
                f"{length}")
        name = _FORMAT_NAMES.get(code)
        if name is None:
            raise PluginError(f"unknown image format code {code}")
        return cls(width, height, name, data)


@dataclass(frozen=True)
class ViewTransform:
    """How the server framebuffer maps onto a device screen.

    device = server * scale + offset;  the inverse maps device taps back.
    """

    scale: float
    offset_x: int
    offset_y: int
    server_width: int
    server_height: int

    def to_device(self, x: int, y: int) -> tuple[int, int]:
        return (int(x * self.scale) + self.offset_x,
                int(y * self.scale) + self.offset_y)

    def to_server(self, x: int, y: int) -> tuple[int, int]:
        if self.scale <= 0:
            raise PluginError(f"degenerate view scale {self.scale}")
        sx = round((x - self.offset_x) / self.scale)
        sy = round((y - self.offset_y) / self.scale)
        sx = max(0, min(self.server_width - 1, sx))
        sy = max(0, min(self.server_height - 1, sy))
        return (sx, sy)


@dataclass
class SessionContext:
    """State shared between the two plug-ins of one proxy session."""

    input_descriptor: Optional[DeviceDescriptor] = None
    output_descriptor: Optional[DeviceDescriptor] = None
    view: Optional[ViewTransform] = None
    #: Sticky modifier state for plug-ins that synthesise Shift, etc.
    modifiers: set = field(default_factory=set)


class InputPlugin:
    """Translates device-native events into universal input events.

    Subclasses implement :meth:`translate`; returning an empty list drops
    the event (e.g. an unrecognised voice utterance).
    """

    def __init__(self, descriptor: DeviceDescriptor,
                 context: SessionContext) -> None:
        self.descriptor = descriptor
        self.context = context
        self.events_in = 0
        self.events_out = 0

    def translate(self, event: dict) -> Sequence[UniversalEvent]:
        raise NotImplementedError

    def process(self, event: dict) -> list[UniversalEvent]:
        """Bookkeeping wrapper around :meth:`translate`."""
        self.events_in += 1
        out = list(self.translate(event))
        self.events_out += len(out)
        return out


class OutputPlugin:
    """Converts server bitmaps into device-native images.

    Subclasses implement :meth:`transform`, and must keep
    ``context.view`` up to date so the input plug-in can invert the
    geometry.
    """

    def __init__(self, descriptor: DeviceDescriptor,
                 context: SessionContext) -> None:
        if descriptor.screen is None:
            raise PluginError(
                f"device {descriptor.device_id!r} has no screen")
        self.descriptor = descriptor
        self.screen: ScreenSpec = descriptor.screen
        self.context = context
        self.frames_out = 0
        self.bytes_out = 0
        #: The frame object :attr:`_scaled` was last rescaled from.
        self._scaled_from: Optional[Bitmap] = None
        self._scaled: Optional[Bitmap] = None

    def transform(self, frame: Bitmap, dirty: Rect) -> DeviceImage:
        """Convert ``frame`` into a device image.

        ``dirty`` must cover every pixel of ``frame`` changed since the
        previous call on the same frame object (the whole frame the first
        time): :meth:`fit_frame` rescales only that footprint.
        """
        raise NotImplementedError

    def process(self, frame: Bitmap, dirty: Rect) -> DeviceImage:
        """Bookkeeping wrapper around :meth:`transform`."""
        image = self.transform(frame, dirty)
        self.frames_out += 1
        self.bytes_out += len(image.data)
        return image

    def fit_view(self, frame: Bitmap) -> ViewTransform:
        """Standard letterboxed aspect-preserving fit; updates the context.

        Scale is clamped to 1.0: a screen larger than the server window
        shows the frame pixel-for-pixel, centred, instead of a blurry
        upscale past native resolution.
        """
        scale = min(1.0,
                    self.screen.width / frame.width,
                    self.screen.height / frame.height)
        out_w = max(1, int(frame.width * scale))
        out_h = max(1, int(frame.height * scale))
        view = ViewTransform(
            scale=scale,
            offset_x=(self.screen.width - out_w) // 2,
            offset_y=(self.screen.height - out_h) // 2,
            server_width=frame.width,
            server_height=frame.height,
        )
        self.context.view = view
        return view

    def fit_frame(self, frame: Bitmap,
                  dirty: Rect) -> tuple[ViewTransform, Bitmap]:
        """:meth:`fit_view`, and ``frame`` box-scaled to the fitted size.

        The last scaled bitmap is kept and only the output boxes whose
        source boxes meet ``dirty`` are rescaled; a new frame object or
        fitted size (resize, reconnect) rescales the whole frame.  At
        scale 1.0 the result is ``frame`` itself.
        """
        view = self.fit_view(frame)
        if view.scale == 1.0:
            return view, frame
        width = max(1, int(frame.width * view.scale))
        height = max(1, int(frame.height * view.scale))
        scaled = self._scaled
        if frame is not self._scaled_from or scaled.size != (width, height):
            scaled = None
        self._scaled_from = frame
        self._scaled = ops.scale_box(frame, width, height, out=scaled,
                                     dirty=dirty)
        return view, self._scaled
