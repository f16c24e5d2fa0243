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
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.graphics import ops
from repro.graphics.bitmap import Bitmap
from repro.graphics.region import Rect
from repro.proxy.descriptors import (
    BITS_PER_PIXEL,
    DeviceDescriptor,
    ScreenSpec,
)
from repro.uip.messages import KeyEvent, PointerEvent
from repro.util.errors import PluginError

#: What input plug-ins produce: universal input events.
UniversalEvent = Union[KeyEvent, PointerEvent]

#: Wire header of a device image: the screen's width and height in
#: pixels and its format code; the box's byte offset within a packed row,
#: its byte width and its first row; the payload length.
_IMAGE_HEADER = struct.Struct(">HHBHHHI")
_FORMAT_CODES = {"mono1": 1, "gray4": 2, "rgb888": 4}
_FORMAT_NAMES = {v: k for k, v in _FORMAT_CODES.items()}

#: Device-link frame tags (proxy -> device direction): a frame is one tag
#: byte followed by the payload.
LINK_TAG_IMAGE = 0x01
LINK_TAG_BELL = 0x02


@dataclass(frozen=True)
class DeviceImage:
    """A box of a device-ready screen: packed pixels in the device's
    native format.

    The screen is ``width`` x ``height`` pixels of ``format``, each row
    packed into :attr:`row_bytes`.  The box is a rectangle of whole bytes
    of those rows: ``data`` holds its rows top to bottom, ``span`` bytes
    each, which go at byte ``x`` of screen rows ``y`` onwards.  The
    defaults make a full frame, every byte of every row; an empty box
    changes nothing.
    """

    width: int
    height: int
    format: str
    data: bytes
    x: int = 0
    y: int = 0
    #: Bytes per box row; ``None`` means :attr:`row_bytes`.
    span: Optional[int] = None

    def __post_init__(self) -> None:
        if self.span is None:
            object.__setattr__(self, "span", self.row_bytes)

    @property
    def row_bytes(self) -> int:
        """Bytes per packed screen row."""
        bits = BITS_PER_PIXEL.get(self.format)
        if bits is None:
            raise PluginError(f"unknown image format {self.format!r}")
        return (self.width * bits + 7) // 8

    @property
    def rows(self) -> int:
        return len(self.data) // self.span if self.span else 0

    @property
    def is_full(self) -> bool:
        """Whether this (valid) box is every byte of the screen."""
        return len(self.data) == self.row_bytes * self.height

    def blit(self, screen: bytearray) -> None:
        """Copy the box into ``screen``, the packed rows of the screen."""
        rows, row = self.rows, self.row_bytes
        if self.span == row:
            screen[self.y * row:(self.y + rows) * row] = self.data
        elif rows:
            grid = np.frombuffer(screen, dtype=np.uint8).reshape(-1, row)
            grid[self.y:self.y + rows, self.x:self.x + self.span] = (
                np.frombuffer(self.data, dtype=np.uint8).reshape(
                    rows, self.span))

    def encode(self) -> tuple[bytes, bytes]:
        """Wire form for the proxy -> device link: the header and the
        pixels as two chunks, for a vectored send that never joins them."""
        return (_IMAGE_HEADER.pack(self.width, self.height,
                                   _FORMAT_CODES[self.format], self.x,
                                   self.span, self.y, len(self.data)),
                self.data)

    @classmethod
    def decode(cls, blob: Union[bytes, memoryview]) -> "DeviceImage":
        """Parse the wire form; the pixels are copied once, into bytes.

        Raises :class:`PluginError` unless the payload is whole box rows
        and the box lies inside the screen.
        """
        if len(blob) < _IMAGE_HEADER.size:
            raise PluginError("device image blob truncated")
        width, height, code, x, span, y, length = \
            _IMAGE_HEADER.unpack_from(blob)
        data = blob[_IMAGE_HEADER.size:]
        if len(data) != length:
            raise PluginError(
                f"device image payload is {len(data)} bytes, header says "
                f"{length}")
        name = _FORMAT_NAMES.get(code)
        if name is None:
            raise PluginError(f"unknown image format code {code}")
        image = cls(width, height, name, bytes(data), x, y, span)
        if span * image.rows != length:
            raise PluginError(
                f"device image payload of {length} bytes is not whole "
                f"rows of {span} bytes")
        if x + span > image.row_bytes or y + image.rows > height:
            raise PluginError(
                f"device image box of {span} bytes x {image.rows} rows at "
                f"byte {x}, row {y} is outside the {width}x{height} "
                f"{name} screen")
        return image


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
        #: The frame object :attr:`_scaled` was last rescaled from.
        self._scaled_from: Optional[Bitmap] = None
        self._scaled: Optional[Bitmap] = None

    def transform(self, frame: Bitmap, dirty: Rect) -> DeviceImage:
        """Convert ``frame`` into the image that brings the device screen
        from the previous call's result to ``frame``'s: a full frame the
        first time, else a box (possibly empty) of the screen.

        ``dirty`` must cover every pixel of ``frame`` changed since the
        previous call on the same frame object (the whole frame the first
        time): :meth:`fit_frame` rescales only that footprint.
        """
        raise NotImplementedError

    def process(self, frame: Bitmap, dirty: Rect) -> DeviceImage:
        """The session's entry point: :meth:`transform` ``frame``.

        The proxy session passes one bounding ``dirty`` rect: everything
        the upstream mirror changed since the previous push to this
        plug-in, merged across any pushes a saturated link deferred.
        Every image it returns must reach the device, in order.
        """
        return self.transform(frame, dirty)

    def box_image(self, rows: np.ndarray, x: int = 0,
                  y: int = 0) -> DeviceImage:
        """The box of packed screen bytes ``rows`` (2-D ``uint8``) at byte
        ``x`` of screen row ``y``; every row whole is a full frame."""
        return DeviceImage(self.screen.width, self.screen.height,
                           self.screen.format, rows.tobytes(), x, y,
                           rows.shape[1])

    def diff_image(self, sent: np.ndarray, rows: np.ndarray,
                   y: int) -> DeviceImage:
        """The bounding box of the bytes of ``rows`` that differ from
        ``sent``: both are packed screen rows from row ``y`` on, as they
        are now and as the device last got them."""
        changed = sent != rows
        ys = np.flatnonzero(changed.any(axis=1))
        if not len(ys):
            return self.box_image(rows[:0, :0])
        y0, y1 = int(ys[0]), int(ys[-1]) + 1
        xs = np.flatnonzero(changed[y0:y1].any(axis=0))
        x0, x1 = int(xs[0]), int(xs[-1]) + 1
        return self.box_image(rows[y0:y1, x0:x1], x0, y + y0)

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

    def fit_frame(self, frame: Bitmap, dirty: Rect
                  ) -> tuple[ViewTransform, Bitmap, Optional[Rect]]:
        """:meth:`fit_view`, ``frame`` box-scaled to the fitted size, and
        the rect of scaled pixels this call rescaled.

        The last scaled bitmap is kept and only the output boxes whose
        source boxes meet ``dirty`` are rescaled; the rect bounds them,
        and is empty when ``dirty`` misses the frame.  A new frame object
        (first call, reconnect) rescales the whole frame and returns
        ``None`` for the rect: the letterbox may have moved too, so the
        device needs a full frame.  At scale 1.0 the result is ``frame``
        itself and the rect is ``dirty`` clipped to it.
        """
        view = self.fit_view(frame)
        width = max(1, int(frame.width * view.scale))
        height = max(1, int(frame.height * view.scale))
        scaled = self._scaled
        whole = frame is not self._scaled_from
        if whole:
            scaled, dirty = None, frame.bounds
        self._scaled_from = frame
        dirty = dirty.intersect(frame.bounds)
        if view.scale == 1.0:
            self._scaled, box = frame, dirty
        else:
            self._scaled = ops.scale_box(frame, width, height, out=scaled,
                                         dirty=dirty)
            if dirty.is_empty:
                box = dirty
            else:
                x0, x1 = ops.box_span(frame.width, width, dirty.x, dirty.x2)
                y0, y1 = ops.box_span(frame.height, height, dirty.y,
                                      dirty.y2)
                box = Rect(x0, y0, x1 - x0, y1 - y0)
        return view, self._scaled, None if whole else box
