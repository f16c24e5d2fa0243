"""Wire pixel formats, RFB-style.

The universal interaction protocol negotiates a *true-colour* pixel format
per client (the paper's output devices range from 32-bit TV panels to 8-bit
PDA screens).  A :class:`PixelFormat` describes how an RGB triple packs into
a little/big-endian integer of ``bits_per_pixel`` bits;
:meth:`pack_array` and :meth:`unpack` convert whole numpy image arrays at
once.

Pack/unpack are exact inverses up to channel quantisation, which the
property tests pin down: ``unpack(pack_array(x))`` is idempotent and
stays within one quantisation step of ``x``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.util.errors import GraphicsError

_WIRE = struct.Struct(">BBBBHHHBBB3x")


@dataclass(frozen=True)
class PixelFormat:
    """An RFB-style true-colour pixel format."""

    bits_per_pixel: int
    depth: int
    big_endian: bool
    red_max: int
    green_max: int
    blue_max: int
    red_shift: int
    green_shift: int
    blue_shift: int

    def __post_init__(self) -> None:
        if self.bits_per_pixel not in (8, 16, 32):
            raise GraphicsError(
                f"bits_per_pixel must be 8, 16 or 32: {self.bits_per_pixel}"
            )
        for name in ("red_max", "green_max", "blue_max"):
            value = getattr(self, name)
            if value < 1 or (value & (value + 1)) != 0:
                raise GraphicsError(f"{name} must be 2^n - 1, got {value}")
        if self.depth > self.bits_per_pixel:
            raise GraphicsError("depth exceeds bits_per_pixel")

    # -- numpy dtype ----------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        base = {8: np.uint8, 16: np.uint16, 32: np.uint32}[self.bits_per_pixel]
        return np.dtype(base).newbyteorder(">" if self.big_endian else "<")

    @property
    def bytes_per_pixel(self) -> int:
        return self.bits_per_pixel // 8

    # -- conversion -------------------------------------------------------------

    def _channels(self) -> tuple[tuple[int, int, int], ...]:
        """``(index in RGB, max, shift)`` of each channel."""
        return ((0, self.red_max, self.red_shift),
                (1, self.green_max, self.green_shift),
                (2, self.blue_max, self.blue_shift))

    def pack_array(self, rgb: np.ndarray) -> np.ndarray:
        """Pack an (H, W, 3) uint8 RGB array into a fresh (H, W) wire array.

        ``rgb`` may be any view, contiguous or not (framebuffer sub-rects
        pack without an intermediate crop).  An 8-bit channel skips the
        ``(v * max + 127) // 255`` rescale, which is the identity there.
        """
        if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
            raise GraphicsError(f"expected (H, W, 3) uint8, got {rgb.shape} "
                                f"{rgb.dtype}")
        packed = 0
        for index, top, shift in self._channels():
            value = rgb[..., index].astype(np.uint32)
            if top != 255:
                value = (value * top + 127) // 255
            value <<= shift
            value |= packed
            packed = value
        return packed.astype(self.dtype)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Unpack an (H, W) wire array into a fresh (H, W, 3) uint8 RGB
        array; an 8-bit channel skips the rescale, as in :meth:`pack_array`."""
        if packed.ndim != 2 or packed.dtype != self.dtype:
            raise GraphicsError(f"expected (H, W) {self.dtype}, got "
                                f"{packed.shape} {packed.dtype}")
        wide = packed.astype(np.uint32)
        rgb = np.empty(packed.shape + (3,), dtype=np.uint8)
        for index, top, shift in self._channels():
            value = (wide >> shift) & top
            if top != 255:
                value = (value * 255 + top // 2) // top
            rgb[..., index] = value
        return rgb

    # -- wire form ---------------------------------------------------------------

    def encode(self) -> bytes:
        """16-byte wire form used in the ServerInit / SetPixelFormat messages."""
        return _WIRE.pack(
            self.bits_per_pixel, self.depth, int(self.big_endian), 1,
            self.red_max, self.green_max, self.blue_max,
            self.red_shift, self.green_shift, self.blue_shift,
        )

    @classmethod
    def decode(cls, data: bytes) -> "PixelFormat":
        if len(data) != _WIRE.size:
            raise GraphicsError(f"pixel format blob must be {_WIRE.size} "
                                f"bytes, got {len(data)}")
        (bpp, depth, big_endian, true_colour, rmax, gmax, bmax,
         rshift, gshift, bshift) = _WIRE.unpack(data)
        if not true_colour:
            raise GraphicsError("colour-map pixel formats are not supported")
        return cls(bpp, depth, bool(big_endian), rmax, gmax, bmax,
                   rshift, gshift, bshift)


#: Canonical 32bpp 8:8:8 true colour — the server-side native format.
RGB888 = PixelFormat(32, 24, False, 255, 255, 255, 16, 8, 0)

#: 16bpp 5:6:5 — PDA-class colour screens.
RGB565 = PixelFormat(16, 16, False, 31, 63, 31, 11, 5, 0)

#: 8bpp 3:3:2 — lowest-end colour wire format (phones, wearables).
RGB332 = PixelFormat(8, 8, False, 7, 7, 3, 5, 2, 0)
