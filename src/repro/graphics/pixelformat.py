"""The UIP wire pixel format.

UIP carries one pixel format, RGB888: 32 bits per pixel, depth 24,
little-endian, red, green and blue at shifts 16, 8 and 0.  The server
announces it in ServerInit and the client refuses any other.  A
device's own depth is its output plug-in's business (paper §2.2): the
plug-in converts the proxy's RGB888 mirror for its screen.
:meth:`PixelFormat.pack_array` and :meth:`PixelFormat.unpack` convert
whole numpy image arrays at once and are exact inverses.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import GraphicsError


class PixelFormat:
    """RGB888 on the wire: one little-endian ``uint32`` per pixel."""

    dtype = np.dtype("<u4")
    bytes_per_pixel = 4
    #: The 16-byte form ServerInit carries, in RFB's layout: bpp 32,
    #: depth 24, little-endian, true colour, channel maxima 255 and
    #: shifts 16/8/0.
    wire = bytes.fromhex("20180001 00ff00ff00ff 100800 000000")

    def pack_array(self, rgb: np.ndarray) -> np.ndarray:
        """Pack an (H, W, 3) uint8 RGB array into a fresh (H, W) wire array.

        ``rgb`` may be any view, contiguous or not (framebuffer sub-rects
        pack without an intermediate crop).
        """
        if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
            raise GraphicsError(f"expected (H, W, 3) uint8, got {rgb.shape} "
                                f"{rgb.dtype}")
        # one array, shifted left a channel at a time: red ends at 16
        packed = rgb[..., 0].astype(np.uint32)
        packed <<= 8
        packed |= rgb[..., 1]
        packed <<= 8
        packed |= rgb[..., 2]
        return packed.astype(self.dtype, copy=False)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Unpack an (H, W) wire array into a fresh (H, W, 3) uint8 RGB
        array; the unused top byte of each pixel is ignored."""
        if packed.ndim != 2 or packed.dtype != self.dtype:
            raise GraphicsError(f"expected (H, W) {self.dtype}, got "
                                f"{packed.shape} {packed.dtype}")
        rgb = np.empty(packed.shape + (3,), dtype=np.uint8)
        # the uint8 assignment keeps each shifted pixel's low byte
        rgb[..., 0] = packed >> 16
        rgb[..., 1] = packed >> 8
        rgb[..., 2] = packed
        return rgb


#: The wire pixel format of every UIP session.
RGB888 = PixelFormat()
