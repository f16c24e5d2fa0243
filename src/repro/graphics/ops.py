"""Image adaptation operators used by the output plug-ins (paper §2.2).

An output plug-in "contains a code to convert bitmap images received from a
UniInt server to images that can be displayed on the screen of the target
output device".  Concretely that is some composition of:

* resampling to the device resolution (:func:`scale_box`),
* colour reduction (:func:`to_grayscale`, :func:`quantize_levels`),
* dithering for 1-bit / 2-bit panels (:func:`ordered_dither`,
  :func:`floyd_steinberg`),
* bit-packing into the device's native framebuffer layout
  (:func:`pack_mono`, :func:`pack_gray4`).

Everything is numpy-vectorised except Floyd–Steinberg, whose error feedback
is inherently serial per pixel: it runs one loop over plain Python floats.
Box-filter sums are exact integers, so a box average is the same float64
quotient however the sums are formed — which lets :func:`scale_box` redo
only the damaged boxes of a previous result.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.graphics.bitmap import Bitmap
from repro.graphics.region import Rect
from repro.util.errors import GraphicsError

#: ITU-R BT.601 luma weights.
_LUMA = np.asarray([0.299, 0.587, 0.114])

#: 4x4 Bayer threshold matrix, values 0..15.
BAYER_4X4 = np.asarray(
    [
        [0, 8, 2, 10],
        [12, 4, 14, 6],
        [3, 11, 1, 9],
        [15, 7, 13, 5],
    ],
    dtype=np.float64,
)


# -- resampling -------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _box_edges(src: int, dst: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``: the source span ``[lo, hi)`` of each of ``dst`` boxes.

    Both arrays are non-decreasing.  Cached per (source, target) size and
    shared by every caller, so they are read-only.
    """
    edges = np.linspace(0, src, dst + 1)
    lo = np.floor(edges[:-1]).astype(np.intp)
    hi = np.maximum(np.ceil(edges[1:]).astype(np.intp), lo + 1)
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


def box_span(src: int, dst: int, start: int, stop: int) -> tuple[int, int]:
    """``(first, end)``: the boxes of a ``src`` -> ``dst`` box resample
    whose source spans meet the non-empty source span ``[start, stop)``.

    Boxes are monotone, so the ones meeting a span are contiguous.
    """
    lo, hi = _box_edges(src, dst)
    return (int(np.searchsorted(hi, start, side="right")),
            int(np.searchsorted(lo, stop, side="left")))


def scale_box(bitmap: Bitmap, width: int, height: int,
              out: Optional[Bitmap] = None,
              dirty: Optional[Rect] = None) -> Bitmap:
    """Box-filter (area-average) resample; much better for downscaling text.

    Each output pixel is the rounded mean of its source box.  The box sums
    are exact integers, built separably: a cumsum down the source band, a
    gather of each output row's box rows, a cumsum across and a gather of
    each output column's box columns.  They stay in int32 unless the band
    could overflow it.

    With ``out``, a previous ``width`` x ``height`` result for this bitmap,
    only the output pixels whose source box meets ``dirty`` (default: the
    whole source) are recomputed, in place; a ``dirty`` that misses the
    source leaves ``out`` untouched.  Without ``out`` the whole result is
    computed into a new bitmap.  Returns the result.
    """
    if width <= 0 or height <= 0:
        raise GraphicsError(f"scale target must be positive: {width}x{height}")
    if out is None:
        out, dirty = Bitmap(width, height), None
    elif out.size != (width, height):
        raise GraphicsError(
            f"scale out is {out.width}x{out.height}, target {width}x{height}")
    dirty = bitmap.bounds if dirty is None else dirty.intersect(bitmap.bounds)
    if dirty.is_empty:
        return out
    src = bitmap.pixels
    y0s, y1s = _box_edges(bitmap.height, height)
    x0s, x1s = _box_edges(bitmap.width, width)
    r0, r1 = box_span(bitmap.height, height, dirty.y, dirty.y2)
    c0, c1 = box_span(bitmap.width, width, dirty.x, dirty.x2)
    y0, y1 = y0s[r0:r1], y1s[r0:r1]
    x0, x1 = x0s[c0:c1], x1s[c0:c1]
    top, left = y0[0], x0[0]
    band = src[top:y1[-1], left:x1[-1]]
    band_h, band_w = band.shape[:2]
    dtype = np.int32 if band_h * band_w * 255 < 2 ** 31 else np.int64
    # prefix sums down the band, row 0 zero (widen first: a cumsum that
    # casts as it goes is about twice as slow)
    down = np.empty((band_h + 1, band_w, 3), dtype=dtype)
    down[0] = 0
    down[1:] = band
    np.cumsum(down, axis=0, out=down)
    rows = down[y1 - top]
    rows -= down[y0 - top]
    across = np.empty((len(rows), band_w + 1, 3), dtype=dtype)
    across[:, 0] = 0
    np.cumsum(rows, axis=1, out=across[:, 1:])
    sums = np.take(across, x1 - left, axis=1)
    sums -= np.take(across, x0 - left, axis=1)
    areas = ((y1 - y0)[:, None] * (x1 - x0)[None, :]).astype(np.float64)
    means = np.divide(sums, areas[..., None])
    # a mean of bytes rounds into 0..255, so the uint8 store is exact
    out.pixels[r0:r1, c0:c1] = np.rint(means, out=means)
    return out


# -- colour reduction -----------------------------------------------------------


def to_grayscale(bitmap: Bitmap) -> np.ndarray:
    """(H, W) float64 luma in 0..255."""
    return bitmap.pixels.astype(np.float64) @ _LUMA


def gray_bitmap(gray: np.ndarray) -> Bitmap:
    """Lift an (H, W) luma array back into an RGB bitmap (for previews)."""
    g8 = np.clip(np.rint(gray), 0, 255).astype(np.uint8)
    return Bitmap.from_array(np.repeat(g8[..., None], 3, axis=2))


def quantize_levels(gray: np.ndarray, levels: int) -> np.ndarray:
    """Quantise luma to ``levels`` evenly spaced values (no dithering)."""
    if levels < 2:
        raise GraphicsError(f"need at least 2 levels: {levels}")
    steps = levels - 1
    return np.rint(gray / 255.0 * steps) * (255.0 / steps)


# -- dithering -----------------------------------------------------------------


def ordered_dither(gray: np.ndarray, levels: int = 2) -> np.ndarray:
    """Bayer 4x4 ordered dither to ``levels`` grey levels.

    Fast and stable frame-to-frame (no crawling error patterns), which is
    why the PDA output plug-in prefers it for animation.
    """
    if levels < 2:
        raise GraphicsError(f"need at least 2 levels: {levels}")
    h, w = gray.shape
    threshold = (np.tile(BAYER_4X4, (h // 4 + 1, w // 4 + 1))[:h, :w] + 0.5) / 16.0
    steps = levels - 1
    scaled = gray / 255.0 * steps
    dithered = np.floor(scaled + threshold)
    return np.clip(dithered, 0, steps) * (255.0 / steps)


def floyd_steinberg(gray: np.ndarray, levels: int = 2) -> np.ndarray:
    """Floyd–Steinberg error-diffusion dither to ``levels`` grey levels.

    Higher quality on static panels; the phone output plug-in uses it for
    its 1-bit screen.  Error feedback is serial by nature, so one loop runs
    on plain Python floats.  The right neighbour's error rides in a local,
    and each pixel of the row below is summed in locals and written once,
    in the same float order as pushing each error as it is made: the three
    pushes from above (1/16, 5/16, 3/16), then 7/16 from the left.  Rows
    carry one trailing pad slot (it takes the write from column -1) and a
    pad row follows the last, so the loop tests no edge.

    At 2 levels the quantum is ``old > 127.5``: exactly when
    ``round(old / 255)``, clamped to 0..1, is 1, since the next double
    above 127.5 is ``127.5 + 2**-46`` and a 255th of that gap is more than
    half an ulp of 0.5.
    """
    if levels < 2:
        raise GraphicsError(f"need at least 2 levels: {levels}")
    steps = levels - 1
    scale = 255.0 / steps
    binary = steps == 1
    h, w = gray.shape
    padded = np.zeros((h + 1, w + 1))
    padded[:h, :w] = gray
    rows = padded.tolist()
    quanta = bytearray(h * w)
    for y in range(h):
        row = rows[y]
        below = rows[y + 1]
        base = y * w
        carry = left = 0.0  # 7/16 of the last error; below[x - 1] so far
        under = below[0]    # below[x] so far
        for x in range(w):
            old = row[x] + carry
            if binary:
                if old > 127.5:
                    quanta[base + x] = 1
                    err = old - scale
                else:
                    err = old
            else:
                quantum = round(old / scale)
                if quantum < 0:
                    quantum = 0
                elif quantum > steps:
                    quantum = steps
                quanta[base + x] = quantum
                err = old - quantum * scale
            carry = err * 0.4375                  # 7/16
            below[x - 1] = left + err * 0.1875    # 3/16
            left = under + err * 0.3125           # 5/16
            under = below[x + 1] + err * 0.0625   # 1/16
        below[w - 1] = left
    return np.frombuffer(quanta, dtype=np.uint8).reshape(h, w) * scale


# -- device bit-packing ------------------------------------------------------------


def pack_mono(gray: np.ndarray, threshold: float = 127.5) -> bytes:
    """Pack luma to 1 bit/pixel, MSB first, rows padded to whole bytes."""
    bits = (gray > threshold).astype(np.uint8)
    return np.packbits(bits, axis=1).tobytes()


def unpack_mono(data: bytes, width: int, height: int) -> np.ndarray:
    """Inverse of :func:`pack_mono`; returns luma 0/255."""
    row_bytes = (width + 7) // 8
    if len(data) != row_bytes * height:
        raise GraphicsError(
            f"mono buffer is {len(data)} bytes, expected {row_bytes * height}"
        )
    rows = np.frombuffer(data, dtype=np.uint8).reshape(height, row_bytes)
    bits = np.unpackbits(rows, axis=1)[:, :width]
    return bits.astype(np.float64) * 255.0


def pack_gray4(gray: np.ndarray) -> bytes:
    """Pack luma to 4 grey levels, 2 bits/pixel, rows padded to bytes."""
    levels = np.clip(np.rint(gray / 85.0), 0, 3).astype(np.uint8)
    h, w = levels.shape
    padded_w = (w + 3) // 4 * 4
    padded = np.zeros((h, padded_w), dtype=np.uint8)
    padded[:, :w] = levels
    packed = (padded[:, 0::4] << 6 | padded[:, 1::4] << 4
              | padded[:, 2::4] << 2 | padded[:, 3::4])
    return packed.tobytes()


def unpack_gray4(data: bytes, width: int, height: int) -> np.ndarray:
    """Inverse of :func:`pack_gray4`; returns luma at the 4 levels."""
    row_bytes = (width + 3) // 4
    if len(data) != row_bytes * height:
        raise GraphicsError(
            f"gray4 buffer is {len(data)} bytes, expected {row_bytes * height}"
        )
    rows = np.frombuffer(data, dtype=np.uint8).reshape(height, row_bytes)
    levels = np.empty((height, row_bytes * 4), dtype=np.uint8)
    levels[:, 0::4] = rows >> 6
    levels[:, 1::4] = (rows >> 4) & 3
    levels[:, 2::4] = (rows >> 2) & 3
    levels[:, 3::4] = rows & 3
    return levels[:, :width].astype(np.float64) * 85.0
