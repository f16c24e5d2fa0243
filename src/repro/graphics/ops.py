"""Image adaptation operators used by the output plug-ins (paper §2.2).

An output plug-in "contains a code to convert bitmap images received from a
UniInt server to images that can be displayed on the screen of the target
output device".  Concretely that is some composition of:

* resampling to the device resolution (:func:`scale_nearest`,
  :func:`scale_box`, :func:`scale_to_fit`),
* colour reduction (:func:`to_grayscale`, :func:`quantize_levels`),
* dithering for 1-bit / 2-bit panels (:func:`ordered_dither`,
  :func:`floyd_steinberg`),
* bit-packing into the device's native framebuffer layout
  (:func:`pack_mono`, :func:`pack_gray4`).

Everything is numpy-vectorised except Floyd–Steinberg, whose error feedback
is inherently serial per pixel (we vectorise per row where possible).
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


def scale_nearest(bitmap: Bitmap, width: int, height: int) -> Bitmap:
    """Nearest-neighbour resample to exactly ``width`` x ``height``."""
    if width <= 0 or height <= 0:
        raise GraphicsError(f"scale target must be positive: {width}x{height}")
    src = bitmap.pixels
    ys = (np.arange(height) * bitmap.height) // height
    xs = (np.arange(width) * bitmap.width) // width
    return Bitmap.from_array(src[ys[:, None], xs[None, :]])


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
    # boxes are monotone, so the ones meeting ``dirty`` are contiguous
    r0 = np.searchsorted(y1s, dirty.y, side="right")
    r1 = np.searchsorted(y0s, dirty.y2, side="left")
    c0 = np.searchsorted(x1s, dirty.x, side="right")
    c1 = np.searchsorted(x0s, dirty.x2, side="left")
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


def scale_to_fit(bitmap: Bitmap, max_width: int, max_height: int,
                 smooth: bool = True) -> Bitmap:
    """Resample preserving aspect ratio to fit in a bounding box."""
    if max_width <= 0 or max_height <= 0:
        raise GraphicsError("fit box must be positive")
    ratio = min(max_width / bitmap.width, max_height / bitmap.height)
    width = max(1, int(bitmap.width * ratio))
    height = max(1, int(bitmap.height * ratio))
    if ratio == 1.0:
        return bitmap.copy()
    if smooth and ratio < 1.0:
        return scale_box(bitmap, width, height)
    return scale_nearest(bitmap, width, height)


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
    its 1-bit screen.  Error feedback is serial by nature, so the inner
    loop runs on plain Python floats (an order of magnitude faster than
    per-element numpy indexing).
    """
    if levels < 2:
        raise GraphicsError(f"need at least 2 levels: {levels}")
    steps = levels - 1
    scale = 255.0 / steps
    h, w = gray.shape
    work = gray.astype(np.float64).tolist()
    out = [[0.0] * w for _ in range(h)]
    for y in range(h):
        row = work[y]
        out_row = out[y]
        below = work[y + 1] if y + 1 < h else None
        for x in range(w):
            old = row[x]
            quantum = round(old / scale)
            if quantum < 0:
                quantum = 0
            elif quantum > steps:
                quantum = steps
            new = quantum * scale
            out_row[x] = new
            err = old - new
            if x + 1 < w:
                row[x + 1] += err * 0.4375        # 7/16
            if below is not None:
                if x > 0:
                    below[x - 1] += err * 0.1875  # 3/16
                below[x] += err * 0.3125          # 5/16
                if x + 1 < w:
                    below[x + 1] += err * 0.0625  # 1/16
    return np.asarray(out)


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


def mean_abs_error(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute luma error between two images (dither quality metric)."""
    if a.shape != b.shape:
        raise GraphicsError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).mean())
