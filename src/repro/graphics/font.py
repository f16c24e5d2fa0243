"""Bitmap font rendering.

:class:`Font` renders the 5x7 glyph table at an integer scale factor; the
toolkit uses scale 1 for captions and scale 2 for headings.  A whole
string is rendered as one boolean mask, cached per (text, scale,
tracking), so drawing text is one masked assignment per string; a string
clipped by the bitmap edge or a canvas is drawn through a slice of the
same mask.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.graphics import font5x7
from repro.graphics.bitmap import Bitmap, Color, _validate_color
from repro.graphics.region import Rect
from repro.util.errors import GraphicsError


class Font:
    """A scaled 5x7 bitmap font."""

    def __init__(self, scale: int = 1, tracking: int = 1) -> None:
        if scale < 1:
            raise GraphicsError(f"font scale must be >= 1: {scale}")
        if tracking < 0:
            raise GraphicsError(f"negative tracking: {tracking}")
        self.scale = scale
        #: Blank columns between glyphs, in unscaled pixels.
        self.tracking = tracking

    # -- metrics ------------------------------------------------------------

    @property
    def glyph_height(self) -> int:
        return font5x7.GLYPH_HEIGHT * self.scale

    @property
    def advance(self) -> int:
        """Horizontal distance between glyph origins."""
        return (font5x7.GLYPH_WIDTH + self.tracking) * self.scale

    def measure(self, text: str) -> tuple[int, int]:
        """(width, height) of ``text`` rendered on one line."""
        if not text:
            return (0, self.glyph_height)
        width = len(text) * self.advance - self.tracking * self.scale
        return (width, self.glyph_height)

    # -- rendering -----------------------------------------------------------

    def draw(self, bitmap: Bitmap, x: int, y: int, text: str,
             color: Color,
             clip: Optional[tuple[int, int, int, int]] = None) -> Rect:
        """Draw ``text`` with its top-left corner at (x, y).

        Returns the dirty rect: the text's box clipped to the bitmap and,
        when given, to ``clip``, a canvas's ``(x1, y1, x2, y2)`` box in
        bitmap coordinates.  Pixels outside are clipped, not errors.
        """
        pixels = bitmap.pixels
        height, width = pixels.shape[:2]
        w, h = self.measure(text)
        cx1, cy1, cx2, cy2 = (0, 0, width, height) if clip is None else clip
        x1, y1 = max(x, cx1, 0), max(y, cy1, 0)
        x2, y2 = min(x + w, cx2, width), min(y + h, cy2, height)
        if x2 <= x1 or y2 <= y1:
            return Rect(0, 0, 0, 0)
        mask = _text_mask(text, self.scale, self.tracking)
        pixels[y1:y2, x1:x2][mask[y1 - y:y2 - y, x1 - x:x2 - x]] = (
            _validate_color(color))
        return Rect(x1, y1, x2 - x1, y2 - y1)

    def render(self, text: str, color: Color,
               background: Color = (0, 0, 0)) -> Bitmap:
        """Render ``text`` into a fresh minimal bitmap."""
        w, h = self.measure(text)
        bitmap = Bitmap(max(w, 1), h, fill=background)
        self.draw(bitmap, 0, 0, text, color)
        return bitmap


@lru_cache(maxsize=128)
def _glyph_mask(char: str) -> np.ndarray:
    """Boolean (H, W) mask of one unscaled glyph."""
    columns = font5x7.GLYPHS.get(char, font5x7.REPLACEMENT)
    mask = np.zeros((font5x7.GLYPH_HEIGHT, font5x7.GLYPH_WIDTH), dtype=bool)
    for cx, bits in enumerate(columns):
        for cy in range(font5x7.GLYPH_HEIGHT):
            if bits & (1 << cy):
                mask[cy, cx] = True
    return mask


@lru_cache(maxsize=512)
def _text_mask(text: str, scale: int, tracking: int) -> np.ndarray:
    """Read-only boolean mask of non-empty ``text`` on one line."""
    advance = font5x7.GLYPH_WIDTH + tracking
    mask = np.zeros((font5x7.GLYPH_HEIGHT, len(text) * advance - tracking),
                    dtype=bool)
    for i, char in enumerate(text):
        mask[:, i * advance:i * advance + font5x7.GLYPH_WIDTH] = (
            _glyph_mask(char))
    if scale > 1:
        mask = np.repeat(np.repeat(mask, scale, axis=0), scale, axis=1)
    mask.flags.writeable = False  # shared by every draw of this text
    return mask


@lru_cache(maxsize=8)
def default_font(scale: int = 1) -> Font:
    """Shared font instances (cached; fonts are immutable in practice)."""
    return Font(scale=scale)
