"""Bitmap font rendering.

:class:`Font` renders the 5x7 glyph table at an integer scale factor; the
toolkit uses scale 1 for captions and scale 2 for headings.  Glyph masks are
cached as numpy boolean arrays, so drawing text is a handful of vectorised
assignments per character.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.graphics import font5x7
from repro.graphics.bitmap import Bitmap, Color
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

    @property
    def line_height(self) -> int:
        return (font5x7.GLYPH_HEIGHT + 1) * self.scale

    def measure(self, text: str) -> tuple[int, int]:
        """(width, height) of ``text`` rendered on one line."""
        if not text:
            return (0, self.glyph_height)
        width = len(text) * self.advance - self.tracking * self.scale
        return (width, self.glyph_height)

    # -- rendering -----------------------------------------------------------

    def _mask(self, char: str) -> np.ndarray:
        return _glyph_mask(char, self.scale)

    def draw(self, bitmap: Bitmap, x: int, y: int, text: str,
             color: Color) -> Rect:
        """Draw ``text`` with its top-left corner at (x, y).

        Returns the dirty rect (clipped to the bitmap).  Characters outside
        the bitmap are clipped, not errors.
        """
        pen_x = x
        color_arr = np.asarray(color, dtype=np.uint8)
        bounds = bitmap.bounds
        for char in text:
            mask = self._mask(char)
            gh, gw = mask.shape
            target = Rect(pen_x, y, gw, gh).intersect(bounds)
            if not target.is_empty:
                mx = target.x - pen_x
                my = target.y - y
                sub = mask[my:my + target.h, mx:mx + target.w]
                view = bitmap.pixels[target.y:target.y2, target.x:target.x2]
                view[sub] = color_arr
            pen_x += self.advance
        w, h = self.measure(text)
        return Rect(x, y, w, h).intersect(bounds)

    def render(self, text: str, color: Color,
               background: Color = (0, 0, 0)) -> Bitmap:
        """Render ``text`` into a fresh minimal bitmap."""
        w, h = self.measure(text)
        bitmap = Bitmap(max(w, 1), h, fill=background)
        self.draw(bitmap, 0, 0, text, color)
        return bitmap


@lru_cache(maxsize=1024)
def _glyph_mask(char: str, scale: int) -> np.ndarray:
    """Boolean (H, W) mask of one glyph at the given scale."""
    columns = font5x7.GLYPHS.get(char, font5x7.REPLACEMENT)
    mask = np.zeros((font5x7.GLYPH_HEIGHT, font5x7.GLYPH_WIDTH), dtype=bool)
    for cx, bits in enumerate(columns):
        for cy in range(font5x7.GLYPH_HEIGHT):
            if bits & (1 << cy):
                mask[cy, cx] = True
    if scale > 1:
        mask = np.repeat(np.repeat(mask, scale, axis=0), scale, axis=1)
    return mask


@lru_cache(maxsize=8)
def default_font(scale: int = 1) -> Font:
    """Shared font instances (cached; fonts are immutable in practice)."""
    return Font(scale=scale)
