"""Clipped, translated painting surface handed to widgets.

A widget paints in its own local coordinates; the :class:`Canvas` applies
the widget's absolute origin and clips everything against the widget's
visible rectangle, so a widget can never scribble outside itself.
"""

from __future__ import annotations

from repro.graphics import draw
from repro.graphics.bitmap import Bitmap, Color
from repro.graphics.font import Font
from repro.graphics.region import Rect


class Canvas:
    """Drawing adapter: local coordinates -> clipped bitmap operations."""

    def __init__(self, bitmap: Bitmap, origin_x: int, origin_y: int,
                 clip: Rect) -> None:
        self._bitmap = bitmap
        self._ox = origin_x
        self._oy = origin_y
        self._clip = clip.intersect(bitmap.bounds)

    def offset(self, rect: Rect) -> "Canvas":
        """A sub-canvas for a child occupying ``rect`` (local coords)."""
        absolute = rect.translate(self._ox, self._oy)
        return Canvas(self._bitmap, absolute.x, absolute.y,
                      absolute.intersect(self._clip))

    @property
    def clip(self) -> Rect:
        return self._clip

    def _abs(self, rect: Rect) -> Rect:
        return rect.translate(self._ox, self._oy).intersect(self._clip)

    # -- primitives -----------------------------------------------------------

    def fill(self, rect: Rect, color: Color) -> None:
        clipped = self._abs(rect)
        if not clipped.is_empty:
            self._bitmap.fill_rect(clipped, color)

    def outline(self, rect: Rect, color: Color, thickness: int = 1) -> None:
        # Outlines must clip per-edge; draw into a clipped world rect only
        # when fully visible, else fall back to edge fills.
        absolute = rect.translate(self._ox, self._oy)
        if self._clip.contains_rect(absolute):
            draw.rect_outline(self._bitmap, absolute, color, thickness)
            return
        for i in range(thickness):
            inner = rect.inset(i)
            if inner.is_empty:
                return
            self.fill(Rect(inner.x, inner.y, inner.w, 1), color)
            self.fill(Rect(inner.x, inner.y2 - 1, inner.w, 1), color)
            self.fill(Rect(inner.x, inner.y, 1, inner.h), color)
            self.fill(Rect(inner.x2 - 1, inner.y, 1, inner.h), color)

    def bevel(self, rect: Rect, face: Color, light: Color, shadow: Color,
              sunken: bool = False) -> None:
        self.fill(rect, face)
        if rect.w < 2 or rect.h < 2:
            return
        top_left = shadow if sunken else light
        bottom_right = light if sunken else shadow
        self.fill(Rect(rect.x, rect.y, rect.w, 1), top_left)
        self.fill(Rect(rect.x, rect.y, 1, rect.h), top_left)
        self.fill(Rect(rect.x, rect.y2 - 1, rect.w, 1), bottom_right)
        self.fill(Rect(rect.x2 - 1, rect.y, 1, rect.h), bottom_right)

    def text(self, x: int, y: int, string: str, color: Color,
             font: Font) -> None:
        font.draw(self._bitmap, x + self._ox, y + self._oy, string, color,
                  clip=self._clip)

    def text_centered(self, rect: Rect, string: str, color: Color,
                      font: Font) -> None:
        w, h = font.measure(string)
        self.text(rect.x + (rect.w - w) // 2, rect.y + (rect.h - h) // 2,
                  string, color, font)
