"""Clipped, translated painting surface handed to widgets.

A widget paints in its own local coordinates; the :class:`Canvas` applies
the widget's absolute origin and clips everything against the widget's
visible rectangle, so a widget can never scribble outside itself.  The
origin and the clip are plain ints, so a primitive clips with integer
arithmetic and fills its slice of the bitmap without building a rect.
"""

from __future__ import annotations

from repro.graphics.bitmap import Bitmap, Color
from repro.graphics.font import Font
from repro.graphics.region import Rect


class Canvas:
    """Drawing adapter: local coordinates -> clipped bitmap operations."""

    # offset() builds each child with __new__ and sets every slot itself:
    # a new slot must be set there too
    __slots__ = ("_bitmap", "_ox", "_oy", "_x1", "_y1", "_x2", "_y2")

    def __init__(self, bitmap: Bitmap, origin_x: int, origin_y: int,
                 clip: Rect) -> None:
        self._bitmap = bitmap
        self._ox = origin_x
        self._oy = origin_y
        # the clip in bitmap coordinates: x1 <= x < x2, y1 <= y < y2
        self._x1 = max(clip.x, 0)
        self._y1 = max(clip.y, 0)
        self._x2 = min(clip.x2, bitmap.width)
        self._y2 = min(clip.y2, bitmap.height)

    def offset(self, rect: Rect) -> "Canvas":
        """A sub-canvas for a child occupying ``rect`` (local coords)."""
        x, y, w, h = rect
        x += self._ox
        y += self._oy
        sub = Canvas.__new__(Canvas)
        sub._bitmap = self._bitmap
        sub._ox, sub._oy = x, y
        # conditional expressions, not max()/min(): one call per child
        sub._x1 = x if x > self._x1 else self._x1
        sub._y1 = y if y > self._y1 else self._y1
        sub._x2 = x + w if x + w < self._x2 else self._x2
        sub._y2 = y + h if y + h < self._y2 else self._y2
        return sub

    @property
    def is_empty(self) -> bool:
        """Whether the clip hides every pixel."""
        return self._x2 <= self._x1 or self._y2 <= self._y1

    @property
    def clip(self) -> Rect:
        if self.is_empty:
            return Rect(0, 0, 0, 0)
        return Rect(self._x1, self._y1, self._x2 - self._x1,
                    self._y2 - self._y1)

    def _paint(self, x: int, y: int, w: int, h: int, color: Color) -> None:
        """Fill the local rect ``(x, y, w, h)``, clipped."""
        x += self._ox
        y += self._oy
        self._bitmap.fill_box(x if x > self._x1 else self._x1,
                              y if y > self._y1 else self._y1,
                              x + w if x + w < self._x2 else self._x2,
                              y + h if y + h < self._y2 else self._y2, color)

    # -- primitives -----------------------------------------------------------

    def fill(self, rect: Rect, color: Color) -> None:
        self._paint(*rect, color)

    def outline(self, rect: Rect, color: Color, thickness: int = 1) -> None:
        """A border ``thickness`` pixels wide drawn inside ``rect``."""
        x, y, w, h = rect
        for i in range(min(thickness, (min(w, h) + 1) // 2)):
            iw, ih = w - 2 * i, h - 2 * i
            self._paint(x + i, y + i, iw, 1, color)
            self._paint(x + i, y + i + ih - 1, iw, 1, color)
            self._paint(x + i, y + i, 1, ih, color)
            self._paint(x + i + iw - 1, y + i, 1, ih, color)

    def bevel(self, rect: Rect, face: Color, light: Color, shadow: Color,
              sunken: bool = False) -> None:
        """A filled box with a one-pixel 3D bevel (raised or sunken)."""
        x, y, w, h = rect
        self._paint(x, y, w, h, face)
        if w < 2 or h < 2:
            return
        top_left = shadow if sunken else light
        bottom_right = light if sunken else shadow
        self._paint(x, y, w, 1, top_left)
        self._paint(x, y, 1, h, top_left)
        self._paint(x, y + h - 1, w, 1, bottom_right)
        self._paint(x + w - 1, y, 1, h, bottom_right)

    def text(self, x: int, y: int, string: str, color: Color,
             font: Font) -> None:
        font.draw(self._bitmap, x + self._ox, y + self._oy, string, color,
                  (self._x1, self._y1, self._x2, self._y2))

    def text_centered(self, rect: Rect, string: str, color: Color,
                      font: Font) -> None:
        w, h = font.measure(string)
        self.text(rect.x + (rect.w - w) // 2, rect.y + (rect.h - h) // 2,
                  string, color, font)
