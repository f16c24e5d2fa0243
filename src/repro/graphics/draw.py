"""Drawing primitives over :class:`~repro.graphics.bitmap.Bitmap`.

These are the operations the widget toolkit paints with: lines, rectangle
outlines and filled/raised/sunken boxes (the classic 2002-era bevel look).
All primitives clip against the bitmap bounds.
"""

from __future__ import annotations

from repro.graphics.bitmap import Bitmap, Color
from repro.graphics.region import Rect


def hline(bitmap: Bitmap, x: int, y: int, length: int, color: Color) -> None:
    """Horizontal line from (x, y), ``length`` pixels to the right."""
    bitmap.fill_rect(Rect(x, y, max(length, 0), 1), color)


def vline(bitmap: Bitmap, x: int, y: int, length: int, color: Color) -> None:
    """Vertical line from (x, y), ``length`` pixels downward."""
    bitmap.fill_rect(Rect(x, y, 1, max(length, 0)), color)


def line(bitmap: Bitmap, x0: int, y0: int, x1: int, y1: int,
         color: Color) -> None:
    """Bresenham line between two points (inclusive)."""
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    bounds = bitmap.bounds
    x, y = x0, y0
    while True:
        if bounds.contains_point(x, y):
            bitmap.pixels[y, x] = color
        if x == x1 and y == y1:
            return
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def rect_outline(bitmap: Bitmap, rect: Rect, color: Color,
                 thickness: int = 1) -> None:
    """Rectangle border drawn inside ``rect``."""
    for i in range(min(thickness, (min(rect.w, rect.h) + 1) // 2)):
        inner = rect.inset(i)
        hline(bitmap, inner.x, inner.y, inner.w, color)
        hline(bitmap, inner.x, inner.y2 - 1, inner.w, color)
        vline(bitmap, inner.x, inner.y, inner.h, color)
        vline(bitmap, inner.x2 - 1, inner.y, inner.h, color)


def bevel_box(bitmap: Bitmap, rect: Rect, face: Color, light: Color,
              shadow: Color, sunken: bool = False) -> None:
    """Filled box with a one-pixel 3D bevel (raised or sunken)."""
    bitmap.fill_rect(rect, face)
    if rect.w < 2 or rect.h < 2:
        return
    top_left = shadow if sunken else light
    bottom_right = light if sunken else shadow
    hline(bitmap, rect.x, rect.y, rect.w, top_left)
    vline(bitmap, rect.x, rect.y, rect.h, top_left)
    hline(bitmap, rect.x, rect.y2 - 1, rect.w, bottom_right)
    vline(bitmap, rect.x2 - 1, rect.y, rect.h, bottom_right)
