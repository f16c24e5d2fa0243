"""Parity of the frame-path kernels with the implementations they replaced.

Each kernel that every frame crosses (colour fills, the tile change mask,
text drawing, the canvas's clipping, HEXTILE encoding and decoding,
pixel-format packing, Floyd–Steinberg and the PDA output plug-in's
conversion) was rewritten to work on whole byte rows, whole arrays,
plain ints or plain locals.  The implementation each rewrite replaced
is kept here as its oracle, and the rewrite must reproduce it exactly:
same pixels, same rects and counters, same decoded arrays, same device
bytes and the same errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Home
from repro.appliances import AirConditioner, Television, VideoRecorder
from repro.devices import Pda
from repro.graphics import (
    RGB888,
    Bitmap,
    Rect,
    TileDiffer,
    font5x7,
)
from repro.graphics import ops
from repro.graphics.bitmap import _validate_color
from repro.graphics.font import Font
from repro.proxy import DeviceImage, SessionContext
from repro.proxy.plugins import OutputPlugin
from repro.toolkit.canvas import Canvas
from repro.toolkit.widget import Widget
from repro.uip import encodings as enc
from repro.uip.encodings import (
    _hextile_end,
    _pixel_bytes,
    decode_hextile,
    encode_hextile,
)
from repro.uip.wire import Cursor, NeedMore, Writer
from repro.util import Scheduler
from repro.util.errors import GraphicsError, ProtocolError
from tests.helpers import ScreenReplay

def _noise(rng, width, height):
    return Bitmap.from_array(
        rng.integers(0, 256, (height, width, 3), dtype=np.uint8))


def _color(rng):
    return tuple(int(c) for c in rng.integers(0, 256, 3))


def _rect(rng, width, height, margin=8):
    """A random rect that may hang off any edge, or be empty."""
    x = int(rng.integers(-margin, width + margin))
    y = int(rng.integers(-margin, height + margin))
    return Rect(x, y, int(rng.integers(0, width + margin)),
                int(rng.integers(0, height + margin)))


# -- fills ------------------------------------------------------------------


def broadcast_fill_rect(bitmap, rect, color):
    """The fill ``Bitmap.fill_rect`` replaced: a (3,) colour broadcast
    over the (h, w, 3) slice."""
    clipped = rect.intersect(bitmap.bounds)
    if clipped.is_empty:
        return
    bitmap.pixels[clipped.y:clipped.y2, clipped.x:clipped.x2] = (
        np.asarray(color, dtype=np.uint8))


class TestFillParity:
    def test_random_rects_match_the_broadcast(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            width, height = (int(v) for v in rng.integers(1, 90, 2))
            fast = _noise(rng, width, height)
            slow = fast.copy()
            rects = [_rect(rng, width, height) for _ in range(12)]
            rects += [Rect(0, 0, 0, 0), Rect(3, 3, 0, 5), fast.bounds,
                      Rect(width - 1, height - 1, 1, 1),
                      Rect(-5, -5, width + 10, height + 10)]
            for rect in rects:
                color = _color(rng)
                fast.fill_rect(rect, color)
                broadcast_fill_rect(slow, rect, color)
                assert fast == slow, (width, height, rect, color)

    def test_fill_and_constructor_match_the_broadcast(self):
        rng = np.random.default_rng(2)
        for width, height in [(1, 1), (1, 9), (9, 1), (480, 360), (37, 5)]:
            color = _color(rng)
            made = Bitmap(width, height, fill=color)
            expected = np.empty((height, width, 3), dtype=np.uint8)
            expected[:] = np.asarray(color, dtype=np.uint8)
            assert np.array_equal(made.pixels, expected)
            made.fill_rect(Rect(0, 0, 1, 1), (1, 2, 3))
            other = _color(rng)
            made.fill(other)
            expected[:] = np.asarray(other, dtype=np.uint8)
            assert np.array_equal(made.pixels, expected)

    def test_fill_of_a_sub_view_leaves_the_rest_alone(self):
        bmp = _noise(np.random.default_rng(3), 20, 10)
        before = bmp.pixels.copy()
        bmp.fill_rect(Rect(4, 2, 7, 5), (9, 8, 7))
        outside = np.ones((10, 20), dtype=bool)
        outside[2:7, 4:11] = False
        assert np.array_equal(bmp.pixels[outside], before[outside])
        assert (bmp.pixels[2:7, 4:11] == (9, 8, 7)).all()

    @pytest.mark.parametrize("color", [(1, 2), (1, 2, 3, 4), (256, 0, 0),
                                       (0, -1, 0), [300, 0, 0], [1, 2]])
    def test_bad_colours_raise_as_before(self, color):
        with pytest.raises(GraphicsError):
            Bitmap(2, 2, fill=color)
        bmp = Bitmap(2, 2)
        with pytest.raises(GraphicsError):
            bmp.fill(color)
        with pytest.raises(GraphicsError):
            bmp.fill_rect(Rect(0, 0, 1, 1), color)
        # an empty fill checks nothing, as before
        bmp.fill_rect(Rect(5, 5, 1, 1), color)
        assert bmp == Bitmap(2, 2)

    def test_unhashable_colours_still_fill(self):
        bmp = Bitmap(3, 2, fill=[10, 20, 30])
        assert bmp.get_pixel(2, 1) == (10, 20, 30)
        bmp.fill_rect(Rect(0, 0, 1, 1), np.array([4, 5, 6]))
        assert bmp.get_pixel(0, 0) == (4, 5, 6)

    def test_memoized_colour_is_read_only(self):
        arr = _validate_color((1, 2, 3))
        assert _validate_color((1, 2, 3)) is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 9
        assert arr.tolist() == [1, 2, 3]


# -- the tile change mask ---------------------------------------------------


class AnyAxis2Differ(TileDiffer):
    """The ``.any(axis=2)`` change mask ``TileDiffer._refine_one`` replaced."""

    def _refine_one(self, pixels, rect):
        tile = 16
        fresh = pixels[rect.y:rect.y2, rect.x:rect.x2]
        stale = self._shadow[rect.y:rect.y2, rect.x:rect.x2]
        core = (fresh != stale).any(axis=2)
        stale[...] = fresh
        gx0 = rect.x - rect.x % tile
        gy0 = rect.y - rect.y % tile
        tiles_x = -(-(rect.x2 - gx0) // tile)
        tiles_y = -(-(rect.y2 - gy0) // tile)
        changed = np.zeros((tiles_y * tile, tiles_x * tile), dtype=bool)
        ry0, rx0 = rect.y - gy0, rect.x - gx0
        changed[ry0:ry0 + rect.h, rx0:rx0 + rect.w] = core
        hot = changed.reshape(tiles_y, tile, tiles_x, tile).any(axis=(1, 3))
        self.tiles_checked += tiles_y * tiles_x
        self.tiles_dropped += int(hot.size - np.count_nonzero(hot))
        if not hot.any():
            return []
        if hot.all():
            return [rect]
        out = []
        active = {}
        for tyi in range(tiles_y):
            row = hot[tyi]
            edges = np.flatnonzero(np.diff(np.concatenate(
                ([False], row, [False])).astype(np.int8)))
            current = {}
            for x0t, x1t in zip(edges[::2], edges[1::2]):
                run = Rect(gx0 + int(x0t) * tile, gy0 + tyi * tile,
                           int(x1t - x0t) * tile, tile).intersect(rect)
                key = (run.x, run.w)
                prev = active.get(key)
                if prev is not None and prev.y2 == run.y:
                    current[key] = Rect(prev.x, prev.y, prev.w,
                                        prev.h + run.h)
                else:
                    if prev is not None:
                        out.append(prev)
                    current[key] = run
            for key, prev in active.items():
                if key not in current:
                    out.append(prev)
            active = current
        out.extend(active.values())
        out.sort(key=lambda r: (r.y, r.x))
        return out


class TestTileDifferParity:
    def test_random_frames_match_the_any_axis2_mask(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            width, height = (int(v) for v in rng.integers(1, 120, 2))
            frame = _noise(rng, width, height)
            fast, slow = TileDiffer(), AnyAxis2Differ()
            fast.refine(frame, [frame.bounds])
            slow.refine(frame, [frame.bounds])
            for _ in range(6):
                # sparse changes, one channel at a time, so a tile's only
                # change can sit in any byte of a pixel
                for _ in range(int(rng.integers(0, 6))):
                    x = int(rng.integers(0, width))
                    y = int(rng.integers(0, height))
                    frame.pixels[y, x, int(rng.integers(0, 3))] ^= 1
                if rng.random() < 0.3:
                    frame.fill_rect(_rect(rng, width, height), _color(rng))
                damage = [_rect(rng, width, height)
                          for _ in range(int(rng.integers(1, 5)))]
                assert fast.refine(frame, damage) == slow.refine(
                    frame, damage), (width, height, damage)
                assert (fast.tiles_checked, fast.tiles_dropped) == (
                    slow.tiles_checked, slow.tiles_dropped)
                assert np.array_equal(fast._shadow, slow._shadow)

    @staticmethod
    def _heat(frame, tiles, rng):
        """Flip one byte of one pixel in each (tile row, tile column)."""
        for ty, tx in tiles:
            y = min(ty * 16 + int(rng.integers(0, 16)), frame.height - 1)
            x = min(tx * 16 + int(rng.integers(0, 16)), frame.width - 1)
            frame.pixels[y, x, int(rng.integers(0, 3))] ^= 0x40

    @staticmethod
    def _runs(rng, rows, cols, count):
        """``count`` runs of hot tiles, as remote-browse's page switches
        make them: 1-12 tiles wide over 1-4 rows, and some stop for a
        row and restart in the same columns."""
        tiles = set()
        for _ in range(count):
            top = int(rng.integers(0, rows))
            left = int(rng.integers(0, cols))
            width = int(rng.integers(1, 13))
            span = range(top, min(top + int(rng.integers(1, 5)), rows))
            gap = top + 1 if rng.random() < 0.4 else None
            tiles |= {(ty, tx) for ty in span if ty != gap
                      for tx in range(left, min(left + width, cols))}
        return tiles

    def _both(self, frame, damage, fast, slow):
        out = fast.refine(frame, damage)
        assert out == slow.refine(frame, damage), damage
        assert (fast.tiles_checked, fast.tiles_dropped) == (
            slow.tiles_checked, slow.tiles_dropped)
        assert np.array_equal(fast._shadow, slow._shadow)
        return out

    def test_remote_browse_shaped_grids(self):
        """About 12 runs on the 690-tile grid of a 480x360 frame, damaged
        whole and through rects whose edges cut tiles."""
        rng = np.random.default_rng(12)
        frame = _noise(rng, 480, 360)
        fast, slow = TileDiffer(), AnyAxis2Differ()
        fast.refine(frame, [frame.bounds])
        slow.refine(frame, [frame.bounds])
        damages = [[frame.bounds], [Rect(5, 7, 470, 349)],
                   [Rect(37, 3, 401, 250), Rect(0, 300, 479, 59)]]
        for i in range(24):
            self._heat(frame, self._runs(rng, 23, 30, 12), rng)
            self._both(frame, damages[i % 3], fast, slow)

    def test_runs_that_stop_and_restart_in_the_same_columns(self):
        frame = Bitmap(480, 360, fill=(50, 60, 70))
        fast, slow = TileDiffer(), AnyAxis2Differ()
        fast.refine(frame, [frame.bounds])
        slow.refine(frame, [frame.bounds])
        rng = np.random.default_rng(13)
        # columns 4-9 hot in tile rows 1-3 and 5-6, cold in row 4; a
        # narrower run shares row 2, and column 29 is the right edge
        tiles = {(ty, tx) for ty in (1, 2, 3, 5, 6) for tx in range(4, 10)}
        tiles |= {(2, tx) for tx in range(12, 14)} | {(ty, 29)
                                                      for ty in (1, 2)}
        self._heat(frame, tiles, rng)
        damage = [Rect(3, 9, 470, 350)]
        assert self._both(frame, damage, fast, slow) == [
            Rect(64, 16, 96, 48), Rect(464, 16, 9, 32),
            Rect(192, 32, 32, 16), Rect(64, 80, 96, 32)]

    def test_small_hotplug_grids(self):
        """A swap's damage: a few rows of about 30 tiles, one run."""
        rng = np.random.default_rng(14)
        frame = _noise(rng, 480, 360)
        fast, slow = TileDiffer(), AnyAxis2Differ()
        fast.refine(frame, [frame.bounds])
        slow.refine(frame, [frame.bounds])
        for _ in range(30):
            x = int(rng.integers(0, 40))
            y = int(rng.integers(0, 300))
            rect = Rect(x, y, int(rng.integers(200, 440 - x)),
                        int(rng.integers(9, 48)))
            row = (y + int(rng.integers(0, rect.h))) // 16
            left = x // 16 + int(rng.integers(0, 4))
            self._heat(frame, {(row, tx) for tx in range(
                left, (rect.x2 - 1) // 16)}, rng)
            self._both(frame, [rect], fast, slow)

    def test_full_window_change_of_one_byte_per_tile(self):
        frame = Bitmap(480, 360, fill=(50, 60, 70))
        fast, slow = TileDiffer(), AnyAxis2Differ()
        fast.refine(frame, [frame.bounds])
        slow.refine(frame, [frame.bounds])
        for channel, (x, y) in enumerate([(15, 15), (16, 16), (479, 359)]):
            frame.pixels[y, x, channel] += 1
        damage = [Rect(3, 5, 470, 350)]
        assert fast.refine(frame, damage) == slow.refine(frame, damage)
        assert fast.tiles_dropped == slow.tiles_dropped


# -- text runs --------------------------------------------------------------


def scaled_glyph_mask(char, scale):
    """The per-glyph mask the old ``Font.draw`` stamped, one per char."""
    columns = font5x7.GLYPHS.get(char, font5x7.REPLACEMENT)
    mask = np.zeros((font5x7.GLYPH_HEIGHT, font5x7.GLYPH_WIDTH), dtype=bool)
    for cx, bits in enumerate(columns):
        for cy in range(font5x7.GLYPH_HEIGHT):
            if bits & (1 << cy):
                mask[cy, cx] = True
    if scale > 1:
        mask = np.repeat(np.repeat(mask, scale, axis=0), scale, axis=1)
    return mask


def per_glyph_draw(font, bitmap, x, y, text, color):
    """The ``Font.draw`` text runs replaced: a rect and a masked
    assignment per glyph."""
    pen_x = x
    color_arr = np.asarray(color, dtype=np.uint8)
    bounds = bitmap.bounds
    for char in text:
        mask = scaled_glyph_mask(char, font.scale)
        gh, gw = mask.shape
        target = Rect(pen_x, y, gw, gh).intersect(bounds)
        if not target.is_empty:
            mx = target.x - pen_x
            my = target.y - y
            sub = mask[my:my + target.h, mx:mx + target.w]
            view = bitmap.pixels[target.y:target.y2, target.x:target.x2]
            view[sub] = color_arr
        pen_x += font.advance
    w, h = font.measure(text)
    return Rect(x, y, w, h).intersect(bounds)


def scratch_canvas_text(bitmap, ox, oy, clip, x, y, string, color, font):
    """The old ``Canvas.text``: a partly visible string was drawn into a
    scratch bitmap over a snapshot of the visible pixels, then the
    visible patch blitted back."""
    clip = clip.intersect(bitmap.bounds)
    if not string:
        return
    target = Rect(x, y, *font.measure(string)).translate(ox, oy)
    visible = target.intersect(clip)
    if visible.is_empty:
        return
    if visible == target:
        per_glyph_draw(font, bitmap, target.x, target.y, string, color)
        return
    patch_x = visible.x - target.x
    patch_y = visible.y - target.y
    scratch = Bitmap(max(target.w, 1), max(target.h, 1))
    scratch.blit(bitmap.crop(visible), patch_x, patch_y)
    per_glyph_draw(font, scratch, 0, 0, string, color)
    patch = scratch.crop(Rect(patch_x, patch_y, visible.w, visible.h))
    bitmap.blit(patch, visible.x, visible.y)


ALPHABET = [chr(c) for c in range(0x20, 0x7F)] + ["é", "\t", "€"]


def _text(rng, longest=14):
    return "".join(rng.choice(ALPHABET, int(rng.integers(0, longest))))


class TestFontParity:
    @pytest.mark.parametrize("scale,tracking", [(1, 1), (2, 1), (1, 0),
                                                (3, 2)])
    def test_draw_matches_per_glyph_drawing(self, scale, tracking):
        rng = np.random.default_rng(5 + scale * 10 + tracking)
        font = Font(scale=scale, tracking=tracking)
        for _ in range(60):
            width, height = (int(v) for v in rng.integers(1, 70, 2))
            fast = _noise(rng, width, height)
            slow = fast.copy()
            text = _text(rng)
            x = int(rng.integers(-40, width + 4))
            y = int(rng.integers(-20, height + 4))
            color = _color(rng)
            assert font.draw(fast, x, y, text, color) == per_glyph_draw(
                font, slow, x, y, text, color), (text, x, y)
            assert fast == slow, (width, height, text, x, y)

    def test_unknown_glyph_draws_the_replacement(self):
        font = Font(scale=2)
        fast, slow = Bitmap(40, 20), Bitmap(40, 20)
        font.draw(fast, 1, 2, "aé€b", (200, 100, 50))
        per_glyph_draw(font, slow, 1, 2, "aé€b", (200, 100, 50))
        assert fast == slow

    @pytest.mark.parametrize("scale", [1, 2])
    def test_canvas_text_under_a_partial_clip(self, scale):
        rng = np.random.default_rng(20 + scale)
        font = Font(scale=scale)
        for _ in range(80):
            width, height = (int(v) for v in rng.integers(4, 80, 2))
            fast = _noise(rng, width, height)
            slow = fast.copy()
            ox, oy = (int(v) for v in rng.integers(-10, 30, 2))
            clip = _rect(rng, width, height)
            text = _text(rng)
            x, y = (int(v) for v in rng.integers(-30, 40, 2))
            color = _color(rng)
            Canvas(fast, ox, oy, clip).text(x, y, text, color, font)
            scratch_canvas_text(slow, ox, oy, clip, x, y, text, color, font)
            assert fast == slow, (width, height, clip, text, x, y, ox, oy)


# -- canvas clipping --------------------------------------------------------


def rect_outline(bitmap, rect, color, thickness=1):
    """The deleted ``draw.rect_outline``: four edge lines per ring, each
    clipped to the bitmap."""
    for i in range(min(thickness, (min(rect.w, rect.h) + 1) // 2)):
        inner = rect.inset(i)
        broadcast_fill_rect(bitmap, Rect(inner.x, inner.y, inner.w, 1), color)
        broadcast_fill_rect(bitmap, Rect(inner.x, inner.y2 - 1, inner.w, 1),
                            color)
        broadcast_fill_rect(bitmap, Rect(inner.x, inner.y, 1, inner.h), color)
        broadcast_fill_rect(bitmap, Rect(inner.x2 - 1, inner.y, 1, inner.h),
                            color)


class RectCanvas:
    """The ``Canvas`` the integer-clip one replaced: the clip is a Rect,
    and every primitive translates and intersects Rects before it
    fills."""

    def __init__(self, bitmap, origin_x, origin_y, clip):
        self._bitmap = bitmap
        self._ox = origin_x
        self._oy = origin_y
        self._clip = clip.intersect(bitmap.bounds)

    def offset(self, rect):
        absolute = rect.translate(self._ox, self._oy)
        return RectCanvas(self._bitmap, absolute.x, absolute.y,
                          absolute.intersect(self._clip))

    @property
    def clip(self):
        return self._clip

    def _abs(self, rect):
        return rect.translate(self._ox, self._oy).intersect(self._clip)

    def fill(self, rect, color):
        clipped = self._abs(rect)
        if not clipped.is_empty:
            broadcast_fill_rect(self._bitmap, clipped, color)

    def outline(self, rect, color, thickness=1):
        absolute = rect.translate(self._ox, self._oy)
        if self._clip.contains_rect(absolute):
            rect_outline(self._bitmap, absolute, color, thickness)
            return
        for i in range(thickness):
            inner = rect.inset(i)
            if inner.is_empty:
                return
            self.fill(Rect(inner.x, inner.y, inner.w, 1), color)
            self.fill(Rect(inner.x, inner.y2 - 1, inner.w, 1), color)
            self.fill(Rect(inner.x, inner.y, 1, inner.h), color)
            self.fill(Rect(inner.x2 - 1, inner.y, 1, inner.h), color)

    def bevel(self, rect, face, light, shadow, sunken=False):
        self.fill(rect, face)
        if rect.w < 2 or rect.h < 2:
            return
        top_left = shadow if sunken else light
        bottom_right = light if sunken else shadow
        self.fill(Rect(rect.x, rect.y, rect.w, 1), top_left)
        self.fill(Rect(rect.x, rect.y, 1, rect.h), top_left)
        self.fill(Rect(rect.x, rect.y2 - 1, rect.w, 1), bottom_right)
        self.fill(Rect(rect.x2 - 1, rect.y, 1, rect.h), bottom_right)

    def text(self, x, y, string, color, font):
        clip = self._clip
        font.draw(self._bitmap, x + self._ox, y + self._oy, string, color,
                  clip=(clip.x, clip.y, clip.x2, clip.y2))

    def text_centered(self, rect, string, color, font):
        w, h = font.measure(string)
        self.text(rect.x + (rect.w - w) // 2, rect.y + (rect.h - h) // 2,
                  string, color, font)


def rect_paint_tree(widget, canvas, theme, painted):
    """The old ``Widget.paint_tree`` over a ``RectCanvas``: a child whose
    clipped sub-canvas is empty is skipped.  Appends every widget it
    paints to ``painted``."""
    if not widget.visible:
        return
    painted.append(widget)
    widget.paint(canvas, theme)
    for child in widget.children:
        sub = canvas.offset(child.rect)
        if not sub.clip.is_empty:
            rect_paint_tree(child, sub, theme, painted)


def _nested(rng, fast, slow, width, height):
    """Both canvases taken through the same 0-3 random offsets."""
    for _ in range(int(rng.integers(0, 4))):
        rect = _rect(rng, width, height, margin=20)
        fast, slow = fast.offset(rect), slow.offset(rect)
        assert fast.clip == slow.clip, rect
        assert fast.is_empty == slow.clip.is_empty
    return fast, slow


def _paint_both(rng, fast, slow, width, height):
    """One random primitive, the same on both canvases: half of them in
    a rect under 8 pixels a side at or across the clip's edges, where
    outline rings meet and the clip cuts them."""
    rect = _rect(rng, width, height, margin=20)
    if rng.integers(0, 2):
        clip = slow.clip
        rect = Rect(clip.x - slow._ox + int(rng.integers(-6, clip.w + 6)),
                    clip.y - slow._oy + int(rng.integers(-6, clip.h + 6)),
                    *(int(v) for v in rng.integers(0, 8, 2)))
    kind = int(rng.integers(0, 5))
    if kind == 0:
        color = _color(rng)
        fast.fill(rect, color)
        slow.fill(rect, color)
    elif kind == 1:
        color, thickness = _color(rng), int(rng.integers(0, 5))
        fast.outline(rect, color, thickness)
        slow.outline(rect, color, thickness)
    elif kind == 2:
        colors = [_color(rng) for _ in range(3)]
        sunken = bool(rng.integers(0, 2))
        fast.bevel(rect, *colors, sunken=sunken)
        slow.bevel(rect, *colors, sunken=sunken)
    else:
        font = Font(scale=int(rng.integers(1, 3)))
        text, color = _text(rng), _color(rng)
        if kind == 3:
            x, y = rect.x, rect.y
            fast.text(x, y, text, color, font)
            slow.text(x, y, text, color, font)
        else:
            fast.text_centered(rect, text, color, font)
            slow.text_centered(rect, text, color, font)
    return rect


class TestCanvasParity:
    def test_random_primitives_under_nested_offsets(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            width, height = (int(v) for v in rng.integers(1, 70, 2))
            fast_bmp = _noise(rng, width, height)
            slow_bmp = fast_bmp.copy()
            ox, oy = (int(v) for v in rng.integers(-20, 40, 2))
            clip = _rect(rng, width, height, margin=20)
            fast = Canvas(fast_bmp, ox, oy, clip)
            slow = RectCanvas(slow_bmp, ox, oy, clip)
            assert fast.clip == slow.clip, clip
            fast, slow = _nested(rng, fast, slow, width, height)
            for _ in range(6):
                rect = _paint_both(rng, fast, slow, width, height)
                assert fast_bmp == slow_bmp, (width, height, clip, rect)

    def test_empty_rects_and_clips_paint_nothing(self):
        rng = np.random.default_rng(32)
        empty = [Rect(0, 0, 0, 0), Rect(5, 5, 0, 7), Rect(-3, 4, 9, 0),
                 Rect(40, 40, 3, 3), Rect(-9, -9, 4, 4)]
        for clip in empty + [Rect(2, 2, 10, 10)]:
            for rect in empty:
                fast_bmp = _noise(rng, 20, 20)
                before = fast_bmp.copy()
                fast = Canvas(fast_bmp, 0, 0, clip)
                fast.fill(rect, (1, 2, 3))
                fast.outline(rect, (1, 2, 3), 3)
                fast.bevel(rect, (1, 2, 3), (4, 5, 6), (7, 8, 9))
                assert fast_bmp == before, (clip, rect)

    @pytest.mark.parametrize("tab", [0, 1, 2])
    def test_paint_tree_culls_and_paints_as_before(self, tab):
        rng = np.random.default_rng(41 + tab)
        window = _control_window(tab)
        root = window.root
        width, height = window.bitmap.size
        for _ in range(25):
            clip = _rect(rng, width, height, margin=40)
            fast_bmp = Bitmap(width, height, fill=window.theme.background)
            slow_bmp = fast_bmp.copy()
            fast_painted, slow_painted = [], []
            recording = _record_paints(fast_painted)
            try:
                root.paint_tree(Canvas(fast_bmp, root.rect.x, root.rect.y,
                                       clip), window.theme)
            finally:
                recording.undo()
            rect_paint_tree(root, RectCanvas(slow_bmp, root.rect.x,
                                             root.rect.y, clip),
                            window.theme, slow_painted)
            assert fast_painted == slow_painted, clip
            assert fast_bmp == slow_bmp, clip


def _control_window(tab):
    """A settled TV+VCR+aircon home's window showing page ``tab``:
    buttons, toggles, sliders, labels, lists, text fields and a progress
    bar, with the focus on a control so its outline paints too."""
    home = Home(width=320, height=240)
    for appliance in (Television("TV"), VideoRecorder("VCR"),
                      AirConditioner("Aircon")):
        home.add_appliance(appliance)
    home.settle()
    window = home.window
    window.root.set_active(tab)
    window.focus_next()
    window.render()
    home.close()
    return window


def _record_paints(painted):
    """Make every ``Widget.paint_tree`` call append its widget."""
    patch = pytest.MonkeyPatch()
    paint_tree = Widget.paint_tree

    def recording(self, canvas, theme):
        if self.visible:
            painted.append(self)
        paint_tree(self, canvas, theme)

    patch.setattr(Widget, "paint_tree", recording)
    return patch


# -- HEXTILE decode ---------------------------------------------------------


def cursor_decode_hextile(cursor, width, height):
    """The byte-at-a-time ``decode_hextile`` the offset parser replaced."""

    def pixel():
        return int.from_bytes(cursor.take(4), "little")

    out = np.zeros((height, width), dtype=RGB888.dtype)
    background = 0
    foreground = 0
    for ty in range(0, height, 16):
        for tx in range(0, width, 16):
            tw = min(16, width - tx)
            th = min(16, height - ty)
            subenc = cursor.u8()
            if subenc & 1:
                data = cursor.take(tw * th * 4)
                out[ty:ty + th, tx:tx + tw] = np.frombuffer(
                    data, dtype=RGB888.dtype).reshape(th, tw)
                continue
            if subenc & 2:
                background = pixel()
            if subenc & 4:
                foreground = pixel()
            out[ty:ty + th, tx:tx + tw] = background
            if subenc & 8:
                count = cursor.u8()
                coloured = bool(subenc & 16)
                for _ in range(count):
                    value = pixel() if coloured else foreground
                    xy = cursor.u8()
                    wh = cursor.u8()
                    sx, sy = xy >> 4, xy & 0x0F
                    sw, sh = (wh >> 4) + 1, (wh & 0x0F) + 1
                    if sx + sw > tw or sy + sh > th:
                        raise ProtocolError(
                            f"hextile subrect {(sx, sy, sw, sh)} exceeds "
                            f"tile {tw}x{th}")
                    out[ty + sy:ty + sy + sh, tx + sx:tx + sx + sw] = value
    return out


def _panel_packed(rng, width, height):
    """Flat fills, two-colour glyph tiles and a noisy patch (raw tiles)."""
    bmp = Bitmap(width, height, fill=_color(rng))
    font = Font(scale=int(rng.integers(1, 3)))
    for _ in range(int(rng.integers(1, 6))):
        bmp.fill_rect(_rect(rng, width, height), _color(rng))
        font.draw(bmp, int(rng.integers(-5, width)),
                  int(rng.integers(-5, height)), _text(rng), _color(rng))
    patch = _rect(rng, width, height)
    clipped = patch.intersect(bmp.bounds)
    if not clipped.is_empty and rng.random() < 0.5:
        bmp.pixels[clipped.y:clipped.y2, clipped.x:clipped.x2] = (
            rng.integers(0, 256, (clipped.h, clipped.w, 3), dtype=np.uint8))
    return RGB888.pack_array(bmp.pixels)


def _both(payload, width, height, pos=0):
    fast_cursor, slow_cursor = Cursor(payload, pos), Cursor(payload, pos)
    fast = decode_hextile(fast_cursor, width, height)
    slow = cursor_decode_hextile(slow_cursor, width, height)
    return fast, slow, fast_cursor.pos, slow_cursor.pos


class TestHextileDecodeParity:
    def test_encoded_panels_decode_identically(self):
        rng = np.random.default_rng(62)
        kinds = set()
        for _ in range(25):
            width, height = (int(v) for v in rng.integers(1, 70, 2))
            packed = _panel_packed(rng, width, height)
            payload = encode_hextile(packed)
            kinds.update(_subencodings(payload, width, height))
            framed = b"\x07\x07" + payload + b"\x09"
            fast, slow, fast_pos, slow_pos = _both(
                bytearray(framed), width, height, pos=2)
            assert fast.dtype == slow.dtype
            assert np.array_equal(fast, slow)
            assert np.array_equal(fast, packed)
            assert fast_pos == slow_pos == 2 + len(payload)
        # the panels exercised every kind of tile
        assert {"raw", "coloured", "mono", "solid"} <= kinds

    def test_every_strict_prefix_needs_more(self):
        rng = np.random.default_rng(72)
        width, height = 37, 21
        packed = _panel_packed(rng, width, height)
        packed[:16, 16:32] = rng.integers(0, 256, (16, 16)).astype(
            RGB888.dtype)
        payload = encode_hextile(packed) + b"\xff"
        assert "raw" in _subencodings(payload, width, height)
        full = len(payload) - 1
        for cut in range(full):
            buffer = bytearray(payload[:cut])
            cursor = Cursor(buffer, 0)
            with pytest.raises(NeedMore) as stall:
                decode_hextile(cursor, width, height)
            assert cut < stall.value.needed <= full
            assert cursor.pos == 0
            # no live view over the buffer survives: it can still grow
            buffer.extend(b"\x00")
        out = decode_hextile(Cursor(payload, 0), width, height)
        assert np.array_equal(out, packed)

    def test_handcrafted_tiles_decode_identically(self):
        px = [v.to_bytes(4, "little") for v in (0x1111, 0x2222, 0x3333)]
        payload = b"".join([
            # 16x5 tile: bg + fg, three mono subrects, two overlapping
            bytes([2 | 4 | 8]), px[0], px[1],
            bytes([3, 0x00, 0x42, 0x21, 0x11, 0xA0, 0x54]),
            # 16x5 tile: raw
            bytes([1]), np.arange(16 * 5, dtype="<u4").tobytes(),
            # 5x5 tile: background persists across the raw tile;
            # coloured subrects, the second inside the first
            bytes([8 | 16, 2]), px[2], bytes([0x00, 0x33]),
            px[1], bytes([0x11, 0x00]),
        ])
        fast, slow, fast_pos, slow_pos = _both(payload, 37, 5)
        assert np.array_equal(fast, slow)
        assert fast_pos == slow_pos == len(payload)
        assert fast[0, 36] == 0x1111 and fast[1, 33] == 0x2222

    @pytest.mark.parametrize("coloured", [False, True])
    def test_overrunning_subrect_is_a_protocol_error(self, coloured):
        px = [v.to_bytes(4, "little") for v in (1, 2, 5)]
        # a 10x7 edge tile; the second subrect is 3 wide at x=8
        record = (lambda xy, wh: (px[2] if coloured else b"") +
                  bytes([xy, wh]))
        subenc = 2 | 8 | (16 if coloured else 4)
        head = bytes([subenc]) + px[0] + (b"" if coloured else px[1])
        payload = head + bytes([2]) + record(0x00, 0x00) + record(
            0x80, 0x20)
        for decode in (decode_hextile, cursor_decode_hextile):
            with pytest.raises(ProtocolError, match="exceeds tile 10x7"):
                decode(Cursor(payload), 10, 7)
        # too tall for the tile
        payload = head + bytes([1]) + record(0x03, 0x06)
        with pytest.raises(ProtocolError):
            decode_hextile(Cursor(payload), 10, 6)


@st.composite
def hextile_payloads(draw):
    """``(payload, width, height)``: any tile mix a peer may send.

    Raw tiles, solid tiles that keep the background, background and
    foreground changes that persist into later tiles, edge tiles of any
    size, and mono or coloured subrects placed freely inside their tile,
    so they overlap (the encoder never overlaps them).
    """
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))

    def pixel():
        return draw(st.integers(0, 2 ** 32 - 1)).to_bytes(4, "little")

    parts = []
    for ty in range(0, height, 16):
        for tx in range(0, width, 16):
            tw, th = min(16, width - tx), min(16, height - ty)
            kind = draw(st.sampled_from(
                ["keep", "raw", "solid", "mono", "coloured"]))
            if kind == "keep":
                parts.append(b"\x00")
                continue
            if kind == "raw":
                parts.append(b"\x01" + b"".join(
                    pixel() for _ in range(tw * th)))
                continue
            subenc = 0
            head = b""
            if draw(st.booleans()):
                subenc |= 2
                head += pixel()
            if kind == "mono" and draw(st.booleans()):
                subenc |= 4
                head += pixel()
            if kind == "solid":
                parts.append(bytes([subenc]) + head)
                continue
            subenc |= 8 | (16 if kind == "coloured" else 0)
            records = []
            for _ in range(draw(st.integers(0, 6))):
                sx, sy = draw(st.integers(0, tw - 1)), draw(
                    st.integers(0, th - 1))
                sw, sh = draw(st.integers(1, tw - sx)), draw(
                    st.integers(1, th - sy))
                records.append((pixel() if kind == "coloured" else b"")
                               + bytes([sx << 4 | sy,
                                        (sw - 1) << 4 | (sh - 1)]))
            parts.append(bytes([subenc]) + head + bytes([len(records)])
                         + b"".join(records))
    return b"".join(parts), width, height


class TestHextileDecodeProperties:
    @given(hextile_payloads())
    @settings(max_examples=150, deadline=None)
    def test_any_payload_decodes_as_the_oracle_does(self, case):
        payload, width, height = case
        fast, slow, fast_pos, slow_pos = _both(
            bytearray(payload + b"\x05"), width, height)
        assert fast.dtype == slow.dtype
        assert np.array_equal(fast, slow)
        assert fast_pos == slow_pos == len(payload)

    @given(hextile_payloads())
    @settings(max_examples=40, deadline=None)
    def test_every_proper_prefix_needs_more(self, case):
        payload, width, height = case
        for cut in range(len(payload)):
            cursor = Cursor(bytearray(payload[:cut]), 0)
            with pytest.raises(NeedMore) as stall:
                decode_hextile(cursor, width, height)
            assert cut < stall.value.needed <= len(payload)
            assert cursor.pos == 0

    def test_overlapping_subrects_paint_in_stream_order(self):
        px = [v.to_bytes(4, "little") for v in (0x10, 0x20, 0x30, 0x40)]
        payload = b"".join([
            # coloured: a 4x4 square, a 2x2 inside it, then the square
            # again over both, then a 1x1 over that
            bytes([2 | 8 | 16]), px[0], bytes([4]),
            px[1], bytes([0x11, 0x33]), px[2], bytes([0x22, 0x11]),
            px[3], bytes([0x11, 0x33]), px[2], bytes([0x44, 0x00]),
        ])
        fast, slow, _, _ = _both(payload, 8, 8)
        assert np.array_equal(fast, slow)
        assert fast[2, 2] == 0x40 and fast[4, 4] == 0x30
        assert fast[0, 0] == 0x10


@st.composite
def edge_tile_panels(draw):
    """``(payload, width, height)``: the encoding of a random panel whose
    right and bottom edge tiles are 1-15 px."""
    width = 16 * draw(st.integers(0, 2)) + draw(st.integers(1, 15))
    height = 16 * draw(st.integers(0, 2)) + draw(st.integers(1, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return encode_hextile(_panel_packed(rng, width, height)), width, height


def assert_skip_walks_as_decode(payload, width, height):
    """The skip walk ends where ``decode_hextile`` leaves the cursor, and
    stalls on every truncation of the payload, as the decoder does."""
    framed = bytearray(b"\x07" + payload + b"\x09")
    cursor = Cursor(framed, 1)
    end = _hextile_end(cursor, width, height)
    assert cursor.pos == 1
    decode_hextile(cursor, width, height)
    assert end == cursor.pos == 1 + len(payload)
    for cut in range(len(payload)):
        for walk in (_hextile_end, decode_hextile):
            cursor = Cursor(bytearray(payload[:cut]), 0)
            with pytest.raises(NeedMore) as stall:
                walk(cursor, width, height)
            assert cut < stall.value.needed <= len(payload)
            assert cursor.pos == 0


class TestHextileSkipWalk:
    @given(st.one_of(edge_tile_panels(), hextile_payloads()))
    @settings(max_examples=80, deadline=None)
    def test_ends_and_stalls_where_the_decoder_does(self, case):
        assert_skip_walks_as_decode(*case)

    def test_handcrafted_raw_coloured_and_mono_tiles(self):
        px = [v.to_bytes(4, "little") for v in (0x1111, 0x2222, 0x3333)]
        payload = b"".join([
            # 16x5 mono tile with bg and fg; a raw tile; two tiles that
            # keep the background; a 3x5 coloured edge tile
            bytes([2 | 4 | 8]), px[0], px[1], bytes([2, 0x00, 0x42, 0x21,
                                                     0x11]),
            bytes([1]), np.arange(16 * 5, dtype="<u4").tobytes(),
            bytes([0, 0]),
            bytes([8 | 16, 2]), px[2], bytes([0x00, 0x20]),
            px[1], bytes([0x11, 0x00]),
        ])
        assert_skip_walks_as_decode(payload, 67, 5)


# -- HEXTILE encode ---------------------------------------------------------


def _per_tile_most_common(values):
    uniques, counts = np.unique(values, return_counts=True)
    return int(uniques[np.argmax(counts)])


def _per_tile_value_runs(row, background):
    change = np.flatnonzero(row[1:] != row[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(row)]))
    for start, end in zip(starts, ends):
        value = int(row[start])
        if value != background:
            yield (int(start), int(end), value)


def _per_tile_merged_subrects(tile, background):
    active = {}
    out = []
    for y in range(tile.shape[0]):
        current = {}
        for start, end, value in _per_tile_value_runs(tile[y], background):
            current[(start, end, value)] = True
        for key in list(active):
            if key not in current:
                y0, span = active.pop(key)
                out.append((key[0], y0, key[1] - key[0], span, key[2]))
        for key in current:
            if key in active:
                active[key][1] += 1
            else:
                active[key] = [y, 1]
    for key, (y0, span) in active.items():
        out.append((key[0], y0, key[1] - key[0], span, key[2]))
    out.sort(key=lambda r: (r[1], r[0]))
    return out


def per_tile_encode_hextile(packed):
    """The seed's scalar ``encode_hextile``: one ``np.unique`` and one
    row-run walk per tile, edge tiles like any other."""
    height, width = packed.shape
    ps = RGB888.bytes_per_pixel
    writer = Writer()
    prev_bg = None
    prev_fg = None
    for ty in range(0, height, 16):
        for tx in range(0, width, 16):
            tile = packed[ty:ty + 16, tx:tx + 16]
            th, tw = tile.shape
            raw_size = 1 + th * tw * ps
            uniques = np.unique(tile)
            if len(uniques) == 1:
                value = int(uniques[0])
                if value == prev_bg:
                    writer.u8(0)
                else:
                    writer.u8(2).raw(_pixel_bytes(value))
                    prev_bg = value
                continue
            background = _per_tile_most_common(tile)
            subrects = _per_tile_merged_subrects(tile, background)
            coloured = len(uniques) > 2
            subenc = 8
            body = Writer()
            if background != prev_bg:
                subenc |= 2
                body.raw(_pixel_bytes(background))
            if coloured:
                subenc |= 16
            else:
                foreground = int(uniques[uniques != background][0])
                if foreground != prev_fg:
                    subenc |= 4
                    body.raw(_pixel_bytes(foreground))
            body.u8(len(subrects))
            for x, y, w, h, value in subrects:
                if coloured:
                    body.raw(_pixel_bytes(value))
                body.u8((x << 4) | y)
                body.u8(((w - 1) << 4) | (h - 1))
            encoded = body.getvalue()
            if 1 + len(encoded) >= raw_size or len(subrects) > 255:
                writer.u8(1)
                writer.raw(np.ascontiguousarray(tile).tobytes())
                prev_bg = None
                prev_fg = None
            else:
                writer.u8(subenc)
                writer.raw(encoded)
                prev_bg = background
                if not coloured:
                    prev_fg = foreground
    return writer.getvalue()


@st.composite
def hextile_rects(draw):
    """Packed pixels, 1-80 px a side, of few colours, noise, or runs of
    a palette in raster order (flat tiles beside mixed ones), so a rect
    has full, right-edge, bottom-edge and corner tiles of every size."""
    width, height = draw(st.integers(1, 80)), draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    content = draw(st.sampled_from(["few-colour", "noise", "runs"]))
    if content == "noise":
        rgb = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
    elif content == "few-colour":
        palette = rng.integers(0, 256, (draw(st.integers(1, 4)), 3),
                               dtype=np.uint8)
        rgb = palette[rng.integers(0, len(palette), (height, width))]
    else:
        palette = rng.integers(0, 256, (draw(st.integers(2, 40)), 3),
                               dtype=np.uint8)
        mean_run = draw(st.sampled_from([2, 8, 60, 400]))
        lengths = rng.integers(1, 2 * mean_run, 2 * width * height
                               // mean_run + 2)
        indices = np.repeat(rng.integers(0, len(palette), lengths.size),
                            lengths)
        rgb = palette[np.resize(indices, (height, width))]
    return RGB888.pack_array(rgb)


class TestHextileEncodeParity:
    @given(hextile_rects())
    @settings(max_examples=120, deadline=None)
    def test_any_rect_encodes_as_the_per_tile_oracle_does(self, packed):
        assert encode_hextile(packed) == per_tile_encode_hextile(packed)

    def test_a_rect_off_the_grid_batches_four_tile_shapes(self,
                                                          monkeypatch):
        shapes = []

        class Recording(enc._HextileBatch):
            __slots__ = ()

            def __init__(self, stack):
                shapes.append(stack.shape[1:])
                super().__init__(stack)

        monkeypatch.setattr(enc, "_HextileBatch", Recording)
        rng = np.random.default_rng(8)
        packed = RGB888.pack_array(
            rng.integers(0, 4, (36, 40, 3), dtype=np.uint8) * 60)
        assert encode_hextile(packed) == per_tile_encode_hextile(packed)
        # full tiles, the right edge column, the bottom row, the corner
        assert shapes == [(16, 16), (16, 8), (4, 16), (4, 8)]


# -- pixel format pack and unpack -------------------------------------------


#: RGB888's channel maximum and its red, green and blue shifts, which
#: the oracles below rescale and shift by.
CHANNEL_MAX = 255
SHIFTS = (16, 8, 0)


def scaled_pack_array(rgb):
    """The ``PixelFormat.pack_array`` that rescaled every channel."""
    wide = rgb.astype(np.uint32)
    r, g, b = ((wide[..., i] * CHANNEL_MAX + 127) // 255 for i in range(3))
    packed = (r << SHIFTS[0]) | (g << SHIFTS[1]) | (b << SHIFTS[2])
    return packed.astype("<u4")


def scaled_unpack(data, width, height):
    """The ``PixelFormat.unpack`` that took wire bytes and rescaled every
    channel."""
    packed = np.frombuffer(data, dtype="<u4").reshape(
        height, width).astype(np.uint32)
    rgb = np.empty((height, width, 3), dtype=np.uint8)
    for i, shift in enumerate(SHIFTS):
        channel = (packed >> shift) & CHANNEL_MAX
        rgb[..., i] = (channel * 255 + CHANNEL_MAX // 2) // CHANNEL_MAX
    return rgb


class TestPixelFormatParity:
    def test_pack_and_unpack_match_the_scaled_arithmetic(self):
        rng = np.random.default_rng(82)
        for _ in range(30):
            height, width = (int(v) for v in rng.integers(1, 40, 2))
            rgb = rng.integers(0, 256, (height + 4, width + 3, 3),
                               dtype=np.uint8)
            view = rgb[2:2 + height, 1:1 + width]  # not contiguous
            packed = RGB888.pack_array(view)
            assert packed.dtype == RGB888.dtype
            assert np.array_equal(packed, scaled_pack_array(view))
            # every wire value, including bits outside the channels
            wire = rng.integers(0, 2 ** 32, (height, width),
                                dtype=np.uint64).astype(RGB888.dtype)
            assert np.array_equal(
                RGB888.unpack(wire),
                scaled_unpack(wire.tobytes(), width, height))


def _subencodings(payload, width, height):
    """The kinds of tile in a HEXTILE payload (walked by the oracle's
    layout): raw, solid, coloured or mono subrects."""
    kinds = set()
    cursor = Cursor(payload)
    ps = RGB888.bytes_per_pixel
    for ty in range(0, height, 16):
        for tx in range(0, width, 16):
            tw, th = min(16, width - tx), min(16, height - ty)
            subenc = cursor.u8()
            if subenc & 1:
                kinds.add("raw")
                cursor.skip(tw * th * ps)
                continue
            cursor.skip(ps * (bool(subenc & 2) + bool(subenc & 4)))
            if not subenc & 8:
                kinds.add("solid")
                continue
            count = cursor.u8()
            kinds.add("coloured" if subenc & 16 else "mono")
            cursor.skip(count * ((ps + 2) if subenc & 16 else 2))
    return kinds


# -- Floyd–Steinberg ------------------------------------------------------------


def per_push_floyd_steinberg(gray, levels=2):
    """The loop ``ops.floyd_steinberg`` replaced: each error is pushed
    into its four neighbours as it is made, each push behind an edge
    test, and every level quantises with ``round(old / scale)``."""
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
                row[x + 1] += err * 0.4375
            if below is not None:
                if x > 0:
                    below[x - 1] += err * 0.1875
                below[x] += err * 0.3125
                if x + 1 < w:
                    below[x + 1] += err * 0.0625
    return np.asarray(out)


def assert_same_dither(gray, levels):
    got = ops.floyd_steinberg(gray, levels)
    expected = per_push_floyd_steinberg(gray, levels)
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape == gray.shape
    assert np.array_equal(got, expected), (gray.shape, levels)


def quantum_edges(levels):
    """Every quantum boundary ``(k + 0.5) * scale`` of ``levels`` (127.5
    at 2 levels) with its two float neighbours."""
    scale = 255.0 / (levels - 1)
    values = []
    for k in range(levels - 1):
        edge = (k + 0.5) * scale
        values += [np.nextafter(edge, -np.inf), edge,
                   np.nextafter(edge, np.inf)]
    return values


LEVELS = range(2, 9)


class TestFloydSteinbergParity:
    @pytest.mark.parametrize("levels", LEVELS)
    @pytest.mark.parametrize("shape", [(1, 1), (1, 53), (41, 1), (96, 128)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_random_luma_matches_per_push_diffusion(self, levels, shape):
        rng = np.random.default_rng(1000 * levels + shape[0] + shape[1])
        # past both ends of 0..255, as a sharpened or synthetic source is
        assert_same_dither(rng.uniform(-80.0, 335.0, shape), levels)

    @pytest.mark.parametrize("levels", LEVELS)
    def test_quantum_edges_and_their_neighbours(self, levels):
        values = quantum_edges(levels)
        assert np.nextafter(127.5, np.inf) == 127.5 + 2.0 ** -46
        for value in values:
            assert_same_dither(np.full((1, 1), value), levels)
        row = np.asarray([values])
        assert_same_dither(row, levels)
        assert_same_dither(row.T.copy(), levels)
        assert_same_dither(np.tile(row, (7, 3)), levels)

    @pytest.mark.parametrize("levels", LEVELS)
    def test_diffused_sums_one_ulp_either_side_of_an_edge(self, levels):
        # A second-row pixel adds up to four pushed errors to its source.
        # Stepping that source ulp by ulp across the point where the pixel
        # changes quantum catches any order of the sum that rounds
        # differently there.
        rng = np.random.default_rng(levels)
        scale = 255.0 / (levels - 1)
        for trial in range(24):
            gray = rng.uniform(0.0, 255.0, (2, 3))
            x = trial % 3
            level = int(rng.integers(1, levels)) * scale

            def reaches_level(source):
                gray[1, x] = source
                return per_push_floyd_steinberg(gray, levels)[1, x] >= level

            below, above = -400.0, 700.0
            assert not reaches_level(below) and reaches_level(above)
            while True:
                middle = below + (above - below) / 2
                if middle in (below, above):
                    break
                if reaches_level(middle):
                    above = middle
                else:
                    below = middle
            source = above
            for _ in range(16):
                source = np.nextafter(source, -np.inf)
            for _ in range(33):
                gray[1, x] = source
                assert_same_dither(gray, levels)
                source = np.nextafter(source, np.inf)

    @pytest.mark.parametrize("levels", LEVELS)
    def test_flat_panels_of_exact_levels(self, levels):
        # flat blocks at the exact quantum levels and midpoints, where
        # diffused errors cancel to exact ties
        rng = np.random.default_rng(levels)
        shades = np.asarray([0.0, 63.75, 85.0, 127.5, 170.0, 191.25,
                             255.0])
        blocks = rng.choice(shades, (12, 16))
        gray = np.kron(blocks, np.ones((8, 8)))
        assert_same_dither(gray, levels)

    def test_integer_luma(self):
        rng = np.random.default_rng(9)
        gray = rng.integers(0, 256, (17, 23), dtype=np.uint8)
        for levels in (2, 4):
            assert_same_dither(gray, levels)


# -- the PDA output plug-in -----------------------------------------------------


class WholeFramePdaPlugin(OutputPlugin):
    """The transform ``PdaOutputPlugin`` replaced: grey, dither, letterbox
    and pack the whole fitted frame on every push, and ship it whole."""

    def transform(self, frame, dirty):
        view, scaled, _ = self.fit_frame(frame, dirty)
        gray = ops.to_grayscale(scaled)
        dithered = ops.ordered_dither(gray, levels=4)
        canvas = np.zeros((self.screen.height, self.screen.width))
        canvas[view.offset_y:view.offset_y + scaled.height,
               view.offset_x:view.offset_x + scaled.width] = dithered
        return DeviceImage(self.screen.width, self.screen.height, "gray4",
                           ops.pack_gray4(canvas))


def pda_plugin(factory=Pda.output_plugin_factory):
    return factory(Pda("pda", Scheduler()).descriptor, SessionContext())


def whole_frame_image(frame):
    """The oracle on a fresh plug-in: the whole frame rescaled."""
    return pda_plugin(WholeFramePdaPlugin).transform(frame, frame.bounds)


#: Frame sizes shown 1:1 and scaled down, each with a letterbox offset
#: that is not a multiple of 4 on at least one axis.
PDA_FRAMES = [(314, 230), (301, 239), (203, 97), (480, 330), (700, 410),
              (333, 251), (640, 201)]


class TestPdaOutputParity:
    """Each image the plug-in pushes is applied to a screen, which must
    then equal the oracle's whole frame."""

    @pytest.mark.parametrize("size", PDA_FRAMES,
                             ids=lambda size: "x".join(map(str, size)))
    def test_every_push_matches_the_whole_frame_transform(self, size):
        width, height = size
        rng = np.random.default_rng(width * height)
        frame = _noise(rng, width, height)
        plugin = pda_plugin()
        screen = ScreenReplay()
        assert screen.show(plugin.process(frame, frame.bounds)) == \
            whole_frame_image(frame)
        view = plugin.context.view
        assert view.offset_x % 4 or view.offset_y % 4
        scaled_h = max(1, int(height * view.scale))
        unaligned = 0
        for step in range(40):
            rect = _rect(rng, width, height)
            if step % 5 == 0:  # a band starting off the Bayer period
                y = 4 * int(rng.integers(0, height // 4)) + 1 + step % 3
                rect = Rect(int(rng.integers(0, width)), y,
                            int(rng.integers(1, 40)), int(rng.integers(1, 9)))
            changed = rect.intersect(frame.bounds)
            if not changed.is_empty:
                frame.view(changed)[:] = rng.integers(
                    0, 256, (changed.h, changed.w, 3), dtype=np.uint8)
                first, _ = ops.box_span(height, scaled_h, changed.y,
                                        changed.y2)
                unaligned += first % 4 != 0
            assert screen.show(plugin.process(frame, rect)) == \
                whole_frame_image(frame), (size, step, rect)
        assert unaligned > 0

    @pytest.mark.parametrize("size", [(314, 230), (480, 330)],
                             ids=lambda size: "x".join(map(str, size)))
    def test_empty_and_off_frame_damage(self, size):
        width, height = size
        rng = np.random.default_rng(width)
        frame = _noise(rng, width, height)
        plugin = pda_plugin()
        screen = ScreenReplay()
        expected = screen.show(plugin.process(frame, frame.bounds))
        assert expected == whole_frame_image(frame)
        for rect in (Rect(0, 0, 0, 0), Rect(7, 9, 0, 30), Rect(7, 9, 30, 0),
                     Rect(-40, -40, 30, 30), Rect(width, 0, 9, height),
                     Rect(0, height, width, 5)):
            image = plugin.process(frame, rect)
            assert image.rows == 0, rect
            assert screen.show(image) == expected, rect

    @pytest.mark.parametrize("sizes", [((314, 230), (314, 230)),
                                       ((480, 330), (480, 330)),
                                       ((480, 330), (203, 97)),
                                       ((203, 97), (700, 410))],
                             ids=str)
    def test_a_new_frame_object_is_converted_whole(self, sizes):
        rng = np.random.default_rng(len(str(sizes)))
        plugin = pda_plugin()
        screen = ScreenReplay()
        for width, height in sizes:
            frame = _noise(rng, width, height)
            # a new frame object: its dirty says nothing of the old one,
            # and the device gets a full frame
            image = plugin.process(frame, Rect(1, 1, 1, 1))
            assert image.is_full
            assert screen.show(image) == whole_frame_image(frame)
            frame.view(Rect(3, 6, 20, 3))[:] = 255
            assert screen.show(plugin.process(frame, Rect(3, 6, 20, 3))) == \
                whole_frame_image(frame)

    def test_small_damage_converts_only_its_rows(self, monkeypatch):
        rows_dithered = []
        dither = ops.ordered_dither

        def counting(gray, levels=2):
            rows_dithered.append(gray.shape[0])
            return dither(gray, levels)

        monkeypatch.setattr(ops, "ordered_dither", counting)
        rng = np.random.default_rng(4)
        frame = _noise(rng, 314, 230)
        plugin = pda_plugin()
        screen = ScreenReplay(plugin.process(frame, frame.bounds))
        frame.view(Rect(10, 101, 30, 6))[:] = 0
        image = plugin.process(frame, Rect(10, 101, 30, 6))
        plugin.process(frame, Rect(0, 0, 0, 0))
        # every row, then rows 100..106 for the damage at rows 101..106,
        # then none
        assert rows_dithered == [230, 7]
        # the frame sits at (3, 5) on the screen: the box is device rows
        # 106..111 and the bytes of columns 13..42, 4 pixels a byte
        assert (image.y, image.rows, image.x, image.span) == (106, 6, 3, 8)
        monkeypatch.undo()
        assert screen.show(image) == whole_frame_image(frame)
