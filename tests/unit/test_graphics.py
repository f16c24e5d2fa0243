"""Unit tests for bitmaps, the wire pixel format, fonts and image ops."""

import struct

import numpy as np
import pytest

from repro.graphics import (
    RGB888,
    Bitmap,
    Rect,
    default_font,
    ops,
)
from repro.util.errors import GraphicsError


class TestBitmap:
    def test_create_filled(self):
        bmp = Bitmap(4, 3, fill=(10, 20, 30))
        assert bmp.size == (4, 3)
        assert bmp.get_pixel(0, 0) == (10, 20, 30)
        assert bmp.get_pixel(3, 2) == (10, 20, 30)

    def test_zero_size_rejected(self):
        with pytest.raises(GraphicsError):
            Bitmap(0, 5)

    def test_bad_color_rejected(self):
        with pytest.raises(GraphicsError):
            Bitmap(2, 2, fill=(300, 0, 0))

    def test_get_pixel_takes_column_then_row(self):
        bmp = Bitmap(4, 3)
        bmp.pixels[1, 2] = (1, 2, 3)  # row 1, column 2
        assert bmp.get_pixel(2, 1) == (1, 2, 3)
        assert bmp.get_pixel(1, 2) == (0, 0, 0)
        # plain ints: arithmetic on them does not wrap like uint8
        r, _, _ = bmp.get_pixel(2, 1)
        assert type(r) is int and r - 2 == -1

    def test_pixel_out_of_bounds(self):
        bmp = Bitmap(4, 4)
        with pytest.raises(GraphicsError):
            bmp.get_pixel(4, 0)
        with pytest.raises(GraphicsError):
            bmp.get_pixel(0, -1)

    def test_fill_rect_clips(self):
        bmp = Bitmap(4, 4, fill=(0, 0, 0))
        bmp.fill_rect(Rect(2, 2, 10, 10), (255, 0, 0))
        assert bmp.get_pixel(3, 3) == (255, 0, 0)
        assert bmp.get_pixel(1, 1) == (0, 0, 0)

    def test_fill_box_fills_the_half_open_box(self):
        bmp = Bitmap(4, 4, fill=(0, 0, 0))
        bmp.fill_box(1, 2, 3, 4, (9, 8, 7))
        painted = {(x, y) for y in range(4) for x in range(4)
                   if bmp.get_pixel(x, y) == (9, 8, 7)}
        assert painted == {(1, 2), (2, 2), (1, 3), (2, 3)}

    def test_fill_box_empty_fills_nothing(self):
        bmp = Bitmap(4, 4, fill=(0, 0, 0))
        for box in [(2, 1, 2, 3), (1, 3, 3, 3), (3, 1, 1, 3)]:
            bmp.fill_box(*box, (9, 8, 7))
        assert bmp == Bitmap(4, 4, fill=(0, 0, 0))

    def test_blit_returns_dirty_rect(self):
        dst = Bitmap(10, 10)
        src = Bitmap(4, 4, fill=(9, 9, 9))
        dirty = dst.blit(src, 2, 3)
        assert dirty == Rect(2, 3, 4, 4)
        assert dst.get_pixel(2, 3) == (9, 9, 9)

    def test_blit_clips_offscreen(self):
        dst = Bitmap(10, 10)
        src = Bitmap(4, 4, fill=(9, 9, 9))
        dirty = dst.blit(src, 8, 8)
        assert dirty == Rect(8, 8, 2, 2)
        dirty = dst.blit(src, -2, -2)
        assert dirty == Rect(0, 0, 2, 2)
        assert dst.get_pixel(1, 1) == (9, 9, 9)

    def test_blit_fully_offscreen(self):
        dst = Bitmap(10, 10)
        src = Bitmap(4, 4, fill=(9, 9, 9))
        assert dst.blit(src, 100, 100).is_empty

    def test_crop(self):
        bmp = Bitmap(10, 10)
        bmp.fill_rect(Rect(2, 2, 3, 3), (5, 5, 5))
        sub = bmp.crop(Rect(2, 2, 3, 3))
        assert sub.size == (3, 3)
        assert sub.get_pixel(0, 0) == (5, 5, 5)

    def test_crop_outside_raises(self):
        with pytest.raises(GraphicsError):
            Bitmap(5, 5).crop(Rect(10, 10, 2, 2))

    def test_equality(self):
        a = Bitmap(3, 3, fill=(1, 2, 3))
        b = Bitmap(3, 3, fill=(1, 2, 3))
        assert a == b
        b.fill_rect(Rect(0, 0, 1, 1), (0, 0, 0))
        assert a != b

    def test_save_ppm_writes_binary_p6(self, tmp_path):
        path = tmp_path / "shot.ppm"
        bmp = Bitmap(7, 5)
        bmp.fill_rect(Rect(1, 1, 3, 2), (200, 100, 50))
        bmp.save_ppm(str(path))
        assert path.read_bytes() == b"P6\n7 5\n255\n" + bmp.pixels.tobytes()

    def test_from_array_copies(self):
        arr = np.zeros((2, 2, 3), dtype=np.uint8)
        bmp = Bitmap.from_array(arr)
        arr[0, 0] = 255
        assert bmp.get_pixel(0, 0) == (0, 0, 0)


class TestBitmapView:
    def test_view_shares_storage(self):
        bmp = Bitmap(8, 8, fill=(1, 2, 3))
        view = bmp.view(Rect(2, 2, 4, 4))
        assert view.shape == (4, 4, 3)
        assert view.base is not None  # zero-copy
        view[0, 0] = (9, 9, 9)
        assert bmp.get_pixel(2, 2) == (9, 9, 9)

    def test_view_clips_to_bounds(self):
        bmp = Bitmap(8, 8)
        assert bmp.view(Rect(6, 6, 10, 10)).shape == (2, 2, 3)

    def test_view_outside_raises(self):
        bmp = Bitmap(8, 8)
        with pytest.raises(GraphicsError):
            bmp.view(Rect(20, 20, 4, 4))

    def test_from_array_copies_contiguous_input(self):
        src = np.zeros((4, 4, 3), dtype=np.uint8)
        bmp = Bitmap.from_array(src)
        src[0, 0] = 77
        assert bmp.get_pixel(0, 0) == (0, 0, 0)

    def test_from_array_single_copy_of_view(self):
        # a non-contiguous view triggers exactly one conversion copy
        base = np.zeros((8, 8, 3), dtype=np.uint8)
        view = base[::2, ::2]
        bmp = Bitmap.from_array(view)
        assert bmp.pixels.flags.c_contiguous
        base[0, 0] = 55
        assert bmp.get_pixel(0, 0) == (0, 0, 0)

    def test_from_array_copies_ndarray_subclass(self):
        class Sub(np.ndarray):
            pass

        src = np.zeros((4, 4, 3), dtype=np.uint8).view(Sub)
        bmp = Bitmap.from_array(src)
        src[0, 0] = 99
        assert bmp.get_pixel(0, 0) == (0, 0, 0)

    def test_equality_is_by_pixels_and_hashing_by_identity(self):
        a, b = Bitmap(4, 4, fill=(1, 2, 3)), Bitmap(4, 4, fill=(1, 2, 3))
        assert a == b and a != "not a bitmap"
        assert len({a, b}) == 2  # mutable: each hashes as itself

    def test_from_array_copies_contiguous_view(self):
        base = np.zeros((8, 8, 3), dtype=np.uint8)
        view = base[2:6, :]  # contiguous but shares base storage
        bmp = Bitmap.from_array(view)
        base[3, 0] = 44
        assert bmp.get_pixel(0, 1) == (0, 0, 0)


class TestPixelFormat:
    def test_pack_size(self):
        bmp = Bitmap(8, 4, fill=(100, 150, 200))
        assert RGB888.pack_array(bmp.pixels).nbytes == (
            8 * 4 * RGB888.bytes_per_pixel)

    def test_rgb888_lossless(self):
        rng = np.random.default_rng(1)
        rgb = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        out = RGB888.unpack(RGB888.pack_array(rgb))
        assert np.array_equal(out, rgb)

    def test_extremes_preserved(self):
        black = np.zeros((1, 1, 3), dtype=np.uint8)
        white = np.full((1, 1, 3), 255, dtype=np.uint8)
        assert np.array_equal(RGB888.unpack(RGB888.pack_array(black)), black)
        assert np.array_equal(RGB888.unpack(RGB888.pack_array(white)), white)

    def test_wire_form(self):
        # ServerInit's 16 bytes, in RFB's layout, and the 4 little-endian
        # bytes of each packed pixel
        assert RGB888.wire == struct.pack(
            ">BBBBHHHBBB3x", 32, 24, 0, 1, 255, 255, 255, 16, 8, 0)
        pixel = np.array([[[0x12, 0x34, 0x56]]], dtype=np.uint8)
        assert RGB888.pack_array(pixel).tobytes() == b"\x56\x34\x12\x00"

    def test_unpack_ignores_the_top_byte(self):
        packed = np.array([[0xFF123456]], dtype=RGB888.dtype)
        assert RGB888.unpack(packed).tolist() == [[[0x12, 0x34, 0x56]]]

    @pytest.mark.parametrize("array", [
        np.zeros((4, 4), dtype=np.uint8),          # no channel axis
        np.zeros((4, 4, 4), dtype=np.uint8),       # RGBA
        np.zeros((4, 4, 3), dtype=np.float64),
        np.zeros((4, 4, 3), dtype=np.uint16),
    ], ids=["2d", "rgba", "float", "uint16"])
    def test_pack_array_refuses_anything_but_rgb_bytes(self, array):
        with pytest.raises(GraphicsError, match="expected"):
            RGB888.pack_array(array)

    def test_unpack_refuses_big_endian_pixels(self):
        with pytest.raises(GraphicsError):
            RGB888.unpack(np.zeros((2, 2), dtype=">u4"))

    def test_unpack_wrong_size(self):
        with pytest.raises(GraphicsError):
            RGB888.unpack(np.zeros(10, dtype=RGB888.dtype))
        with pytest.raises(GraphicsError):  # 16-bit pixels
            RGB888.unpack(np.zeros((2, 2), dtype=np.uint16))

    def test_pack_array_accepts_non_contiguous_view(self):
        rng = np.random.default_rng(5)
        rgb = rng.integers(0, 256, size=(12, 12, 3), dtype=np.uint8)
        view = rgb[2:9, 3:11]
        assert not view.flags.c_contiguous
        assert np.array_equal(RGB888.pack_array(view),
                              RGB888.pack_array(view.copy()))


class TestFont:
    def test_measure(self):
        font = default_font(1)
        w, h = font.measure("AB")
        assert h == 7
        assert w == 11  # 5 + 1 + 5

    def test_measure_empty(self):
        assert default_font(1).measure("")[0] == 0

    def test_draw_marks_pixels(self):
        font = default_font(1)
        bmp = Bitmap(20, 10)
        dirty = font.draw(bmp, 1, 1, "I", (255, 255, 255))
        assert not dirty.is_empty
        # 'I' has a vertical bar through the middle column
        assert bmp.get_pixel(3, 4) == (255, 255, 255)

    def test_scale_doubles_metrics(self):
        assert default_font(2).glyph_height == 14
        assert default_font(2).measure("A")[0] == 10

    def test_render_minimal_bitmap(self):
        img = default_font(1).render("Hi", (0, 0, 0), (255, 255, 255))
        assert img.size == default_font(1).measure("Hi")

    def test_unknown_glyph_uses_replacement(self):
        img = default_font(1).render("é", (255, 255, 255))
        # replacement glyph is a box: corners set
        assert img.get_pixel(0, 0) == (255, 255, 255)
        assert img.get_pixel(4, 6) == (255, 255, 255)

    def test_clipping_draw_offscreen(self):
        font = default_font(1)
        bmp = Bitmap(4, 4)
        dirty = font.draw(bmp, -3, -3, "W", (1, 1, 1))
        assert bmp.bounds.contains_rect(dirty)

    def test_bad_scale(self):
        from repro.graphics.font import Font
        with pytest.raises(GraphicsError):
            Font(scale=0)

    def test_negative_tracking(self):
        from repro.graphics.font import Font
        with pytest.raises(GraphicsError, match="tracking"):
            Font(tracking=-1)


class TestOps:
    def _gradient(self, w=16, h=12):
        bmp = Bitmap(w, h)
        ramp = np.linspace(0, 255, w, dtype=np.uint8)
        bmp.pixels[:] = ramp[None, :, None]
        return bmp

    def test_scale_box_dimensions(self):
        out = ops.scale_box(self._gradient(), 4, 3)
        assert out.size == (4, 3)

    def test_scale_box_preserves_mean(self):
        src = self._gradient(32, 32)
        out = ops.scale_box(src, 8, 8)
        assert abs(float(out.pixels.mean()) - float(src.pixels.mean())) < 2.0

    def test_scale_box_upscale(self):
        out = ops.scale_box(self._gradient(4, 4), 8, 8)
        assert out.size == (8, 8)

    def test_bad_scale_target(self):
        with pytest.raises(GraphicsError):
            ops.scale_box(self._gradient(), 5, 0)

    def test_grayscale_range(self):
        gray = ops.to_grayscale(self._gradient())
        assert gray.min() >= 0.0
        assert gray.max() <= 255.0

    def test_grayscale_weights(self):
        green = Bitmap(2, 2, fill=(0, 255, 0))
        blue = Bitmap(2, 2, fill=(0, 0, 255))
        assert ops.to_grayscale(green).mean() > ops.to_grayscale(blue).mean()

    def test_quantize_levels(self):
        gray = np.linspace(0, 255, 100).reshape(10, 10)
        q = ops.quantize_levels(gray, 4)
        assert set(np.round(np.unique(q), 3)) <= {0.0, 85.0, 170.0, 255.0}

    def test_quantize_needs_two_levels(self):
        with pytest.raises(GraphicsError):
            ops.quantize_levels(np.zeros((2, 2)), 1)

    @pytest.mark.parametrize("dither", [ops.ordered_dither,
                                        ops.floyd_steinberg])
    def test_dither_output_levels(self, dither):
        gray = np.full((16, 16), 128.0)
        out = dither(gray, levels=2)
        assert set(np.unique(out)) <= {0.0, 255.0}

    @pytest.mark.parametrize("dither", [ops.ordered_dither,
                                        ops.floyd_steinberg])
    def test_dither_preserves_mean_gray(self, dither):
        gray = np.full((32, 32), 100.0)
        out = dither(gray, levels=2)
        assert abs(out.mean() - 100.0) < 16.0

    def test_floyd_steinberg_beats_quantize_on_gradient(self):
        gray = np.tile(np.linspace(0, 255, 64), (16, 1))
        fs = ops.floyd_steinberg(gray, levels=2)
        hard = ops.quantize_levels(gray, 2)
        # local 8x8 block means: dithering tracks the gradient better
        def block_err(img):
            total = 0.0
            for bx in range(0, 64, 8):
                total += abs(img[:, bx:bx + 8].mean()
                             - gray[:, bx:bx + 8].mean())
            return total
        assert block_err(fs) < block_err(hard)

    def test_pack_unpack_mono(self):
        gray = np.asarray([[0.0, 255.0, 0.0, 255.0, 255.0]] * 3)
        packed = ops.pack_mono(gray)
        assert len(packed) == 3  # 5 bits -> 1 byte per row
        out = ops.unpack_mono(packed, 5, 3)
        assert np.array_equal(out, gray)

    def test_pack_unpack_gray4(self):
        gray = np.asarray([[0.0, 85.0, 170.0, 255.0, 85.0]] * 2)
        packed = ops.pack_gray4(gray)
        assert len(packed) == 2 * 2  # ceil(5/4)=2 bytes per row
        out = ops.unpack_gray4(packed, 5, 2)
        assert np.array_equal(out, gray)

    def test_unpack_gray4_wrong_size(self):
        with pytest.raises(GraphicsError, match="gray4 buffer"):
            ops.unpack_gray4(b"\x00", 5, 2)

    def test_unpack_mono_wrong_size(self):
        with pytest.raises(GraphicsError):
            ops.unpack_mono(b"\x00", 16, 2)

    def test_gray_bitmap_roundtrip(self):
        gray = np.full((3, 3), 85.0)
        bmp = ops.gray_bitmap(gray)
        assert bmp.get_pixel(1, 1) == (85, 85, 85)


def integral_scale_box(bitmap, width, height):
    """The float64 integral-image box filter ``ops.scale_box`` replaced.

    Kept here as the oracle: its sums are exact in float64, so the integer
    rewrite must reproduce it byte for byte.
    """
    src = bitmap.pixels.astype(np.float64)
    sh, sw = src.shape[:2]
    y_edges = np.linspace(0, sh, height + 1)
    x_edges = np.linspace(0, sw, width + 1)
    integral = np.zeros((sh + 1, sw + 1, 3), dtype=np.float64)
    integral[1:, 1:] = src.cumsum(axis=0).cumsum(axis=1)
    y0s = np.floor(y_edges[:-1]).astype(int)
    y1s = np.maximum(np.ceil(y_edges[1:]).astype(int), y0s + 1)
    x0s = np.floor(x_edges[:-1]).astype(int)
    x1s = np.maximum(np.ceil(x_edges[1:]).astype(int), x0s + 1)
    sums = (integral[np.ix_(y1s, x1s)] - integral[np.ix_(y0s, x1s)]
            - integral[np.ix_(y1s, x0s)] + integral[np.ix_(y0s, x0s)])
    areas = ((y1s - y0s)[:, None] * (x1s - x0s)[None, :]).astype(np.float64)
    out = sums / areas[..., None]
    return Bitmap.from_array(np.clip(np.rint(out), 0, 255).astype(np.uint8))


def _noise(rng, width, height):
    return Bitmap.from_array(
        rng.integers(0, 256, (height, width, 3), dtype=np.uint8))


def _random_rect(rng, width, height):
    x, y = int(rng.integers(0, width)), int(rng.integers(0, height))
    return Rect(x, y, int(rng.integers(1, width - x + 1)),
                int(rng.integers(1, height - y + 1)))


class TestScaleBoxParity:
    SHAPES = [(1, 1, 1, 1), (1, 1, 7, 5), (9, 1, 1, 1), (1, 13, 1, 4),
              (480, 360, 320, 240), (480, 360, 128, 96), (3, 2, 17, 11),
              (64, 48, 64, 48), (101, 37, 1, 1), (37, 101, 200, 3)]

    @pytest.mark.parametrize("sw,sh,tw,th", SHAPES)
    def test_pinned_shapes_match_the_integral_image(self, sw, sh, tw, th):
        src = _noise(np.random.default_rng(sw * 1000 + th), sw, sh)
        assert ops.scale_box(src, tw, th) == integral_scale_box(src, tw, th)

    def test_random_shapes_match_the_integral_image(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            sw, sh, tw, th = (int(v) for v in rng.integers(1, 160, 4))
            src = _noise(rng, sw, sh)
            assert ops.scale_box(src, tw, th) == integral_scale_box(
                src, tw, th), (sw, sh, tw, th)

    def test_partial_updates_match_a_full_rescale(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            sw, sh, tw, th = (int(v) for v in rng.integers(1, 120, 4))
            src = _noise(rng, sw, sh)
            out = ops.scale_box(src, tw, th)
            for _ in range(4):
                rect = _random_rect(rng, sw, sh)
                src.view(rect)[:] = rng.integers(
                    0, 256, (rect.h, rect.w, 3), dtype=np.uint8)
                assert ops.scale_box(src, tw, th, out=out, dirty=rect) is out
                assert out == integral_scale_box(src, tw, th), (
                    sw, sh, tw, th, rect)

    def test_dirty_recomputes_only_the_boxes_it_meets(self):
        src = _noise(np.random.default_rng(16), 48, 36)
        out = ops.scale_box(src, 32, 24)
        stale = out.copy()
        src.fill((7, 7, 7))  # everything changes; dirty claims one pixel
        # source column 31 lies in the boxes [30, 32) and [31, 33) of
        # output columns 20 and 21; row 16 likewise in output rows 10, 11
        ops.scale_box(src, 32, 24, out=out, dirty=Rect(31, 16, 1, 1))
        changed = np.argwhere((out.pixels != stale.pixels).any(axis=2))
        assert {(int(y), int(x)) for y, x in changed} == {
            (10, 20), (10, 21), (11, 20), (11, 21)}

    @pytest.mark.parametrize("dirty", [Rect(0, 0, 0, 0), Rect(5, 5, 0, 3),
                                       Rect(48, 0, 10, 10),
                                       Rect(-20, -20, 20, 20),
                                       Rect(0, 36, 48, 4)])
    def test_empty_or_outside_dirty_leaves_out_untouched(self, dirty):
        src = _noise(np.random.default_rng(17), 48, 36)
        out = ops.scale_box(src, 32, 24)
        before = out.copy()
        src.fill((1, 2, 3))
        assert ops.scale_box(src, 32, 24, out=out, dirty=dirty) is out
        assert out == before

    def test_out_must_match_the_target(self):
        src = _noise(np.random.default_rng(18), 48, 36)
        with pytest.raises(GraphicsError):
            ops.scale_box(src, 32, 24, out=Bitmap(24, 32))
