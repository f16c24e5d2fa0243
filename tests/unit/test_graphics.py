"""Unit tests for bitmaps, pixel formats, drawing, fonts and image ops."""

import numpy as np
import pytest

from repro.graphics import (
    RGB332,
    RGB565,
    RGB888,
    Bitmap,
    PixelFormat,
    Rect,
    default_font,
    draw,
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

    def test_set_get_pixel(self):
        bmp = Bitmap(4, 4)
        bmp.set_pixel(2, 1, (1, 2, 3))
        assert bmp.get_pixel(2, 1) == (1, 2, 3)

    def test_pixel_out_of_bounds(self):
        bmp = Bitmap(4, 4)
        with pytest.raises(GraphicsError):
            bmp.get_pixel(4, 0)
        with pytest.raises(GraphicsError):
            bmp.set_pixel(0, -1, (0, 0, 0))

    def test_fill_rect_clips(self):
        bmp = Bitmap(4, 4, fill=(0, 0, 0))
        bmp.fill_rect(Rect(2, 2, 10, 10), (255, 0, 0))
        assert bmp.get_pixel(3, 3) == (255, 0, 0)
        assert bmp.get_pixel(1, 1) == (0, 0, 0)

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

    def test_copy_rect(self):
        bmp = Bitmap(10, 10)
        bmp.fill_rect(Rect(0, 0, 2, 2), (7, 7, 7))
        bmp.copy_rect(Rect(0, 0, 2, 2), 5, 5)
        assert bmp.get_pixel(5, 5) == (7, 7, 7)
        assert bmp.get_pixel(0, 0) == (7, 7, 7)

    def test_copy_rect_overlapping(self):
        bmp = Bitmap(10, 1)
        for x in range(10):
            bmp.set_pixel(x, 0, (x * 10, 0, 0))
        bmp.copy_rect(Rect(0, 0, 5, 1), 2, 0)  # overlapping shift right
        assert bmp.get_pixel(2, 0) == (0, 0, 0)
        assert bmp.get_pixel(6, 0) == (40, 0, 0)

    def test_copy_rect_clipped_source_keeps_alignment(self):
        """Regression: a source clipped at the bitmap edge must shift the
        destination by the clip offset, not paste at the raw (dst_x, dst_y)."""
        bmp = Bitmap(10, 4)
        bmp.fill_rect(Rect(0, 0, 1, 4), (255, 0, 0))  # red column at x=0
        dirty = bmp.copy_rect(Rect(-2, 0, 4, 4), 5, 0)
        # src clips to x in [0, 2); those pixels sat 2 to the right of the
        # src origin, so they must land 2 to the right of dst_x as well
        assert dirty == Rect(7, 0, 2, 4)
        assert bmp.get_pixel(7, 0) == (255, 0, 0)
        assert bmp.get_pixel(5, 0) == (0, 0, 0)

    def test_copy_rect_clipped_source_top(self):
        bmp = Bitmap(4, 10)
        bmp.fill_rect(Rect(0, 0, 4, 1), (0, 255, 0))  # green row at y=0
        dirty = bmp.copy_rect(Rect(0, -3, 4, 4), 0, 5)
        assert dirty == Rect(0, 8, 4, 1)
        assert bmp.get_pixel(0, 8) == (0, 255, 0)
        assert bmp.get_pixel(0, 5) == (0, 0, 0)

    def test_equality(self):
        a = Bitmap(3, 3, fill=(1, 2, 3))
        b = Bitmap(3, 3, fill=(1, 2, 3))
        assert a == b
        b.set_pixel(0, 0, (0, 0, 0))
        assert a != b

    def test_diff_rect(self):
        a = Bitmap(10, 10)
        b = a.copy()
        assert a.diff_rect(b).is_empty
        b.set_pixel(3, 4, (1, 1, 1))
        b.set_pixel(6, 8, (1, 1, 1))
        assert a.diff_rect(b) == Rect(3, 4, 4, 5)

    def test_diff_rect_size_mismatch(self):
        with pytest.raises(GraphicsError):
            Bitmap(2, 2).diff_rect(Bitmap(3, 3))

    def test_ppm_roundtrip(self):
        bmp = Bitmap(7, 5)
        bmp.fill_rect(Rect(1, 1, 3, 2), (200, 100, 50))
        again = Bitmap.from_ppm(bmp.to_ppm())
        assert again == bmp

    def test_ppm_with_comment(self):
        bmp = Bitmap(2, 2, fill=(1, 2, 3))
        data = bmp.to_ppm().replace(b"P6\n", b"P6\n# a comment\n", 1)
        assert Bitmap.from_ppm(data) == bmp

    def test_ppm_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "shot.ppm")
        bmp = Bitmap(4, 4, fill=(9, 8, 7))
        bmp.save_ppm(path)
        assert Bitmap.load_ppm(path) == bmp

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

    def test_from_array_copies_contiguous_view(self):
        base = np.zeros((8, 8, 3), dtype=np.uint8)
        view = base[2:6, :]  # contiguous but shares base storage
        bmp = Bitmap.from_array(view)
        base[3, 0] = 44
        assert bmp.get_pixel(0, 1) == (0, 0, 0)


class TestPixelFormat:
    @pytest.mark.parametrize("fmt", [RGB888, RGB565, RGB332])
    def test_pack_size(self, fmt):
        bmp = Bitmap(8, 4, fill=(100, 150, 200))
        assert len(fmt.pack(bmp.pixels)) == 8 * 4 * fmt.bytes_per_pixel

    def test_rgb888_lossless(self):
        rng = np.random.default_rng(1)
        rgb = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        out = RGB888.unpack(RGB888.pack(rgb), 7, 5)
        assert np.array_equal(out, rgb)

    @pytest.mark.parametrize("fmt", [RGB565, RGB332])
    def test_lossy_roundtrip_is_idempotent(self, fmt):
        rng = np.random.default_rng(2)
        rgb = rng.integers(0, 256, size=(6, 6, 3), dtype=np.uint8)
        once = fmt.quantise(rgb)
        twice = fmt.quantise(once)
        assert np.array_equal(once, twice)

    def test_extremes_preserved(self):
        black = np.zeros((1, 1, 3), dtype=np.uint8)
        white = np.full((1, 1, 3), 255, dtype=np.uint8)
        for fmt in (RGB888, RGB565, RGB332):
            assert np.array_equal(fmt.quantise(black), black)
            assert np.array_equal(fmt.quantise(white), white)

    def test_wire_encode_decode(self):
        for fmt in (RGB888, RGB565, RGB332):
            assert PixelFormat.decode(fmt.encode()) == fmt

    def test_decode_wrong_length(self):
        with pytest.raises(GraphicsError):
            PixelFormat.decode(b"short")

    def test_invalid_max_rejected(self):
        with pytest.raises(GraphicsError):
            PixelFormat(16, 16, False, 30, 63, 31, 11, 5, 0)

    def test_invalid_bpp_rejected(self):
        with pytest.raises(GraphicsError):
            PixelFormat(24, 24, False, 255, 255, 255, 16, 8, 0)

    def test_unpack_wrong_size(self):
        with pytest.raises(GraphicsError):
            RGB888.unpack(b"\x00" * 10, 2, 2)

    @pytest.mark.parametrize("fmt", [RGB888, RGB565, RGB332])
    def test_pack_array_accepts_non_contiguous_view(self, fmt):
        rng = np.random.default_rng(5)
        rgb = rng.integers(0, 256, size=(12, 12, 3), dtype=np.uint8)
        view = rgb[2:9, 3:11]
        assert not view.flags.c_contiguous
        assert np.array_equal(fmt.pack_array(view),
                              fmt.pack_array(view.copy()))

    @pytest.mark.parametrize("fmt", [RGB888, RGB565, RGB332])
    def test_pack_array_out_buffer(self, fmt):
        rng = np.random.default_rng(6)
        rgb = rng.integers(0, 256, size=(6, 9, 3), dtype=np.uint8)
        out = np.empty((6, 9), dtype=fmt.dtype)
        result = fmt.pack_array(rgb, out=out)
        assert result is out  # reused, not reallocated
        assert np.array_equal(out, fmt.pack_array(rgb))

    def test_pack_array_out_mismatch_rejected(self):
        rgb = np.zeros((4, 4, 3), dtype=np.uint8)
        with pytest.raises(GraphicsError):
            RGB888.pack_array(rgb, out=np.empty((3, 3), dtype=RGB888.dtype))
        with pytest.raises(GraphicsError):
            RGB888.pack_array(rgb, out=np.empty((4, 4), dtype=RGB565.dtype))


class TestDraw:
    def test_hline_vline(self):
        bmp = Bitmap(10, 10)
        draw.hline(bmp, 1, 2, 5, (255, 0, 0))
        draw.vline(bmp, 3, 0, 4, (0, 255, 0))
        assert bmp.get_pixel(5, 2) == (255, 0, 0)
        assert bmp.get_pixel(3, 3) == (0, 255, 0)

    def test_line_diagonal(self):
        bmp = Bitmap(10, 10)
        draw.line(bmp, 0, 0, 9, 9, (9, 9, 9))
        for i in range(10):
            assert bmp.get_pixel(i, i) == (9, 9, 9)

    def test_line_clips(self):
        bmp = Bitmap(5, 5)
        draw.line(bmp, -5, 2, 10, 2, (1, 1, 1))  # no exception
        assert bmp.get_pixel(0, 2) == (1, 1, 1)
        assert bmp.get_pixel(4, 2) == (1, 1, 1)

    def test_rect_outline(self):
        bmp = Bitmap(10, 10)
        draw.rect_outline(bmp, Rect(1, 1, 5, 5), (2, 2, 2))
        assert bmp.get_pixel(1, 1) == (2, 2, 2)
        assert bmp.get_pixel(5, 5) == (2, 2, 2)
        assert bmp.get_pixel(3, 3) == (0, 0, 0)

    def test_bevel_box(self):
        bmp = Bitmap(10, 10)
        draw.bevel_box(bmp, Rect(0, 0, 10, 10), face=(128, 128, 128),
                       light=(255, 255, 255), shadow=(64, 64, 64))
        assert bmp.get_pixel(0, 0) == (255, 255, 255)
        assert bmp.get_pixel(9, 9) == (64, 64, 64)
        assert bmp.get_pixel(5, 5) == (128, 128, 128)

    def test_bevel_box_sunken_swaps_edges(self):
        bmp = Bitmap(10, 10)
        draw.bevel_box(bmp, Rect(0, 0, 10, 10), face=(128, 128, 128),
                       light=(255, 255, 255), shadow=(64, 64, 64),
                       sunken=True)
        assert bmp.get_pixel(0, 0) == (64, 64, 64)
        assert bmp.get_pixel(9, 9) == (255, 255, 255)

    def test_circle_outline_radius(self):
        bmp = Bitmap(21, 21)
        draw.circle_outline(bmp, 10, 10, 8, (5, 5, 5))
        assert bmp.get_pixel(18, 10) == (5, 5, 5)
        assert bmp.get_pixel(10, 2) == (5, 5, 5)
        assert bmp.get_pixel(10, 10) == (0, 0, 0)

    def test_circle_fill(self):
        bmp = Bitmap(21, 21)
        draw.circle_fill(bmp, 10, 10, 5, (5, 5, 5))
        assert bmp.get_pixel(10, 10) == (5, 5, 5)
        assert bmp.get_pixel(10, 5) == (5, 5, 5)
        assert bmp.get_pixel(0, 0) == (0, 0, 0)

    def test_checkerboard(self):
        bmp = Bitmap(8, 8)
        draw.checkerboard(bmp, bmp.bounds, 2, (0, 0, 0), (255, 255, 255))
        assert bmp.get_pixel(0, 0) == (0, 0, 0)
        assert bmp.get_pixel(2, 0) == (255, 255, 255)
        assert bmp.get_pixel(2, 2) == (0, 0, 0)


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


class TestOps:
    def _gradient(self, w=16, h=12):
        bmp = Bitmap(w, h)
        ramp = np.linspace(0, 255, w, dtype=np.uint8)
        bmp.pixels[:] = ramp[None, :, None]
        return bmp

    def test_scale_nearest_dimensions(self):
        out = ops.scale_nearest(self._gradient(), 8, 6)
        assert out.size == (8, 6)

    def test_scale_nearest_identity(self):
        src = self._gradient()
        out = ops.scale_nearest(src, src.width, src.height)
        assert out == src

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

    def test_scale_to_fit_aspect(self):
        src = Bitmap(100, 50)
        out = ops.scale_to_fit(src, 40, 40)
        assert out.size == (40, 20)

    def test_scale_to_fit_never_upscales_identity(self):
        src = Bitmap(10, 10, fill=(3, 3, 3))
        out = ops.scale_to_fit(src, 100, 100)
        assert out.size == (100, 100)  # ratio 10 upscale allowed
        out2 = ops.scale_to_fit(src, 10, 10)
        assert out2 == src

    def test_bad_scale_target(self):
        with pytest.raises(GraphicsError):
            ops.scale_nearest(self._gradient(), 0, 5)
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

    def test_unpack_mono_wrong_size(self):
        with pytest.raises(GraphicsError):
            ops.unpack_mono(b"\x00", 16, 2)

    def test_mean_abs_error(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 10.0)
        assert ops.mean_abs_error(a, b) == 10.0
        with pytest.raises(GraphicsError):
            ops.mean_abs_error(a, np.zeros((2, 2)))

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
