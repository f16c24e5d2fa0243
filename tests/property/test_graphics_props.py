"""Property-based tests for the graphics substrate invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphics import RGB888, Rect, Region
from repro.graphics import ops

rect_strategy = st.builds(
    Rect,
    x=st.integers(-50, 50),
    y=st.integers(-50, 50),
    w=st.integers(0, 60),
    h=st.integers(0, 60),
)

small_rect = st.builds(
    Rect,
    x=st.integers(0, 30),
    y=st.integers(0, 30),
    w=st.integers(0, 20),
    h=st.integers(0, 20),
)


class TestRectProperties:
    @given(rect_strategy, rect_strategy)
    def test_intersection_commutes(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(rect_strategy, rect_strategy)
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersect(b)
        if not inter.is_empty:
            assert a.contains_rect(inter)
            assert b.contains_rect(inter)

    @given(rect_strategy)
    def test_self_intersection_identity(self, r):
        if not r.is_empty:
            assert r.intersect(r) == r

    @given(rect_strategy, rect_strategy)
    def test_union_bounds_contains_both(self, a, b):
        u = a.union_bounds(b)
        assert u.contains_rect(a)
        assert u.contains_rect(b)

    @given(rect_strategy, rect_strategy)
    def test_subtract_area_conservation(self, a, b):
        pieces = a.subtract(b)
        overlap = a.intersect(b).area
        assert sum(p.area for p in pieces) == a.area - overlap

    @given(rect_strategy, rect_strategy)
    def test_subtract_pieces_disjoint_from_other(self, a, b):
        for piece in a.subtract(b):
            assert piece.intersect(b).is_empty
            assert a.contains_rect(piece)


class TestRegionProperties:
    @given(st.lists(small_rect, max_size=8))
    def test_rects_always_disjoint(self, rects):
        region = Region(rects)
        stored = region.rects()
        for i, a in enumerate(stored):
            for b in stored[i + 1:]:
                assert not a.intersects(b)

    @given(st.lists(small_rect, max_size=8))
    def test_membership_matches_union(self, rects):
        region = Region(rects)
        # sample a grid of points and compare membership
        for px in range(0, 51, 7):
            for py in range(0, 51, 7):
                expected = any(r.contains_point(px, py) for r in rects)
                assert region.contains_point(px, py) == expected

    @given(st.lists(small_rect, max_size=8))
    def test_area_never_exceeds_sum(self, rects):
        region = Region(rects)
        assert region.area <= sum(r.area for r in rects)

    @given(st.lists(small_rect, max_size=6), small_rect)
    def test_add_is_idempotent(self, rects, extra):
        region = Region(rects)
        region.add(extra)
        area_once = region.area
        region.add(extra)
        assert region.area == area_once

    @given(st.lists(small_rect, max_size=6), small_rect)
    def test_subtract_removes_membership(self, rects, hole):
        region = Region(rects)
        region.subtract(hole)
        for px in range(0, 51, 9):
            for py in range(0, 51, 9):
                if hole.contains_point(px, py):
                    assert not region.contains_point(px, py)


class TestCoalesceProperties:
    @given(st.lists(small_rect, max_size=10))
    def test_coalesced_covers_exactly_the_same_pixels(self, rects):
        """The coalesced cover is pixel-for-pixel the raw rect list union."""
        region = Region(rects)
        coalesced = region.coalesced()
        for px in range(0, 51, 3):
            for py in range(0, 51, 3):
                expected = any(r.contains_point(px, py) for r in rects)
                got = any(c.contains_point(px, py) for c in coalesced)
                assert got == expected

    @given(st.lists(small_rect, max_size=10))
    def test_coalesced_is_disjoint_and_area_preserving(self, rects):
        region = Region(rects)
        coalesced = region.coalesced()
        assert sum(c.area for c in coalesced) == region.area
        for i, a in enumerate(coalesced):
            for b in coalesced[i + 1:]:
                assert not a.intersects(b)

    @given(st.lists(small_rect, max_size=10))
    def test_coalesced_never_more_fragmented(self, rects):
        region = Region(rects)
        assert len(region.coalesced()) <= max(len(region.rects()), 0)

    @given(st.lists(small_rect, max_size=10), st.integers(1, 6))
    def test_capped_cover_is_superset_within_cap(self, rects, cap):
        """With a cap: never more than cap rects, never a lost pixel."""
        region = Region(rects)
        capped = region.coalesced(cap)
        assert len(capped) <= cap
        for i, a in enumerate(capped):
            for b in capped[i + 1:]:
                assert not a.intersects(b)
        for px in range(0, 51, 3):
            for py in range(0, 51, 3):
                if region.contains_point(px, py):
                    assert any(c.contains_point(px, py) for c in capped)


rgb_arrays = st.integers(1, 12).flatmap(
    lambda w: st.integers(1, 12).map(
        lambda h: np.random.default_rng(w * 100 + h).integers(
            0, 256, size=(h, w, 3), dtype=np.uint8
        )
    )
)


class TestPixelFormatProperties:
    @given(rgb_arrays)
    @settings(max_examples=40)
    def test_rgb888_roundtrip_exact(self, rgb):
        out = RGB888.unpack(RGB888.pack_array(rgb))
        assert np.array_equal(out, rgb)


gray_arrays = st.integers(1, 16).flatmap(
    lambda w: st.integers(1, 16).map(
        lambda h: np.random.default_rng(w * 31 + h).uniform(
            0, 255, size=(h, w)
        )
    )
)


class TestDitherProperties:
    @given(gray_arrays, st.integers(2, 8))
    @settings(max_examples=30)
    def test_ordered_dither_levels(self, gray, levels):
        out = ops.ordered_dither(gray, levels)
        allowed = {round(i * 255.0 / (levels - 1), 6) for i in range(levels)}
        assert {round(v, 6) for v in np.unique(out)} <= allowed

    @given(gray_arrays, st.integers(2, 8))
    @settings(max_examples=30)
    def test_floyd_steinberg_levels(self, gray, levels):
        out = ops.floyd_steinberg(gray, levels)
        allowed = {round(i * 255.0 / (levels - 1), 6) for i in range(levels)}
        assert {round(v, 6) for v in np.unique(out)} <= allowed

    @given(gray_arrays)
    @settings(max_examples=30)
    def test_mono_pack_roundtrip(self, gray):
        hard = np.where(gray > 127.5, 255.0, 0.0)
        out = ops.unpack_mono(ops.pack_mono(gray), gray.shape[1],
                              gray.shape[0])
        assert np.array_equal(out, hard)

    @given(gray_arrays)
    @settings(max_examples=30)
    def test_gray4_pack_roundtrip(self, gray):
        quantised = np.clip(np.rint(gray / 85.0), 0, 3) * 85.0
        out = ops.unpack_gray4(ops.pack_gray4(gray), gray.shape[1],
                               gray.shape[0])
        assert np.array_equal(out, quantised)
