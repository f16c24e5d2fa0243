"""Unit tests for rectangle and region algebra."""

import pytest

from repro.graphics import Rect, Region


class TestRect:
    def test_edges_and_area(self):
        r = Rect(2, 3, 4, 5)
        assert (r.x2, r.y2, r.area) == (6, 8, 20)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, -1, 5)

    def test_empty(self):
        assert Rect(1, 1, 0, 5).is_empty
        assert not Rect(0, 0, 1, 1).is_empty

    def test_contains_point(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains_point(0, 0)
        assert r.contains_point(9, 9)
        assert not r.contains_point(10, 10)
        assert not r.contains_point(-1, 0)

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(2, 2, 3, 3))
        assert outer.contains_rect(outer)
        assert not outer.contains_rect(Rect(5, 5, 10, 10))
        assert outer.contains_rect(Rect(100, 100, 0, 0))  # empty fits anywhere

    def test_intersect(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(5, 5, 10, 10)
        assert a.intersect(b) == Rect(5, 5, 5, 5)

    def test_intersect_disjoint_is_empty(self):
        assert Rect(0, 0, 5, 5).intersect(Rect(10, 10, 5, 5)).is_empty

    def test_intersect_touching_is_empty(self):
        assert Rect(0, 0, 5, 5).intersect(Rect(5, 0, 5, 5)).is_empty

    def test_union_bounds(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(8, 8, 2, 2)
        assert a.union_bounds(b) == Rect(0, 0, 10, 10)

    def test_union_bounds_with_empty(self):
        a = Rect(3, 3, 2, 2)
        assert a.union_bounds(Rect(0, 0, 0, 0)) == a
        assert Rect(0, 0, 0, 0).union_bounds(a) == a

    def test_subtract_no_overlap(self):
        a = Rect(0, 0, 5, 5)
        assert a.subtract(Rect(10, 10, 2, 2)) == [a]

    def test_subtract_full_cover(self):
        assert Rect(2, 2, 3, 3).subtract(Rect(0, 0, 10, 10)) == []

    def test_subtract_center_hole(self):
        pieces = Rect(0, 0, 10, 10).subtract(Rect(4, 4, 2, 2))
        assert sum(p.area for p in pieces) == 100 - 4
        # pieces are disjoint
        for i, p in enumerate(pieces):
            for q in pieces[i + 1:]:
                assert not p.intersects(q)

    def test_translate(self):
        assert Rect(1, 2, 3, 4).translate(10, 20) == Rect(11, 22, 3, 4)

    def test_inset(self):
        assert Rect(0, 0, 10, 10).inset(2) == Rect(2, 2, 6, 6)
        assert Rect(0, 0, 3, 3).inset(2).is_empty

    def test_center(self):
        assert Rect(0, 0, 10, 10).center == (5, 5)

    # -- the value-type behaviour callers rely on ---------------------------

    @pytest.mark.parametrize("w,h", [(-1, 5), (5, -1), (-2, -2)])
    def test_any_negative_size_raises_value_error(self, w, h):
        with pytest.raises(ValueError, match="negative rect size"):
            Rect(0, 0, w, h)

    @pytest.mark.parametrize("field", ["x", "y", "w", "h"])
    def test_fields_cannot_be_assigned(self, field):
        rect = Rect(1, 2, 3, 4)
        with pytest.raises(AttributeError):
            setattr(rect, field, 9)
        with pytest.raises(AttributeError):
            rect.color = (1, 2, 3)
        assert rect == Rect(1, 2, 3, 4)

    def test_equal_rects_hash_equal(self):
        a, b = Rect(1, 2, 3, 4), Rect(1, 2, 3, 4)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert {a: "damage"}[b] == "damage"
        assert len({a, b, Rect(1, 2, 3, 5)}) == 2
        assert Rect(1, 2, 3, 4) != Rect(2, 1, 3, 4)

    def test_rects_sort_by_x_then_y_then_w_then_h(self):
        rects = [Rect(2, 0, 1, 1), Rect(1, 5, 1, 1), Rect(1, 2, 9, 1),
                 Rect(1, 2, 3, 7), Rect(1, 2, 3, 4)]
        assert sorted(rects) == [Rect(1, 2, 3, 4), Rect(1, 2, 3, 7),
                                 Rect(1, 2, 9, 1), Rect(1, 5, 1, 1),
                                 Rect(2, 0, 1, 1)]
        assert Rect(1, 2, 3, 4) < Rect(1, 2, 3, 5)
        assert max(rects) == Rect(2, 0, 1, 1)

    def test_repr_names_every_field(self):
        assert repr(Rect(1, -2, 3, 0)) == "Rect(x=1, y=-2, w=3, h=0)"
        assert str(Rect(0, 0, 0, 0)) == "Rect(x=0, y=0, w=0, h=0)"


class TestRegion:
    def test_empty_region(self):
        region = Region()
        assert region.is_empty
        assert region.area == 0
        assert region.bounds().is_empty

    def test_single_rect(self):
        region = Region([Rect(1, 1, 4, 4)])
        assert region.area == 16
        assert region.bounds() == Rect(1, 1, 4, 4)

    def test_disjoint_rects_area_adds(self):
        region = Region([Rect(0, 0, 2, 2), Rect(10, 10, 3, 3)])
        assert region.area == 4 + 9

    def test_overlapping_rects_not_double_counted(self):
        region = Region([Rect(0, 0, 4, 4), Rect(2, 2, 4, 4)])
        assert region.area == 16 + 16 - 4

    def test_identical_rects_counted_once(self):
        region = Region([Rect(0, 0, 5, 5), Rect(0, 0, 5, 5)])
        assert region.area == 25

    def test_contained_rect_is_absorbed(self):
        region = Region([Rect(0, 0, 10, 10)])
        region.add(Rect(2, 2, 3, 3))
        assert region.area == 100
        assert len(region) == 1

    def test_stored_rects_are_disjoint(self):
        region = Region()
        for rect in [Rect(0, 0, 6, 6), Rect(3, 3, 6, 6), Rect(1, 4, 10, 2)]:
            region.add(rect)
        rects = region.rects()
        for i, a in enumerate(rects):
            for b in rects[i + 1:]:
                assert not a.intersects(b)

    def test_contains_point(self):
        region = Region([Rect(0, 0, 2, 2), Rect(5, 5, 2, 2)])
        assert region.contains_point(1, 1)
        assert region.contains_point(6, 6)
        assert not region.contains_point(3, 3)

    def test_subtract(self):
        region = Region([Rect(0, 0, 10, 10)])
        region.subtract(Rect(0, 0, 5, 10))
        assert region.area == 50
        assert not region.contains_point(2, 2)
        assert region.contains_point(7, 2)

    def test_copy_is_independent(self):
        region = Region([Rect(0, 0, 5, 5)])
        clone = region.copy()
        clone.add(Rect(10, 10, 5, 5))
        assert region.area == 25
        assert clone.area == 50

    def test_adding_empty_rect_is_noop(self):
        region = Region()
        region.add(Rect(5, 5, 0, 0))
        assert region.is_empty

    def test_iteration_is_deterministic(self):
        region = Region([Rect(4, 0, 2, 2), Rect(0, 0, 2, 2), Rect(2, 4, 2, 2)])
        assert list(region) == sorted(region.rects())

    def test_from_disjoint_skips_add_splitting(self):
        region = Region.from_disjoint([Rect(0, 0, 2, 2), Rect(5, 5, 2, 2),
                                       Rect(3, 3, 0, 0)])
        assert len(region) == 2  # empty rect dropped
        assert region.area == 8


class TestCoalesce:
    def test_empty_region(self):
        assert Region().coalesced() == []
        assert Region().coalesced(cap=1) == []

    def test_single_rect_unchanged(self):
        region = Region([Rect(3, 4, 5, 6)])
        assert region.coalesced() == [Rect(3, 4, 5, 6)]

    def test_adjacent_rows_fuse_to_one(self):
        region = Region()
        for y in range(50):
            region.add(Rect(0, y, 40, 1))
        assert len(region.rects()) == 50
        assert region.coalesced() == [Rect(0, 0, 40, 50)]

    def test_adjacent_columns_fuse_to_one(self):
        region = Region()
        for x in range(30):
            region.add(Rect(x, 0, 1, 20))
        assert region.coalesced() == [Rect(0, 0, 30, 20)]

    def test_overlapping_adds_fuse_back(self):
        # the classic fragmentation case: a rect added over another splits
        # into disjoint pieces that coalesce straight back
        region = Region([Rect(0, 0, 10, 10), Rect(5, 0, 10, 10)])
        assert region.coalesced() == [Rect(0, 0, 15, 10)]

    def test_disjoint_islands_stay_separate(self):
        rects = [Rect(0, 0, 2, 2), Rect(10, 10, 2, 2)]
        region = Region(rects)
        assert region.coalesced() == rects

    def test_exact_cover_preserves_area(self):
        region = Region([Rect(0, 0, 6, 6), Rect(3, 3, 6, 6), Rect(1, 4, 10, 2)])
        coalesced = region.coalesced()
        assert sum(r.area for r in coalesced) == region.area
        for i, a in enumerate(coalesced):
            for b in coalesced[i + 1:]:
                assert not a.intersects(b)

    def test_cap_bounds_rect_count(self):
        region = Region([Rect(i * 3, i * 3, 2, 2) for i in range(10)])
        capped = region.coalesced(cap=3)
        assert len(capped) <= 3
        # capped cover may grow but never loses pixels
        for rect in region.rects():
            assert any(c.contains_rect(rect) or c.intersects(rect)
                       for c in capped)
        covered = Region(capped)
        for rect in region.rects():
            covered.subtract(rect)
        assert covered.area == sum(c.area for c in capped) - region.area

    def test_cap_one_gives_bounds(self):
        region = Region([Rect(0, 0, 2, 2), Rect(8, 8, 2, 2)])
        assert region.coalesced(cap=1) == [region.bounds()]

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            Region([Rect(0, 0, 1, 1)]).coalesced(cap=0)
