"""Property tests for the tile-grid frame differ.

The safety property is *soundness*: whatever damage the differ drops must
be damage whose pixels a downstream consumer already has.  We model the
consumer explicitly — a mirror bitmap updated only from the differ's
refined rects — and require it to equal the framebuffer after every round.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphics import Bitmap, Rect, TileDiffer

W, H = 70, 52  # deliberately not multiples of 16


@st.composite
def damage_rounds(draw):
    """Rounds of (damage rect, mutation sub-rect or None) pairs.

    The mutation always lies inside its damage rect (the damage-tracking
    discipline); a ``None`` mutation models an unchanged redraw.
    """
    rounds = []
    for _ in range(draw(st.integers(1, 5))):
        rects = []
        for _ in range(draw(st.integers(1, 4))):
            x = draw(st.integers(0, W - 2))
            y = draw(st.integers(0, H - 2))
            w = draw(st.integers(1, W - x))
            h = draw(st.integers(1, H - y))
            damage = Rect(x, y, w, h)
            if draw(st.booleans()):
                mx = draw(st.integers(0, w - 1))
                my = draw(st.integers(0, h - 1))
                mutation = Rect(x + mx, y + my,
                                draw(st.integers(1, w - mx)),
                                draw(st.integers(1, h - my)))
                color = (draw(st.integers(0, 255)),
                         draw(st.integers(0, 255)),
                         draw(st.integers(0, 255)))
            else:
                mutation, color = None, None
            rects.append((damage, mutation, color))
        rounds.append(rects)
    return rounds


class TestDifferSoundness:
    @given(damage_rounds())
    @settings(max_examples=60, deadline=None)
    def test_refined_region_covers_every_changed_pixel(self, rounds):
        fb = Bitmap(W, H, fill=(7, 7, 7))
        differ = TileDiffer()
        differ.refine(fb, [fb.bounds])  # prime the shadow
        mirror = fb.copy()              # the modelled downstream consumer
        for rects in rounds:
            for damage, mutation, color in rects:
                if mutation is not None:
                    fb.fill_rect(mutation, color)
            refined = differ.refine(fb, [d for d, _, _ in rects])
            for rect in refined:
                mirror.blit(fb.crop(rect), rect.x, rect.y)
            # soundness: the mirror fed only refined rects tracks exactly
            assert mirror == fb

    @given(damage_rounds())
    @settings(max_examples=40, deadline=None)
    def test_refined_rects_stay_inside_reported_damage(self, rounds):
        fb = Bitmap(W, H, fill=(3, 3, 3))
        differ = TileDiffer()
        differ.refine(fb, [fb.bounds])
        for rects in rounds:
            for damage, mutation, color in rects:
                if mutation is not None:
                    fb.fill_rect(mutation, color)
            damage_rects = [d for d, _, _ in rects]
            for rect in differ.refine(fb, damage_rects):
                assert not rect.is_empty
                assert any(d.contains_rect(rect) for d in damage_rects)

    def test_unchanged_redraw_drops_everything(self):
        fb = Bitmap(W, H, fill=(50, 60, 70))
        differ = TileDiffer()
        differ.refine(fb, [fb.bounds])
        assert differ.refine(fb, [fb.bounds]) == []
        assert differ.tiles_dropped > 0

    def test_single_pixel_change_shrinks_to_one_tile(self):
        fb = Bitmap(64, 64)
        differ = TileDiffer()
        differ.refine(fb, [fb.bounds])
        fb.fill_rect(Rect(20, 20, 1, 1), (255, 0, 0))
        refined = differ.refine(fb, [fb.bounds])
        assert refined == [Rect(16, 16, 16, 16)]
