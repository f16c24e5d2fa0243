"""Change-aware damage refinement: the tile-grid frame differ.

Damage tracking is *geometric* — a widget that repaints reports its rect
dirty whether or not any pixel actually changed.  Blinking clocks, focus
churn and full-panel redraws therefore push identical pixels down every
session's encode path.  :class:`TileDiffer` closes that gap: it retains a
shadow copy of the framebuffer and, before damage is distributed, compares
each damaged rect against the shadow at 16x16-tile granularity.  The rect
is compared as rows of bytes (an RGB pixel is 3 of them), and the change
mask is reduced over 16-row bands, then over 48-byte tile columns, so no
pass loops over the 3 bytes of one pixel.  Only tiles whose pixels truly
changed survive: one diff of the hot-tile grid finds every tile row's runs
of them, runs with the same columns in consecutive rows merge into one
rect, and each rect is clipped back to the original damage.

The refinement is sound by construction: a pixel can only be dropped when
it is byte-identical to the shadow, and the shadow is updated to the
current framebuffer content over every damaged rect processed — so the
refined region always covers every actually-changed pixel (the property
tests pin this down).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.graphics.bitmap import Bitmap
from repro.graphics.region import Rect

_TILE = 16


class TileDiffer:
    """Refines damage rects to the 16x16 tiles whose pixels changed.

    One differ serves one framebuffer's distribution point (the UniInt
    server keeps one, shared by all sessions): the shadow models "what has
    been reported downstream so far", which is the same for every session
    because sessions accumulate the refined region independently.  A
    damaged rect costs a fixed number of array passes, whatever its tile
    rows, plus one Python step per run of hot tiles: the runs' vertical
    merge loops over runs, not rows.
    """

    def __init__(self) -> None:
        self._shadow: Optional[np.ndarray] = None
        # statistics for the bandwidth experiments / ablations
        self.tiles_checked = 0
        self.tiles_dropped = 0

    # -- refinement ---------------------------------------------------------

    def refine(self, framebuffer: Bitmap,
               rects: Iterable[Rect]) -> list[Rect]:
        """The sub-rects of ``rects`` whose pixels differ from the shadow.

        The shadow is brought up to date over every input rect, so damage
        dropped here is damage whose content downstream consumers already
        have.  On the first call there is no shadow yet: the rects pass
        through unrefined and the shadow is primed.
        """
        pixels = framebuffer.pixels
        if self._shadow is None:
            self._shadow = pixels.copy()
            return [r for r in rects if not r.is_empty]
        out: list[Rect] = []
        bounds = framebuffer.bounds
        for rect in rects:
            clipped = rect.intersect(bounds)
            if clipped.is_empty:
                continue
            out.extend(self._refine_one(pixels, clipped))
        return out

    def _refine_one(self, pixels: np.ndarray, rect: Rect) -> list[Rect]:
        tile = _TILE
        fresh = pixels[rect.y:rect.y2, rect.x:rect.x2]
        stale = self._shadow[rect.y:rect.y2, rect.x:rect.x2]
        # compare byte rows straight into the tile grid the rect overlaps
        # (a tile column is 3 * tile bytes wide)
        gx0 = rect.x - rect.x % tile
        gy0 = rect.y - rect.y % tile
        tiles_x = -(-(rect.x2 - gx0) // tile)
        tiles_y = -(-(rect.y2 - gy0) // tile)
        row = 3 * tile
        changed = np.zeros((tiles_y * tile, tiles_x * row), dtype=bool)
        ry0, rx0 = rect.y - gy0, 3 * (rect.x - gx0)
        np.not_equal(fresh.reshape(rect.h, 3 * rect.w),
                     stale.reshape(rect.h, 3 * rect.w),
                     out=changed[ry0:ry0 + rect.h, rx0:rx0 + 3 * rect.w])
        # the shadow absorbs the damaged rect's content, kept or dropped
        stale[...] = fresh
        bands = changed.reshape(tiles_y, tile, tiles_x * row).any(axis=1)
        hot = bands.reshape(tiles_y, tiles_x, row).any(axis=2)
        self.tiles_checked += tiles_y * tiles_x
        self.tiles_dropped += int(hot.size - np.count_nonzero(hot))
        if not hot.any():
            return []
        if hot.all():
            return [rect]
        # every tile row's runs of hot tiles in one diff of the grid:
        # padded with a cold tile at each end, a row's changes alternate
        # start, end
        padded = np.zeros((tiles_y, tiles_x + 2), dtype=bool)
        padded[:, 1:-1] = hot
        rows, cols = np.nonzero(padded[:, 1:] != padded[:, :-1])
        # a run extends the one with the same columns in the row above
        chains: dict[tuple[int, int], tuple[int, int]] = {}
        done: list[tuple[tuple[int, int], tuple[int, int]]] = []
        for tyi, run in zip(rows[::2].tolist(),
                            zip(cols[::2].tolist(), cols[1::2].tolist())):
            chain = chains.get(run)
            if chain is not None and chain[1] == tyi - 1:
                chains[run] = (chain[0], tyi)
                continue
            if chain is not None:
                done.append((run, chain))
            chains[run] = (tyi, tyi)
        done.extend(chains.items())
        out: list[Rect] = []
        for (x0t, x1t), (ty0, ty1) in done:
            x1 = max(gx0 + x0t * tile, rect.x)
            y1 = max(gy0 + ty0 * tile, rect.y)
            out.append(Rect(x1, y1, min(gx0 + x1t * tile, rect.x2) - x1,
                            min(gy0 + (ty1 + 1) * tile, rect.y2) - y1))
        out.sort(key=lambda r: (r.y, r.x))
        return out
