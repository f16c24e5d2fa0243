"""Rectangle and region algebra.

:class:`Rect` is the universal geometry currency of the reproduction: the
toolkit damages rects, the window system coalesces rects, the UniInt server
encodes rects.  :class:`Region` maintains a set of *disjoint* rectangles
under union, which is exactly what incremental framebuffer updates need —
overlapping damage must not be encoded twice.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator


class Rect(namedtuple("Rect", "x y w h")):
    """Axis-aligned rectangle; ``w``/``h`` may be zero (empty).

    A tuple underneath, so it costs what a tuple costs to build, hash and
    compare: rects are immutable, equal rects hash equal, and they sort
    as ``(x, y, w, h)``.
    """

    __slots__ = ()

    def __new__(cls, x: int, y: int, w: int, h: int) -> "Rect":
        if w < 0 or h < 0:
            raise ValueError(f"negative rect size: {w}x{h}")
        return tuple.__new__(cls, (x, y, w, h))

    # -- basic properties ---------------------------------------------------

    @property
    def x2(self) -> int:
        """One past the right edge."""
        return self.x + self.w

    @property
    def y2(self) -> int:
        """One past the bottom edge."""
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    @property
    def is_empty(self) -> bool:
        return self.w == 0 or self.h == 0

    @property
    def center(self) -> tuple[int, int]:
        return (self.x + self.w // 2, self.y + self.h // 2)

    # -- queries --------------------------------------------------------------

    def contains_point(self, px: int, py: int) -> bool:
        return self.x <= px < self.x2 and self.y <= py < self.y2

    def contains_rect(self, other: "Rect") -> bool:
        if other.is_empty:
            return True
        return (self.x <= other.x and self.y <= other.y
                and other.x2 <= self.x2 and other.y2 <= self.y2)

    def intersects(self, other: "Rect") -> bool:
        return not self.intersect(other).is_empty

    # -- combination ----------------------------------------------------------

    def intersect(self, other: "Rect") -> "Rect":
        x, y, w, h = self
        ox, oy, ow, oh = other
        x1 = max(x, ox)
        y1 = max(y, oy)
        x2 = min(x + w, ox + ow)
        y2 = min(y + h, oy + oh)
        if x2 <= x1 or y2 <= y1:
            return Rect(0, 0, 0, 0)
        return Rect(x1, y1, x2 - x1, y2 - y1)

    def union_bounds(self, other: "Rect") -> "Rect":
        """Smallest rect covering both (bounding box, not exact union)."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        x1 = min(self.x, other.x)
        y1 = min(self.y, other.y)
        x2 = max(self.x2, other.x2)
        y2 = max(self.y2, other.y2)
        return Rect(x1, y1, x2 - x1, y2 - y1)

    def subtract(self, other: "Rect") -> list["Rect"]:
        """This rect minus ``other``, as up to four disjoint rects."""
        clip = self.intersect(other)
        if clip.is_empty:
            return [] if self.is_empty else [self]
        pieces = []
        if clip.y > self.y:  # band above
            pieces.append(Rect(self.x, self.y, self.w, clip.y - self.y))
        if clip.y2 < self.y2:  # band below
            pieces.append(Rect(self.x, clip.y2, self.w, self.y2 - clip.y2))
        if clip.x > self.x:  # left of clip, same vertical band as clip
            pieces.append(Rect(self.x, clip.y, clip.x - self.x, clip.h))
        if clip.x2 < self.x2:  # right of clip
            pieces.append(Rect(clip.x2, clip.y, self.x2 - clip.x2, clip.h))
        return pieces

    # -- transforms -------------------------------------------------------------

    def translate(self, dx: int, dy: int) -> "Rect":
        return Rect(self.x + dx, self.y + dy, self.w, self.h)

    def inset(self, margin: int) -> "Rect":
        """Shrink by ``margin`` on every side (clamped to empty)."""
        w = max(0, self.w - 2 * margin)
        h = max(0, self.h - 2 * margin)
        return Rect(self.x + margin, self.y + margin, w, h)


def _coalesce_exact(rects: list[Rect]) -> list[Rect]:
    """Re-cover a disjoint rect set with fewer rects, exactly.

    Classic band decomposition: cut the plane into horizontal bands at every
    rect edge, merge touching x-spans within each band, then stack
    vertically adjacent bands whose spans line up.  The output covers
    exactly the same pixels as the input and stays disjoint.
    """
    if len(rects) <= 1:
        return list(rects)
    edges = sorted({r.y for r in rects} | {r.y2 for r in rects})
    by_y = sorted(rects, key=lambda r: (r.y, r.x))
    # open[(x, w)] -> y the run started at, for spans still growing downward
    open_spans: dict[tuple[int, int], int] = {}
    out: list[Rect] = []
    for y1, y2 in zip(edges, edges[1:]):
        spans: list[tuple[int, int]] = []
        for rect in by_y:
            if rect.y < y2 and rect.y2 > y1:
                spans.append((rect.x, rect.x2))
        if not spans:
            current: dict[tuple[int, int], int] = {}
        else:
            spans.sort()
            merged = [spans[0]]
            for x1, x2 in spans[1:]:
                if x1 <= merged[-1][1]:  # touching or overlapping
                    merged[-1] = (merged[-1][0], max(merged[-1][1], x2))
                else:
                    merged.append((x1, x2))
            current = {(x1, x2 - x1): y1 for x1, x2 in merged}
        for key, start in list(open_spans.items()):
            if key not in current:
                out.append(Rect(key[0], start, key[1], y1 - start))
                del open_spans[key]
        for key in current:
            open_spans.setdefault(key, y1)
    for (x, w), start in open_spans.items():
        out.append(Rect(x, start, w, edges[-1] - start))
    out.sort()
    return out


def _merge_to_cap(rects: list[Rect], cap: int) -> list[Rect]:
    """Merge disjoint rects down to at most ``cap`` bounding boxes.

    Greedy: repeatedly fuse the pair whose joint bounding box wastes the
    least area, then absorb anything the new box now overlaps.  The result
    may cover *more* pixels than the input (never fewer) but stays disjoint.
    """
    out = list(rects)
    while len(out) > cap:
        best_waste = None
        best = (0, 1)
        for i, a in enumerate(out):
            for j in range(i + 1, len(out)):
                box = a.union_bounds(out[j])
                waste = box.area - a.area - out[j].area
                if best_waste is None or waste < best_waste:
                    best_waste = waste
                    best = (i, j)
        i, j = best
        box = out[i].union_bounds(out[j])
        rest = [r for k, r in enumerate(out) if k not in (i, j)]
        # absorbing may overlap further rects; keep fusing until disjoint
        changed = True
        while changed:
            changed = False
            for k, r in enumerate(rest):
                if box.intersects(r):
                    box = box.union_bounds(r)
                    del rest[k]
                    changed = True
                    break
        out = rest + [box]
    out.sort()
    return out


class Region:
    """A set of points kept as disjoint rectangles, closed under union.

    Invariant (property-tested): the stored rectangles never overlap, and
    membership matches the union of everything ever added.
    """

    def __init__(self, rects: Iterable[Rect] = ()) -> None:
        self._rects: list[Rect] = []
        for rect in rects:
            self.add(rect)

    @classmethod
    def from_disjoint(cls, rects: Iterable[Rect]) -> "Region":
        """Wrap rects that are already known to be disjoint (no re-splitting).

        Used by the damage pipeline to hand coalesced rect lists around
        without paying :meth:`add`'s subtraction cost again.  Callers are
        trusted; feeding overlapping rects breaks the region invariant.
        """
        region = cls()
        region._rects = [r for r in rects if not r.is_empty]
        return region

    # -- mutation ---------------------------------------------------------------

    def add(self, rect: Rect) -> None:
        """Union ``rect`` into the region, keeping pieces disjoint."""
        if rect.is_empty:
            return
        new_pieces = [rect]
        for existing in self._rects:
            next_pieces: list[Rect] = []
            for piece in new_pieces:
                next_pieces.extend(piece.subtract(existing))
            new_pieces = next_pieces
            if not new_pieces:
                return
        self._rects.extend(new_pieces)

    def subtract(self, rect: Rect) -> None:
        """Remove ``rect``'s area from the region."""
        if rect.is_empty:
            return
        result: list[Rect] = []
        for existing in self._rects:
            result.extend(existing.subtract(rect))
        self._rects = result

    # -- queries ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._rects

    @property
    def area(self) -> int:
        return sum(rect.area for rect in self._rects)

    def rects(self) -> list[Rect]:
        """The disjoint rectangles, in a deterministic order."""
        return sorted(self._rects)

    def coalesced(self, cap: int | None = None) -> list[Rect]:
        """A minimal-fragmentation disjoint cover of this region.

        Adjacent and overlapping fragments produced by :meth:`add`'s
        subtraction splitting are fused back into larger rects; the result
        covers *exactly* the same pixels.  With ``cap`` set, the list is
        further reduced to at most ``cap`` rects by bounding-box merging,
        which may over-cover (safe for damage: extra pixels are re-sent,
        never lost) but never exceeds the cap.
        """
        if cap is not None and cap < 1:
            raise ValueError(f"coalesce cap must be >= 1, got {cap}")
        out = _coalesce_exact(self._rects)
        if len(out) >= len(self._rects):
            # band decomposition can lose to the stored cover on staggered
            # layouts; never return a worse cover than we already hold
            out = sorted(self._rects)
        if cap is not None and len(out) > cap:
            out = _merge_to_cap(out, cap)
        return out

    def bounds(self) -> Rect:
        """Bounding box of the whole region (empty rect if empty)."""
        box = Rect(0, 0, 0, 0)
        for rect in self._rects:
            box = box.union_bounds(rect)
        return box

    def contains_point(self, px: int, py: int) -> bool:
        return any(rect.contains_point(px, py) for rect in self._rects)

    def copy(self) -> "Region":
        region = Region()
        region._rects = list(self._rects)
        return region

    def __iter__(self) -> Iterator[Rect]:
        return iter(self.rects())

    def __len__(self) -> int:
        return len(self._rects)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Region({self.rects()!r})"
