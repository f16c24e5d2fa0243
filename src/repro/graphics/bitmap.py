"""The canonical in-memory image: an RGB888 numpy-backed bitmap.

Everything inside the system (toolkit painting, display framebuffers, UniInt
server snapshots, output plug-in inputs) is a :class:`Bitmap`; wire formats
and device formats only appear at the edges.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.graphics.region import Rect
from repro.util.errors import GraphicsError

Color = tuple[int, int, int]

BLACK: Color = (0, 0, 0)


def _check_color(color: Color) -> np.ndarray:
    if len(color) != 3:
        raise GraphicsError(f"colour must be an RGB triple: {color!r}")
    arr = np.asarray(color, dtype=np.int64)
    if (arr < 0).any() or (arr > 255).any():
        raise GraphicsError(f"colour components out of range: {color!r}")
    return arr.astype(np.uint8)


@lru_cache(maxsize=256)
def _cached_color(color: Color) -> np.ndarray:
    arr = _check_color(color)
    arr.flags.writeable = False  # shared by every caller of this colour
    return arr


def _validate_color(color: Color) -> np.ndarray:
    """``color`` as a (3,) uint8 array; memoized per hashable colour."""
    try:
        return _cached_color(color)
    except TypeError:  # unhashable (a list, an array): check it uncached
        return _check_color(color)


def _fill(view: np.ndarray, color: Color) -> None:
    """Fill an (h, w, 3) view: the colour into its first row, then that
    row copied down, so only one row is written pixel by pixel."""
    view[0] = _validate_color(color)
    view[1:] = view[0]


class Bitmap:
    """An (H, W, 3) uint8 RGB image with rect-oriented operations."""

    __slots__ = ("pixels",)

    def __init__(self, width: int, height: int,
                 fill: Color = BLACK) -> None:
        if width <= 0 or height <= 0:
            raise GraphicsError(f"bitmap size must be positive: "
                                f"{width}x{height}")
        self.pixels = np.empty((height, width, 3), dtype=np.uint8)
        _fill(self.pixels, fill)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_array(cls, array: np.ndarray) -> "Bitmap":
        """Wrap an (H, W, 3) uint8 array (copied exactly once)."""
        if array.ndim != 3 or array.shape[2] != 3:
            raise GraphicsError(f"expected (H, W, 3) array, got {array.shape}")
        bitmap = cls.__new__(cls)
        pixels = np.ascontiguousarray(array, dtype=np.uint8)
        if isinstance(array, np.ndarray) and np.shares_memory(pixels, array):
            # ascontiguousarray passed the input's storage through (it was
            # already contiguous uint8, possibly as a view or subclass);
            # copy to keep the bitmap private.  Any other input was
            # already copied by the conversion.
            pixels = pixels.copy()
        bitmap.pixels = pixels
        return bitmap

    def copy(self) -> "Bitmap":
        return Bitmap.from_array(self.pixels)

    # -- geometry ----------------------------------------------------------------

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def size(self) -> tuple[int, int]:
        return (self.width, self.height)

    @property
    def bounds(self) -> Rect:
        return Rect(0, 0, self.width, self.height)

    # -- pixel access ---------------------------------------------------------

    def get_pixel(self, x: int, y: int) -> Color:
        if not self.bounds.contains_point(x, y):
            raise GraphicsError(f"pixel ({x}, {y}) outside {self.size}")
        r, g, b = self.pixels[y, x]
        return (int(r), int(g), int(b))

    # -- rect operations ----------------------------------------------------------

    def fill(self, color: Color) -> None:
        _fill(self.pixels, color)

    def fill_rect(self, rect: Rect, color: Color) -> None:
        x, y, w, h = rect
        height, width = self.pixels.shape[:2]
        self.fill_box(max(x, 0), max(y, 0), min(x + w, width),
                      min(y + h, height), color)

    def fill_box(self, x1: int, y1: int, x2: int, y2: int,
                 color: Color) -> None:
        """Fill ``x1 <= x < x2, y1 <= y < y2``, a box the caller has
        clipped to the bitmap; an empty box fills nothing."""
        if x1 < x2 and y1 < y2:
            _fill(self.pixels[y1:y2, x1:x2], color)

    def crop(self, rect: Rect) -> "Bitmap":
        """A copy of the given sub-rectangle (clipped to bounds)."""
        clipped = rect.intersect(self.bounds)
        if clipped.is_empty:
            raise GraphicsError(f"crop rect {rect} outside bitmap {self.size}")
        return Bitmap.from_array(
            self.pixels[clipped.y:clipped.y2, clipped.x:clipped.x2]
        )

    def view(self, rect: Rect) -> np.ndarray:
        """A zero-copy (h, w, 3) subarray of ``rect`` (clipped to bounds).

        The returned array shares storage with the bitmap: writes through
        either are visible in both.  The UIP server keys and packs damaged
        rects through views to skip the :meth:`crop` copy.
        """
        clipped = rect.intersect(self.bounds)
        if clipped.is_empty:
            raise GraphicsError(f"view rect {rect} outside bitmap {self.size}")
        return self.pixels[clipped.y:clipped.y2, clipped.x:clipped.x2]

    def blit(self, source: "Bitmap", x: int, y: int) -> Rect:
        """Copy ``source`` onto this bitmap at (x, y); returns the dirty rect.

        The source is clipped against the destination bounds, so partially
        (or fully) off-screen blits are safe.
        """
        target = Rect(x, y, source.width, source.height)
        clipped = target.intersect(self.bounds)
        if clipped.is_empty:
            return clipped
        sx = clipped.x - x
        sy = clipped.y - y
        self.pixels[clipped.y:clipped.y2, clipped.x:clipped.x2] = (
            source.pixels[sy:sy + clipped.h, sx:sx + clipped.w]
        )
        return clipped

    # -- comparison --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return (self.size == other.size
                and bool(np.array_equal(self.pixels, other.pixels)))

    def __hash__(self) -> int:  # bitmaps are mutable; identity hash
        return id(self)

    # -- serialisation ------------------------------------------------------------

    def to_ppm(self) -> bytes:
        """Binary PPM (P6), for golden files and example screenshots."""
        header = f"P6\n{self.width} {self.height}\n255\n".encode("ascii")
        return header + self.pixels.tobytes()

    def save_ppm(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_ppm())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Bitmap {self.width}x{self.height}>"
