"""Raster graphics substrate.

The universal interaction protocol ships *bitmap images* as its output
events, so the reproduction needs a real raster stack: a canonical RGB
:class:`Bitmap`, the wire pixel format (:data:`RGB888`), rectangle/region
algebra for damage tracking, a bitmap font for the toolkit, and the
resampling/quantisation/dithering operators the output plug-ins use to
adapt images to weak displays.
"""

from repro.graphics.bitmap import Bitmap
from repro.graphics.differ import TileDiffer
from repro.graphics.pixelformat import RGB888, PixelFormat
from repro.graphics.region import Rect, Region
from repro.graphics import ops
from repro.graphics.font import Font, default_font

__all__ = [
    "Bitmap",
    "Font",
    "PixelFormat",
    "RGB888",
    "Rect",
    "Region",
    "TileDiffer",
    "default_font",
    "ops",
]
