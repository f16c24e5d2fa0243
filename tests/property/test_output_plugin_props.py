"""Property: a dirty-rect output plug-in matches a full transform.

Each plug-in keeps its last scaled bitmap and rescales only the ``dirty``
footprint of a push, and ships a box of the screen; the phone also keeps
the screen it made of each fitted frame, and reuses it when that frame
comes back.  Whatever the frame size (scaled down, or shown 1:1) and
whatever in-place damage happens between pushes — new pixels, or the
pixels of an earlier push restored, as they were or one pixel off — as
long as ``dirty`` covers it, the screen the pushed images build must be
byte-identical after every push to what a fresh plug-in makes of the
whole frame, and every box must lie inside the screen — and a new frame
object must be rescaled whole and sent as a full frame, whatever
``dirty`` says.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import CellPhone, Pda, TvDisplay, WallDisplay
from repro.graphics import Bitmap, Rect
from repro.proxy import SessionContext
from repro.util import Scheduler
from tests.helpers import ScreenReplay

DEVICES = (CellPhone, Pda, TvDisplay, WallDisplay)


def make_plugin(device):
    return device.output_plugin_factory(device.descriptor, SessionContext())


def full_image(device, frame):
    return make_plugin(device).transform(frame, frame.bounds)


@st.composite
def sub_rect(draw, width, height):
    x = draw(st.integers(0, width - 1))
    y = draw(st.integers(0, height - 1))
    return Rect(x, y, draw(st.integers(1, width - x)),
                draw(st.integers(1, height - y)))


def frame_size(draw, screen):
    """A frame size that fits ``screen`` 1:1, or must be scaled down."""
    if not draw(st.booleans()):
        return (draw(st.integers(1, screen.width)),
                draw(st.integers(1, screen.height)))
    width = draw(st.integers(1, screen.width * 5 // 4))
    height = draw(st.integers(1, screen.height * 5 // 4))
    if draw(st.booleans()):
        return draw(st.integers(screen.width + 1,
                                screen.width * 5 // 4)), height
    return width, draw(st.integers(screen.height + 1,
                                   screen.height * 5 // 4))


@st.composite
def scenarios(draw, screen):
    """A frame size and damage steps, plus a seed for the pixels.

    A step, before one push, either paints random rects in place
    (``("paint", rects, grow)``) or restores the pixels of push ``back``
    (0 is the first), with pixel ``poke`` then changed unless it is
    ``None`` (``("revisit", back, poke, grow)``).  The push's ``dirty``
    is the bounds of what changed, grown by ``grow`` on every side.
    """
    width, height = frame_size(draw, screen)
    steps = []
    for pushed in range(1, draw(st.integers(1, 5)) + 1):
        grow = draw(st.integers(0, 6))
        if draw(st.booleans()):
            poke = draw(st.none() | st.tuples(st.integers(0, width - 1),
                                               st.integers(0, height - 1)))
            steps.append(("revisit", draw(st.integers(0, pushed - 1)),
                          poke, grow))
        else:
            steps.append(("paint", draw(st.lists(
                sub_rect(width, height), min_size=1, max_size=3)), grow))
    return width, height, steps, draw(st.integers(0, 2 ** 32 - 1))


def changed_bounds(before, after):
    """The bounds of the pixels that differ between two pixel arrays."""
    ys, xs = np.nonzero((before != after).any(axis=2))
    if not len(ys):
        return Rect(0, 0, 0, 0)
    return Rect(int(xs.min()), int(ys.min()), int(xs.max() - xs.min()) + 1,
                int(ys.max() - ys.min()) + 1)


@pytest.mark.parametrize("kind", DEVICES, ids=lambda kind: kind.kind)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_push_equals_a_full_transform(kind, data):
    device = kind("dev", Scheduler())
    width, height, steps, seed = data.draw(
        scenarios(device.descriptor.screen))
    rng = np.random.default_rng(seed)
    frame = Bitmap.from_array(
        rng.integers(0, 256, (height, width, 3), dtype=np.uint8))
    plugin = make_plugin(device)
    screen = ScreenReplay()
    assert screen.show(plugin.process(frame, frame.bounds)) == full_image(
        device, frame)
    pushed = [frame.pixels.copy()]
    for step in steps:
        before = frame.pixels.copy()
        if step[0] == "paint":
            _, rects, grow = step
            for rect in rects:
                frame.view(rect)[:] = rng.integers(
                    0, 256, (rect.h, rect.w, 3), dtype=np.uint8)
        else:
            _, back, poke, grow = step
            frame.pixels[:] = pushed[back]
            if poke is not None:
                x, y = poke
                frame.pixels[y, x] = 255 - frame.pixels[y, x]
        bounds = changed_bounds(before, frame.pixels)
        dirty = bounds if bounds.is_empty else Rect(
            bounds.x - grow, bounds.y - grow,
            bounds.w + 2 * grow, bounds.h + 2 * grow)
        pushed.append(frame.pixels.copy())
        assert screen.show(plugin.process(frame, dirty)) == full_image(
            device, frame)
    # a new frame object is rescaled whole, whatever ``dirty`` says
    fresh = Bitmap.from_array(
        rng.integers(0, 256, (height, width, 3), dtype=np.uint8))
    image = plugin.process(fresh, Rect(0, 0, 1, 1))
    assert image.is_full and image == full_image(device, fresh)
