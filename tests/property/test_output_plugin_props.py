"""Property: a dirty-rect output plug-in matches a full transform.

Each plug-in keeps its last scaled bitmap and rescales only the ``dirty``
footprint of a push, and ships a box of the screen.  Whatever the frame
size (scaled down, or shown 1:1) and whatever in-place damage happens
between pushes, as long as ``dirty`` covers it, the screen the pushed
images build must be byte-identical after every push to what a fresh
plug-in makes of the whole frame, and every box must lie inside the
screen — and a new frame object must be rescaled whole and sent as a
full frame, whatever ``dirty`` says.
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

    A step is the rects changed in place before one push, and the
    ``dirty`` passed with it: their bounds, grown by a random margin.
    """
    width, height = frame_size(draw, screen)
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        changed = draw(st.lists(sub_rect(width, height),
                                min_size=1, max_size=3))
        bounds = changed[0]
        for rect in changed[1:]:
            bounds = bounds.union_bounds(rect)
        grow = draw(st.integers(0, 6))
        dirty = Rect(bounds.x - grow, bounds.y - grow,
                     bounds.w + 2 * grow, bounds.h + 2 * grow)
        steps.append((changed, dirty))
    return width, height, steps, draw(st.integers(0, 2 ** 32 - 1))


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
    for changed, dirty in steps:
        for rect in changed:
            frame.view(rect)[:] = rng.integers(
                0, 256, (rect.h, rect.w, 3), dtype=np.uint8)
        assert screen.show(plugin.process(frame, dirty)) == full_image(
            device, frame)
    # a new frame object is rescaled whole, whatever ``dirty`` says
    fresh = Bitmap.from_array(
        rng.integers(0, 256, (height, width, 3), dtype=np.uint8))
    image = plugin.process(fresh, Rect(0, 0, 1, 1))
    assert image.is_full and image == full_image(device, fresh)
