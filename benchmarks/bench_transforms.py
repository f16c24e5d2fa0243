"""E2 — output plug-in adaptation cost per device class.

Claim operationalised: any server bitmap can be adapted to any output
device by its uploaded plug-in (scale + colour-reduce + dither + pack).
Expected shape: cost scales with device pixel count; the phone (tiny,
error-diffused) and the wall display (huge, full colour) bracket the range;
per-frame output bytes reflect each screen's native depth.  A plug-in's
first push is a full frame and every later one a box of what changed, so
the full-frame cases time a fresh plug-in's first push.  The damage case
changes one 64x24 rect between pushes: every plug-in rescales only that
footprint, the PDA also greys, dithers and packs only the rows it
reaches, and the displays copy out only the rescaled rect.  The rect
takes two colours in turn (``revisit``), so after the first two pushes
every frame is one the plug-in has met before.  The phone keeps the
screen it made of each fitted frame, so its ``revisit`` row times a
cache hit: the rescale, one digest of the fitted frame and the diff
against the rows it last sent.  Its ``fresh`` row paints a colour that
never repeats, so every push misses: whole-frame error diffusion plus
that digest, the cost of a screen the phone has not shown before.
"""

from __future__ import annotations

from itertools import count, cycle

import pytest

from benchmarks.conftest import panel_frame
from repro.devices import CellPhone, Pda, TvDisplay, WallDisplay
from repro.graphics import Rect
from repro.proxy.plugins import SessionContext
from repro.util import Scheduler

DEVICES = {
    "phone-mono1": CellPhone,
    "pda-gray4": Pda,
    "tv-rgb888": TvDisplay,
    "wall-rgb888": WallDisplay,
}


def _first_push(device):
    """A fresh plug-in's first push of a panel frame: a full frame."""
    frame = panel_frame(480, 360)

    def push():
        plugin = device.output_plugin_factory(device.descriptor,
                                              SessionContext())
        return plugin.transform(frame, frame.bounds)

    return push


@pytest.mark.parametrize("device_name", DEVICES)
def test_output_plugin_transform(benchmark, device_name):
    device = DEVICES[device_name](device_name, Scheduler())

    image = benchmark(_first_push(device))
    assert image.is_full
    screen = device.descriptor.screen
    benchmark.extra_info["screen"] = f"{screen.width}x{screen.height}"
    benchmark.extra_info["format"] = image.format
    benchmark.extra_info["frame_bytes"] = len(image.data)
    benchmark.extra_info["bits_per_pixel"] = screen.bits_per_pixel


#: Colour streams for the damage rect: two colours in turn, or a colour
#: that never repeats.
DAMAGE_COLOURS = {
    "revisit": lambda: cycle([(40, 80, 160), (206, 206, 206)]),
    "fresh": lambda: ((n & 255, n >> 8 & 255, n >> 16) for n in count(1)),
}


@pytest.mark.parametrize("device_name,colours", [
    ("phone-mono1", "revisit"), ("phone-mono1", "fresh"),
    ("pda-gray4", "revisit"), ("tv-rgb888", "revisit"),
    ("wall-rgb888", "revisit"),
])
def test_output_plugin_damage(benchmark, device_name, colours):
    """One 64x24 rect changes between pushes of the same frame."""
    device = DEVICES[device_name](device_name, Scheduler())
    context = SessionContext()
    plugin = device.output_plugin_factory(device.descriptor, context)
    frame = panel_frame(480, 360)
    plugin.process(frame, frame.bounds)
    damage = Rect(208, 168, 64, 24)
    stream = DAMAGE_COLOURS[colours]()

    def push():
        frame.fill_rect(damage, next(stream))
        return plugin.process(frame, damage)

    for _ in range(2):  # from here on, a revisit meets only frames it met
        push()
    image = benchmark(push)
    if device_name == "phone-mono1":
        # the first push and the two above miss; then a revisit only hits
        # and a fresh colour only misses
        screens = plugin.screens
        assert ((screens.misses == 3) if colours == "revisit"
                else (screens.hits == 0))
    benchmark.extra_info["damage"] = f"{damage.w}x{damage.h}"
    benchmark.extra_info["frame_bytes"] = len(image.data)


@pytest.mark.parametrize("device_name", ["phone-mono1", "pda-gray4"])
def test_transform_wire_image_fits_link_second(benchmark, device_name):
    """Full device frame bytes vs the bearer's one-second byte budget."""
    device = DEVICES[device_name](device_name, Scheduler())

    image = benchmark(_first_push(device))
    assert image.is_full
    link = device.descriptor.link
    budget = link.bandwidth_bps / 8.0
    benchmark.extra_info["frame_bytes"] = len(image.data)
    benchmark.extra_info["link_bytes_per_s"] = int(budget)
    benchmark.extra_info["frames_per_s_on_link"] = round(
        budget / len(image.data), 2)
