"""E2 — output plug-in adaptation cost per device class.

Claim operationalised: any server bitmap can be adapted to any output
device by its uploaded plug-in (scale + colour-reduce + dither + pack).
Expected shape: cost scales with device pixel count; the phone (tiny,
error-diffused) and the wall display (huge, full colour) bracket the range;
per-frame output bytes reflect each screen's native depth.  The damage
case changes one 64x24 rect between pushes: a plug-in rescales only that
footprint, so it shows what the full-frame stages (dither, pack) cost.
"""

from __future__ import annotations

from itertools import cycle

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


@pytest.mark.parametrize("device_name", DEVICES)
def test_output_plugin_transform(benchmark, device_name):
    device = DEVICES[device_name](device_name, Scheduler())
    context = SessionContext()
    plugin = device.output_plugin_factory(device.descriptor, context)
    frame = panel_frame(480, 360)

    image = benchmark(lambda: plugin.transform(frame, frame.bounds))
    screen = device.descriptor.screen
    benchmark.extra_info["screen"] = f"{screen.width}x{screen.height}"
    benchmark.extra_info["format"] = image.format
    benchmark.extra_info["frame_bytes"] = len(image.data)
    benchmark.extra_info["bits_per_pixel"] = screen.bits_per_pixel


@pytest.mark.parametrize("device_name", DEVICES)
def test_output_plugin_damage(benchmark, device_name):
    """One 64x24 rect changes between pushes of the same frame."""
    device = DEVICES[device_name](device_name, Scheduler())
    context = SessionContext()
    plugin = device.output_plugin_factory(device.descriptor, context)
    frame = panel_frame(480, 360)
    plugin.process(frame, frame.bounds)
    damage = Rect(208, 168, 64, 24)
    colours = cycle([(40, 80, 160), (206, 206, 206)])

    def push():
        frame.fill_rect(damage, next(colours))
        return plugin.process(frame, damage)

    image = benchmark(push)
    benchmark.extra_info["damage"] = f"{damage.w}x{damage.h}"
    benchmark.extra_info["frame_bytes"] = len(image.data)


@pytest.mark.parametrize("device_name", ["phone-mono1", "pda-gray4"])
def test_transform_wire_image_fits_link_second(benchmark, device_name):
    """Device frame bytes vs the bearer's one-second byte budget."""
    device = DEVICES[device_name](device_name, Scheduler())
    context = SessionContext()
    plugin = device.output_plugin_factory(device.descriptor, context)
    frame = panel_frame(480, 360)

    image = benchmark(lambda: plugin.transform(frame, frame.bounds))
    link = device.descriptor.link
    budget = link.bandwidth_bps / 8.0
    benchmark.extra_info["frame_bytes"] = len(image.data)
    benchmark.extra_info["link_bytes_per_s"] = int(budget)
    benchmark.extra_info["frames_per_s_on_link"] = round(
        budget / len(image.data), 2)
