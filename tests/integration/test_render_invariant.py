"""Render invariant: repainting any damage equals a full repaint.

``UIWindow.render`` repaints only the bounding box of its damage, and
``Widget.paint_tree`` skips every child the clip cannot reach.  Both are
exact only if no widget paints outside the clipping canvas.  The oracle
here paints the whole tree, every visible child included, into a fresh
bitmap; after random damage, with noise scribbled inside the damage so a
missed repaint shows, the window must equal it byte for byte.  The pages
are those the end-to-end benchmark's five workloads show.
"""

import numpy as np
import pytest

from repro import Home
from repro.appliances import (
    AirConditioner,
    Amplifier,
    DimmableLight,
    DvdPlayer,
    MicrowaveOven,
    Refrigerator,
    Television,
    VideoRecorder,
)
from repro.graphics import Bitmap, Rect
from repro.havi import FcmType
from repro.toolkit.canvas import Canvas


def paint_unculled(widget, canvas, theme):
    """``Widget.paint_tree`` without culling: every visible child paints."""
    if not widget.visible:
        return
    widget.paint(canvas, theme)
    for child in widget.children:
        paint_unculled(child, canvas.offset(child.rect), theme)


def full_repaint(window):
    fresh = Bitmap(window.bitmap.width, window.bitmap.height,
                   fill=window.theme.background)
    root = window.root
    paint_unculled(root, Canvas(fresh, root.rect.x, root.rect.y,
                                fresh.bounds), window.theme)
    return fresh


def _damage_rects(rng, window):
    """Widget rects (the damage the program makes) and random rects."""
    widgets = [w for w in window.root.walk() if not w.abs_rect().is_empty]
    bounds = window.bitmap.bounds
    rects = []
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.5:
            rect = widgets[int(rng.integers(len(widgets)))].abs_rect()
        else:
            x = int(rng.integers(-10, bounds.w))
            y = int(rng.integers(-10, bounds.h))
            rect = Rect(x, y, int(rng.integers(1, bounds.w // 2)),
                        int(rng.integers(1, bounds.h // 2)))
        rect = rect.intersect(bounds)
        if not rect.is_empty:
            rects.append(rect)
    return rects


def assert_render_matches_full_repaint(window, seed, rounds=30):
    rng = np.random.default_rng(seed)
    window.render()
    reference = full_repaint(window)
    assert window.bitmap == reference
    for _ in range(rounds):
        for rect in _damage_rects(rng, window):
            window.bitmap.pixels[rect.y:rect.y2, rect.x:rect.x2] = (
                rng.integers(0, 256, (rect.h, rect.w, 3), dtype=np.uint8))
            window.damage.add(rect)
        window.render()
        assert window.bitmap == reference


def _home(appliances, width=480, height=360):
    home = Home(width=width, height=height)
    added = [home.add_appliance(cls(name)) for cls, name in appliances]
    home.settle()
    return home, added


class TestRenderInvariant:
    def test_pda_tap_page(self):
        home, (tv, _, _) = _home([(Television, "TV"),
                                  (DimmableLight, "Lamp"),
                                  (AirConditioner, "Aircon")])
        home.default_user.show_appliance("TV")
        tv.dcm.fcm_by_type(FcmType.TUNER).invoke_local(
            "power.set", {"on": True})
        home.settle()
        assert_render_matches_full_repaint(home.window, seed=1)

    def test_remote_browse_pages(self):
        home, _ = _home([(Television, "TV"), (VideoRecorder, "VCR"),
                         (Amplifier, "Amp"), (DvdPlayer, "DVD"),
                         (AirConditioner, "Aircon"),
                         (DimmableLight, "Lamp"),
                         (MicrowaveOven, "Microwave"),
                         (Refrigerator, "Fridge")])
        tabs = home.window.root.find("appliance-tabs")
        for index in range(len(tabs.titles)):
            tabs.set_active(index)
            assert_render_matches_full_repaint(home.window, seed=10 + index,
                                               rounds=8)

    def test_phone_tap_page(self):
        home, _ = _home([(Television, "TV")])
        assert_render_matches_full_repaint(home.window, seed=3)

    @pytest.mark.parametrize("visitor", [(MicrowaveOven, "Microwave"),
                                         (Refrigerator, "Fridge"),
                                         (DvdPlayer, "DVD"),
                                         (Amplifier, "Amp")])
    def test_hotplug_page(self, visitor):
        home, _ = _home([(Television, "TV"), (DimmableLight, "Lamp"),
                         (AirConditioner, "Aircon"),
                         (VideoRecorder, "VCR"), visitor])
        assert_render_matches_full_repaint(home.window, seed=4, rounds=10)

    def test_fleet_open_page(self):
        home, _ = _home([(DimmableLight, "lamp-0")], width=160, height=120)
        assert_render_matches_full_repaint(home.window, seed=5)
