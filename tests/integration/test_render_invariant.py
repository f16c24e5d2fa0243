"""Render invariant: repainting any damage equals a full repaint.

``UIWindow.render`` repaints only the bounding box of its damage, and
``Widget.paint_tree`` skips every child the clip cannot reach.  Both are
exact only if no widget paints outside the clipping canvas.  The oracle
here paints the whole tree, every visible child included, into a fresh
bitmap; after random damage, with noise scribbled inside the damage so a
missed repaint shows, the window must equal it byte for byte.  The pages
are those the end-to-end benchmark's five workloads show.

The same oracle checks hotplug: a rebuild updates the tab panel in place
and damages only what it changes, so after every settle of a seeded swap
sequence the window must already equal a full repaint, with no damage
left and no render forced, and the proxy's mirror must equal it.
"""

import dataclasses
import random

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
from repro.devices import TvDisplay
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


# -- hotplug ------------------------------------------------------------------

RESIDENTS = {"TV": Television, "Lamp": DimmableLight,
             "Aircon": AirConditioner, "VCR": VideoRecorder}
VISITORS = {"Microwave": MicrowaveOven, "Fridge": Refrigerator,
            "DVD": DvdPlayer, "Amp": Amplifier}


def _tv_home(appliances):
    """A 480x360 home shown on a TV display."""
    home = Home(width=480, height=360)
    for appliance in appliances:
        home.add_appliance(appliance)
    home.settle()
    display = TvDisplay("tv-display", home.scheduler)
    display.connect(home.proxy)
    home.proxy.select_output("tv-display")
    home.settle()
    assert_settled(home)
    return home


def assert_settled(home):
    """Nothing left to repaint, the window equals a full repaint, and
    the proxy's mirror equals the composite."""
    window = home.window
    assert window.damage.is_empty
    assert window.bitmap == full_repaint(window)
    assert home.session.upstream.framebuffer == home.display.framebuffer


def _shown(home):
    tabs = home.app._tabs()
    if tabs is None:
        return None
    return home.app.appliances[tabs.active].name


def _twin(cls, name, guid):
    """An appliance whose GUID is ``guid``: a recycled one, or one whose
    first digits collide with another device's."""
    appliance = cls(name)
    appliance.info = dataclasses.replace(appliance.info, guid=guid)
    return appliance


class TestRebuildOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_swaps(self, seed):
        """Visitors come and go, leaving with their page hidden or shown,
        between tab switches and state changes on every page."""
        rng = random.Random(seed)
        visitor = rng.choice(sorted(VISITORS))
        home = _tv_home([cls(name) for name, cls in RESIDENTS.items()]
                        + [VISITORS[visitor](visitor)])
        user = home.default_user
        departed = {"hidden": 0, "shown": 0}
        for _ in range(16):
            front = visitor if rng.random() < 0.4 else rng.choice(
                sorted(RESIDENTS))
            user.show_appliance(front)
            home.settle()
            assert_settled(home)
            tv = home.appliances["TV"].dcm.fcm_by_type(FcmType.TUNER)
            lamp = home.appliances["Lamp"].dcm.fcm_by_type(FcmType.LIGHT)
            tv.invoke_local("power.set", {"on": rng.random() < 0.5})
            if tv.get_state("power"):
                tv.invoke_local("channel.set",
                                {"channel": rng.randint(1, 12)})
            lamp.invoke_local("power.set", {"on": True})
            lamp.invoke_local("brightness.set",
                              {"brightness": rng.randint(0, 100)})
            home.settle()
            assert_settled(home)
            departed["shown" if _shown(home) == visitor else "hidden"] += 1
            arriving = rng.choice(sorted(set(VISITORS) - {visitor}))
            home.remove_appliance(visitor)
            home.add_appliance(VISITORS[arriving](arriving))
            home.settle()
            assert_settled(home)
            assert sorted(a.name for a in home.app.appliances) == sorted(
                [*RESIDENTS, arriving])
            visitor = arriving
        assert departed["hidden"] and departed["shown"]

    def test_two_to_one_to_none_and_back(self):
        home = _tv_home([Television("TV"), VideoRecorder("VCR")])
        home.default_user.show_appliance("VCR")
        home.settle()
        assert_settled(home)
        steps = (lambda: home.remove_appliance("VCR"),
                 lambda: home.remove_appliance("TV"),
                 lambda: home.add_appliance(Television("TV")),
                 lambda: home.add_appliance(VideoRecorder("VCR")))
        for count, step in zip((1, 0, 1, 2), steps):
            step()
            home.settle()
            assert len(home.app.appliances) == count
            assert_settled(home)

    @pytest.mark.parametrize("front", ["Microwave", "TV"])
    def test_recycled_guid(self, front):
        """The visitor leaves and a different appliance with its GUID
        arrives in the same bus reset, its page hidden or shown."""
        home = _tv_home([Television("TV"), DimmableLight("Lamp"),
                         MicrowaveOven("Microwave")])
        home.default_user.show_appliance(front)
        home.settle()
        guid = home.appliances["Microwave"].guid
        home.remove_appliance("Microwave")
        home.add_appliance(_twin(DvdPlayer, "Oven", guid))
        home.settle()
        assert home.app.appliance_by_name("Oven").guid == guid
        assert_settled(home)
        home.default_user.show_appliance("Oven")
        home.settle()
        assert_settled(home)

    def test_colliding_guid_prefixes(self):
        """A device whose GUID shares the first 8 digits with the TV's
        lengthens every page's id prefix; leaving shortens them again."""
        home = _tv_home([Television("TV"), DimmableLight("Lamp")])
        tv = home.appliances["TV"]
        home.add_appliance(_twin(Amplifier, "Amp", tv.guid[:8] + "0" * 8))
        home.settle()
        assert len(home.app.appliance_by_name("TV").guid_prefix) > 8
        assert_settled(home)
        home.default_user.show_appliance("Amp")
        home.settle()
        home.remove_appliance("Amp")
        home.settle()
        assert home.app.appliance_by_name("TV").guid_prefix == tv.guid[:8]
        assert_settled(home)
