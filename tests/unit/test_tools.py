"""Unit tests for the ascii renderer and the event trace."""

import numpy as np
import pytest

from repro import Home
from repro.appliances import Television
from repro.context import UserSituation
from repro.devices import CellPhone
from repro.graphics import Bitmap, Rect
from repro.havi import FcmType
from repro.tools import EventTrace, bitmap_to_ascii, luma_to_ascii


class TestAsciiRenderer:
    def test_dark_and_light(self):
        dark = luma_to_ascii(np.zeros((10, 10)), width=10)
        light = luma_to_ascii(np.full((10, 10), 255.0), width=10)
        assert set(dark.replace("\n", "")) == {" "}
        assert set(light.replace("\n", "")) == {"@"}

    def test_width_respected(self):
        art = bitmap_to_ascii(Bitmap(100, 50, fill=(128, 128, 128)),
                              width=40)
        assert all(len(line) <= 40 for line in art.split("\n"))

    def test_aspect_halves_rows(self):
        art = luma_to_ascii(np.zeros((100, 100)), width=50)
        assert len(art.split("\n")) == 25

    def test_gradient_monotonic(self):
        gradient = np.tile(np.linspace(0, 255, 64), (16, 1))
        art = luma_to_ascii(gradient, width=64)
        first_row = art.split("\n")[0]
        from repro.tools.ascii import RAMP
        indices = [RAMP.index(c) for c in first_row]
        assert indices == sorted(indices)

    def test_rejects_rgb_array(self):
        with pytest.raises(ValueError):
            luma_to_ascii(np.zeros((4, 4, 3)))


class TestEventTrace:
    def _home(self):
        home = Home()
        trace = EventTrace().attach(home)
        home.add_appliance(Television("TV"))
        home.settle()
        return home, trace

    def test_records_dcm_and_state_events(self):
        home, trace = self._home()
        tv = home.appliances["TV"]
        tv.dcm.fcm_by_type(FcmType.TUNER).invoke_local(
            "power.set", {"on": True})
        home.settle()
        categories = [r.category for r in trace.records]
        assert "dcm.installed" in categories
        assert "fcm.state.power" in categories

    def test_records_context_switches(self):
        home, trace = self._home()
        home.add_device(CellPhone("k", home.scheduler))
        home.context.set_situation(UserSituation.cooking())
        home.settle()
        switches = [r for r in trace.records
                    if r.category == "context.switch"]
        assert switches
        assert switches[-1].detail["location"] == "kitchen"

    def test_detaching_twice_or_unattached_is_harmless(self):
        EventTrace().detach()
        home, trace = self._home()
        trace.detach()
        trace.detach()
        assert len(trace) > 0

    def test_detach_stops_recording(self):
        home, trace = self._home()
        count = len(trace)
        trace.detach()
        tv = home.appliances["TV"]
        tv.dcm.fcm_by_type(FcmType.TUNER).invoke_local(
            "power.set", {"on": True})
        home.settle()
        assert len(trace) == count

    def test_double_attach_rejected(self):
        home, trace = self._home()
        with pytest.raises(RuntimeError):
            trace.attach(home)

    def test_format_is_deterministic(self):
        def run():
            home = Home()
            trace = EventTrace().attach(home)
            home.add_appliance(Television("TV"))
            home.settle()
            return trace.format()

        assert run() == run()
