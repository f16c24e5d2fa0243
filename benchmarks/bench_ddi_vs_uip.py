"""E9 — DDI (semantic UI) vs universal interaction (pixel UI).

HAVi's own DDI ships abstract element trees and semantic actions; the
paper ships pixels and raw input events.  Same task on both paths:
*toggle the TV's power from a handheld and observe the confirmation.*

Expected shape: DDI moves ~10²-10³ bytes per interaction where the
thin-client moves a dithered frame (~10³-10⁴ on a phone, ~10⁶ on a TV
panel) — but the thin-client path needs no appliance-side UI description
and works with unmodified GUI applications (E8), which is the paper's
trade.
"""

from __future__ import annotations

import pytest

from repro import Home
from repro.app import DdiController
from repro.appliances import Television
from repro.devices import CellPhone
from repro.havi import SEID
from repro.util.ids import guid_from_seed


def _uip_setup():
    home = Home(width=480, height=360)
    tv = home.add_appliance(Television("TV"))
    home.settle()
    phone = CellPhone("keitai", home.scheduler)
    phone.connect(home.proxy)
    home.proxy.select_input("keitai")
    home.proxy.select_output("keitai")
    home.settle()
    return home, tv, phone


def _ddi_setup():
    home = Home(width=480, height=360)
    tv = home.add_appliance(Television("TV"))
    home.settle()
    controller = DdiController(
        SEID(guid_from_seed("bench-ddi"), 0),
        home.network.messaging, home.network.events)
    controller.attach()
    controller.open(tv.dcm.seid)
    home.settle()
    return home, tv, controller


def test_uip_interaction_bytes(benchmark):
    home, tv, phone = _uip_setup()

    def toggle():
        before = (phone.link_stats.bytes_received
                  + phone.link_stats.bytes_sent)
        phone.press("5")
        home.settle()
        return (phone.link_stats.bytes_received
                + phone.link_stats.bytes_sent) - before

    bytes_per_toggle = benchmark(toggle)
    benchmark.extra_info["bytes_per_interaction"] = bytes_per_toggle
    benchmark.extra_info["path"] = "universal interaction (pixels)"


def test_ddi_interaction_bytes(benchmark):
    home, tv, controller = _ddi_setup()

    def toggle():
        before = controller.bytes_moved
        controller.action("1:power", verb="toggle")
        home.settle()
        return controller.bytes_moved - before

    bytes_per_toggle = benchmark(toggle)
    benchmark.extra_info["bytes_per_interaction"] = bytes_per_toggle
    benchmark.extra_info["path"] = "DDI (semantic)"


def test_setup_cost_comparison(benchmark):
    """Initial UI acquisition: DDI tree fetch vs first thin-client frame."""

    def measure():
        home_u, tv_u, phone = _uip_setup()
        uip_setup_bytes = phone.link_stats.bytes_received
        home_d, tv_d, controller = _ddi_setup()
        ddi_setup_bytes = controller.bytes_moved
        return {"uip": uip_setup_bytes, "ddi": ddi_setup_bytes}

    result = benchmark.pedantic(measure, rounds=3, iterations=1)
    benchmark.extra_info.update(result)
    # both fetch an initial UI of the same order of magnitude
    assert result["uip"] > 0 and result["ddi"] > 0


def test_shape_ddi_much_smaller_per_interaction(benchmark):
    home_u, tv_u, phone = _uip_setup()
    home_d, tv_d, controller = _ddi_setup()

    def both():
        before_u = phone.link_stats.bytes_received + phone.link_stats.bytes_sent
        phone.press("5")
        home_u.settle()
        uip = (phone.link_stats.bytes_received
               + phone.link_stats.bytes_sent) - before_u
        before_d = controller.bytes_moved
        controller.action("1:power", verb="toggle")
        home_d.settle()
        ddi = controller.bytes_moved - before_d
        return {"uip": uip, "ddi": ddi}

    result = benchmark.pedantic(both, rounds=3, iterations=1)
    assert result["ddi"] < result["uip"]
    benchmark.extra_info.update(result)
    benchmark.extra_info["uip_over_ddi"] = round(
        result["uip"] / result["ddi"], 1)
