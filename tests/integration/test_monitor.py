"""The status monitor: a second, independent universal-interaction app.

Proves the paper's transparency property is architectural: a different
application, written only against the toolkit + HAVi, is immediately
drivable through the same UniInt pipeline from any device.
"""

import pytest

from repro.app.monitor import StatusMonitorApplication
from repro.appliances import DimmableLight, Television
from repro.devices import CellPhone
from repro.havi import FcmType, HomeNetwork
from repro.net import ETHERNET_100, make_pipe
from repro.proxy import UniIntProxy
from repro.server import UniIntServer
from repro.toolkit import UIWindow
from repro.util import Scheduler
from repro.windows import DisplayServer


def build_monitor_home():
    scheduler = Scheduler()
    network = HomeNetwork(scheduler)
    tv = Television("TV")
    lamp = DimmableLight("Lamp")
    network.attach_device(tv)
    network.attach_device(lamp)
    network.settle()
    window = UIWindow(320, 240)
    monitor = StatusMonitorApplication(network, window)
    return scheduler, network, tv, lamp, window, monitor


class TestMonitorApp:
    def test_lists_all_appliances(self):
        scheduler, network, tv, lamp, window, monitor = build_monitor_home()
        assert window.root.find(f"monitor.{tv.guid[:8]}.status") is not None
        assert window.root.find(
            f"monitor.{lamp.guid[:8]}.status") is not None

    def test_status_follows_power_events(self):
        scheduler, network, tv, lamp, window, monitor = build_monitor_home()
        row = window.root.find(f"monitor.{tv.guid[:8]}.status")
        assert row.text == "standby"
        tv.dcm.fcm_by_type(FcmType.TUNER).invoke_local(
            "power.set", {"on": True})
        network.settle()
        assert row.text == "ON"

    def test_wattage_estimate_changes(self):
        scheduler, network, tv, lamp, window, monitor = build_monitor_home()
        idle = monitor.watts
        tv.dcm.fcm_by_type(FcmType.TUNER).invoke_local(
            "power.set", {"on": True})
        network.settle()
        assert monitor.watts > idle

    def test_standby_all(self):
        scheduler, network, tv, lamp, window, monitor = build_monitor_home()
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        light = lamp.dcm.fcm_by_type(FcmType.LIGHT)
        tuner.invoke_local("power.set", {"on": True})
        light.invoke_local("power.set", {"on": True})
        network.settle()
        monitor.standby_all()
        network.settle()
        assert tuner.get_state("power") is False
        assert light.get_state("power") is False

    def test_hotplug_rebuilds(self):
        scheduler, network, tv, lamp, window, monitor = build_monitor_home()
        network.detach_device(lamp.guid)
        network.settle()
        assert window.root.find(f"monitor.{lamp.guid[:8]}.status") is None


class TestMonitorThroughDevices:
    def test_phone_presses_standby_all_through_the_pipeline(self):
        """A different app, same universal interaction — zero app changes."""
        scheduler, network, tv, lamp, window, monitor = build_monitor_home()
        tv.dcm.fcm_by_type(FcmType.TUNER).invoke_local(
            "power.set", {"on": True})
        network.settle()
        display = DisplayServer(window)
        server = UniIntServer(display, scheduler)
        proxy = UniIntProxy(scheduler)
        pipe = make_pipe(scheduler, ETHERNET_100)
        server.accept(pipe.a)
        proxy.connect(pipe.b)
        phone = CellPhone("keitai", scheduler)
        phone.connect(proxy)
        proxy.select_input("keitai")
        proxy.select_output("keitai")
        scheduler.run_until_idle()
        # the standby button is the monitor's only focusable widget
        assert window.focus is window.root.find("monitor.standby-all")
        phone.press("5")
        scheduler.run_until_idle()
        assert tv.dcm.fcm_by_type(FcmType.TUNER).get_state("power") is False
        # and the phone saw the status row repaint
        assert phone.frames_received >= 2
