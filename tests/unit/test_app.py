"""Unit tests for the application layer: handles, panels, composer."""

import pytest

from repro.app import ApplianceHandle, FcmHandle, build_fcm_panel, compose_ui
from repro.appliances import APPLIANCE_CLASSES
from repro.havi import HomeNetwork, SEID, SoftwareElement
from repro.havi.events import HaviEvent
from repro.toolkit import Column, Label, Panel, TabPanel, UIWindow
from repro.util.ids import guid_from_seed


def shipped_fcms():
    """fcm_type -> a live FCM, for every FCM a shipped appliance carries."""
    network = HomeNetwork()
    appliances = [cls(kind) for kind, cls in sorted(APPLIANCE_CLASSES.items())]
    for appliance in appliances:
        network.attach_device(appliance)
    network.settle()
    return {fcm.fcm_type.value: fcm
            for appliance in appliances for fcm in appliance.dcm.fcms}


SHIPPED_FCMS = shipped_fcms()


def make_handle(fcm_type="tuner", state=None, described=False):
    network = HomeNetwork()
    app = SoftwareElement(SEID(guid_from_seed("test-app"), 0),
                          network.messaging)
    app.attach()
    handle = FcmHandle(app, SEID(guid_from_seed("test-dev"), 1), {
        "fcm.type": fcm_type,
        "device.guid": guid_from_seed("test-dev"),
        "device.name": "Test Device",
        "device.class": "tv",
    })
    handle.state.update(state or {})
    if described:
        handle.descriptor = SHIPPED_FCMS[fcm_type].capability_descriptor()
    return network, handle


class TestFcmHandle:
    def test_listeners_fire_on_new_value(self):
        network, handle = make_handle()
        seen = []
        handle.listeners.append(lambda k, v: seen.append((k, v)))
        handle._set("power", True)
        handle._set("power", True)   # duplicate: no event
        handle._set("power", False)
        assert seen == [("power", True), ("power", False)]

    def test_on_event_absorbs_payload(self):
        network, handle = make_handle()
        handle.on_event(HaviEvent(
            source=handle.seid, opcode="fcm.state.volume",
            payload={"key": "volume", "value": 42}))
        assert handle.get("volume") == 42

    def test_command_records_errors(self):
        network, handle = make_handle()
        handle.command("whatever.op")  # destination does not exist
        network.settle()
        assert handle.commands_sent == 1
        assert any("EUNKNOWN_ELEMENT" in e for e in handle.errors)

    def test_get_default(self):
        network, handle = make_handle()
        assert handle.get("missing", "fallback") == "fallback"


class TestApplianceHandle:
    def test_fcm_by_type(self):
        network, tuner = make_handle("tuner")
        _, display = make_handle("display")
        appliance = ApplianceHandle("guid", "TV", "tv")
        appliance.add(tuner)
        appliance.add(display)
        assert appliance.fcm_by_type("tuner") is tuner
        assert appliance.fcm_by_type("vcr") is None


class TestPanelBuilders:
    @pytest.mark.parametrize("fcm_type", sorted(SHIPPED_FCMS))
    def test_every_builder_produces_renderable_panel(self, fcm_type):
        network, handle = make_handle(
            fcm_type, state=SHIPPED_FCMS[fcm_type].state, described=True)
        panel = build_fcm_panel(handle)
        assert isinstance(panel, Panel)
        assert panel.find(f"{handle.guid_prefix}.{fcm_type}.unsupported") \
            is None
        window = UIWindow(320, 400)
        root = Column()
        root.add(panel)
        window.set_root(root)
        region = window.render()
        assert not region.is_empty

    def test_unknown_type_gets_generic_panel(self):
        network, handle = make_handle("teleporter", state={"charge": 3})
        panel = build_fcm_panel(handle)
        window = UIWindow(320, 200)
        root = Column()
        root.add(panel)
        window.set_root(root)
        window.render()
        state_label = panel.find(f"{handle.device_guid[:8]}"
                                 f".teleporter.state")
        assert "charge=3" in state_label.text

    def test_a_generic_panel_follows_state(self):
        network, handle = make_handle("teleporter", state={"charge": 3})
        panel = build_fcm_panel(handle)
        state_label = panel.find(f"{handle.device_guid[:8]}"
                                 f".teleporter.state")
        handle._set("charge", 4)
        assert state_label.text == "charge=4"

    def test_panel_widgets_follow_state(self):
        network, handle = make_handle("tuner", state={"volume": 10},
                                      described=True)
        panel = build_fcm_panel(handle)
        window = UIWindow(320, 200)
        root = Column()
        root.add(panel)
        window.set_root(root)
        volume = panel.find(f"{handle.device_guid[:8]}.tuner.volume")
        assert volume.value == 10
        handle._set("volume", 77)
        assert volume.value == 77

    def test_panel_widget_sends_command(self):
        network, handle = make_handle("light", described=True)
        panel = build_fcm_panel(handle)
        window = UIWindow(320, 200)
        root = Column()
        root.add(panel)
        window.set_root(root)
        power = panel.find(f"{handle.device_guid[:8]}.light.power")
        power.toggle()
        assert handle.commands_sent == 1


class TestComposer:
    def _appliance(self, name, *fcm_types):
        appliance = ApplianceHandle(guid_from_seed(name), name, "x")
        for fcm_type in fcm_types:
            _, handle = make_handle(fcm_type)
            appliance.add(handle)
        return appliance

    def test_empty_home(self):
        root = compose_ui([])
        assert root.find("no-appliances") is not None

    def test_single_appliance_no_tabs(self):
        root = compose_ui([self._appliance("TV", "tuner", "display")])
        assert not isinstance(root, TabPanel)
        assert len(root.children) == 2  # two FCM panels stacked

    def test_multiple_appliances_tabbed(self):
        root = compose_ui([
            self._appliance("TV", "tuner"),
            self._appliance("VCR", "vcr"),
            self._appliance("Amp", "amplifier"),
        ])
        assert isinstance(root, TabPanel)
        assert root.titles == ["TV", "VCR", "Amp"]
        assert root.active == 0

    def test_pages_carry_guid_ids(self):
        appliance = self._appliance("TV", "tuner")
        root = compose_ui([appliance, self._appliance("VCR", "vcr")])
        assert root.find(f"page.{appliance.guid[:8]}") is not None
