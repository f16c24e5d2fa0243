"""Unit tests for the HAVi DDI layer."""

import pytest

from repro.appliances import DimmableLight, MicrowaveOven, Television
from repro.havi import FcmType, HomeNetwork, SEID, SoftwareElement
from repro.havi.ddi import (
    DdiController,
    DdiPanel,
    DdiRange,
    DdiToggle,
    build_tree,
    element_from_dict,
    render_text,
)
from repro.util.ids import guid_from_seed


def home_with(*appliances):
    network = HomeNetwork()
    for appliance in appliances:
        network.attach_device(appliance)
    network.settle()
    return network


def controller_for(network, guid):
    controller = DdiController(
        SEID(guid_from_seed("ddi-client"), 0), network.messaging,
        network.events)
    controller.attach()
    server = network.dcm_manager.ddi_server_for(guid)
    assert server is not None
    trees = []
    controller.open(server.seid, on_tree=trees.append)
    network.settle()
    assert controller.tree is not None
    return controller


class TestTreeModel:
    def test_build_tree_reflects_state(self):
        tv = Television("TV")
        network = home_with(tv)
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        tuner.invoke_local("power.set", {"on": True})
        tuner.invoke_local("volume.set", {"volume": 60})
        tree = build_tree(tv.dcm)
        power = tree.find("1:power")
        volume = tree.find("1:volume")
        assert isinstance(power, DdiToggle) and power.value is True
        assert isinstance(volume, DdiRange) and volume.value == 60

    def test_dict_roundtrip(self):
        tv = Television("TV")
        home_with(tv)
        tree = build_tree(tv.dcm)
        again = element_from_dict(tree.to_dict())
        assert isinstance(again, DdiPanel)
        assert [e.element_id for e in again.walk()] == [
            e.element_id for e in tree.walk()]

    def test_unknown_fcm_gets_generic_text_tree(self):
        light = DimmableLight("Lamp")
        network = home_with(light)
        from repro.havi.ddi import _generic_spec
        fcm = light.dcm.fcm_by_type(FcmType.LIGHT)
        elements = _generic_spec("9:", fcm)
        assert {e.key for e in elements} == set(fcm.state)

    def test_render_text_lines(self):
        tv = Television("TV")
        home_with(tv)
        lines = render_text(build_tree(tv.dcm))
        assert lines[0].startswith("[TV]")
        assert any("Power" in line for line in lines)
        assert any("Vol" in line for line in lines)

    def test_dynamic_tree_matches_descriptor_names(self):
        tv = Television("TV")
        home_with(tv)
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        tree = build_tree(tv.dcm)
        ids = {e.element_id for e in tree.walk()}
        for capability in tuner.capabilities:
            assert f"1:{capability.name}" in ids


class TestDdiServerLifecycle:
    def test_server_installed_per_appliance(self):
        tv = Television("TV")
        network = home_with(tv)
        assert network.dcm_manager.ddi_server_for(tv.guid) is not None
        from repro.havi import Comparison
        assert len(network.registry.query(
            Comparison("element.type", "==", "ddi"))) == 1

    def test_server_uninstalled_on_departure(self):
        tv = Television("TV")
        network = home_with(tv)
        network.detach_device(tv.guid)
        network.settle()
        assert network.dcm_manager.ddi_server_for(tv.guid) is None
        from repro.havi import Comparison
        assert network.registry.query(
            Comparison("element.type", "==", "ddi")) == []


class TestControllerActions:
    def test_toggle_action_drives_appliance(self):
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv.guid)
        controller.action("1:power", verb="toggle")
        network.settle()
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        assert tuner.get_state("power") is True

    def test_range_set(self):
        tv = Television("TV")
        network = home_with(tv)
        tv.dcm.fcm_by_type(FcmType.TUNER).invoke_local(
            "power.set", {"on": True})
        controller = controller_for(network, tv.guid)
        controller.action("1:volume", verb="set", value=45)
        network.settle()
        assert tv.dcm.fcm_by_type(FcmType.TUNER).get_state("volume") == 45

    def test_button_press_with_args(self):
        oven = MicrowaveOven("Oven")
        network = home_with(oven)
        controller = controller_for(network, oven.guid)
        controller.action("1:add60", verb="press")  # carries {"seconds": 60}
        controller.action("1:start", verb="press")
        network.scheduler.run_for(1.0)  # settle would skip past the cook
        fcm = oven.dcm.fcm_by_type(FcmType.MICROWAVE)
        assert fcm.get_state("running") is True
        network.settle()
        assert fcm.get_state("cook_count") == 1

    def test_choice_set(self):
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv.guid)
        controller.action("2:source", verb="set", value="dvd")
        network.settle()
        display = tv.dcm.fcm_by_type(FcmType.DISPLAY)
        assert display.get_state("source") == "dvd"

    def test_invalid_verb_rejected(self):
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv.guid)
        replies = []
        controller.action("1:power", verb="set_fire",
                          on_reply=replies.append)
        network.settle()
        assert replies[0].status == "EINVALID_ARG"

    def test_unknown_element_rejected(self):
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv.guid)
        replies = []
        controller.action("9:nothing", on_reply=replies.append)
        network.settle()
        assert replies[0].status == "EUNKNOWN_ELEMENT"

    def test_fcm_error_propagates_status(self):
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv.guid)
        replies = []
        # volume while powered off -> EPOWER_OFF
        controller.action("1:volume", verb="set", value=10,
                          on_reply=replies.append)
        network.settle()
        assert replies[0].status == "EPOWER_OFF"


class TestChangePropagation:
    def test_remote_change_updates_controller_cache(self):
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv.guid)
        changes = []
        controller.on_changed = lambda eid, value: changes.append(
            (eid, value))
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        tuner.invoke_local("power.set", {"on": True})
        network.settle()
        assert ("1:power", True) in changes
        assert controller.tree.find("1:power").value is True

    def test_changes_scoped_to_target_device(self):
        tv = Television("TV")
        lamp = DimmableLight("Lamp")
        network = home_with(tv, lamp)
        controller = controller_for(network, tv.guid)
        changes = []
        controller.on_changed = lambda eid, value: changes.append(eid)
        lamp.dcm.fcm_by_type(FcmType.LIGHT).invoke_local("power.toggle")
        network.settle()
        assert changes == []  # the lamp is not our target

    def test_close_stops_updates(self):
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv.guid)
        changes = []
        controller.on_changed = lambda eid, value: changes.append(eid)
        controller.close()
        tv.dcm.fcm_by_type(FcmType.TUNER).invoke_local(
            "power.set", {"on": True})
        network.settle()
        assert changes == []

    def test_bytes_accounted(self):
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv.guid)
        after_tree = controller.bytes_moved
        assert after_tree > 200  # the tree itself
        controller.action("1:power", verb="toggle")
        network.settle()
        assert controller.bytes_moved > after_tree
