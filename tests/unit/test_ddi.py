"""Unit tests for the HAVi DDI layer."""

import pytest

from repro.app import DdiController
from repro.appliances import (
    DimmableLight,
    MicrowaveOven,
    Television,
    VideoRecorder,
)
from repro.havi import FcmType, HomeNetwork, SEID, SoftwareElement
from repro.havi.ddi import (
    DdiPanel,
    DdiRange,
    DdiToggle,
    _generic_spec,
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


def controller_for(network, appliance, client="ddi-client"):
    controller = DdiController(
        SEID(guid_from_seed(client), 0), network.messaging, network.events)
    controller.attach()
    trees = []
    controller.open(appliance.dcm.seid, on_tree=trees.append)
    network.settle()
    assert controller.tree is not None and trees == [controller.tree]
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


class TestDcmIsTheDdiTarget:
    def test_no_controller_no_ddi_work(self):
        tv = Television("TV")
        network = home_with(tv)
        fired = network.scheduler.fired_count
        tv.dcm.fcm_by_type(FcmType.TUNER).invoke_local(
            "power.set", {"on": True})
        network.settle()
        assert network.scheduler.fired_count == fired

    def test_controller_caches_the_dcm_tree(self):
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv)
        assert controller.tree.to_dict() == build_tree(tv.dcm).to_dict()

    @pytest.mark.parametrize("make, fcm_type, command, args, change", [
        (Television, FcmType.DISPLAY, "source.set", {"source": "dvd"},
         ("2:source", "dvd")),
        # the VCR's deck (handle 1) has a "power" too
        (VideoRecorder, FcmType.TUNER, "power.set", {"on": True},
         ("2:power", True)),
    ])
    def test_second_fcm_change_reaches_controller(self, make, fcm_type,
                                                  command, args, change):
        appliance = make("Box")
        network = home_with(appliance)
        controller = controller_for(network, appliance)
        changes = []
        controller.on_changed = lambda eid, value: changes.append(
            (eid, value))
        appliance.dcm.fcm_by_type(fcm_type).invoke_local(command, args)
        network.settle()
        assert changes == [change]
        element_id, value = change
        assert controller.tree.find(element_id).value == value

    def test_controllers_follow_only_their_own_target(self):
        tv = Television("TV")
        lamp = DimmableLight("Lamp")
        network = home_with(tv, lamp)
        tv_controller = controller_for(network, tv, "tv-client")
        lamp_controller = controller_for(network, lamp, "lamp-client")
        seen = {"tv": [], "lamp": []}
        tv_controller.on_changed = lambda eid, value: seen["tv"].append(
            (eid, value))
        lamp_controller.on_changed = lambda eid, value: seen[
            "lamp"].append((eid, value))
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        light = lamp.dcm.fcm_by_type(FcmType.LIGHT)
        tuner.invoke_local("power.set", {"on": True})
        light.invoke_local("power.toggle")
        network.settle()
        # both appliances have a "1:power": only the target's change lands
        assert seen == {"tv": [("1:power", True)],
                        "lamp": [("1:power", True)]}
        tv_controller.close()
        tuner.invoke_local("power.set", {"on": False})
        light.invoke_local("power.toggle")
        network.settle()
        assert seen == {"tv": [("1:power", True)],
                        "lamp": [("1:power", True), ("1:power", False)]}
        assert lamp_controller.tree.find("1:power").value is False


class TestControllerActions:
    def test_toggle_action_drives_appliance(self):
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv)
        controller.action("1:power", verb="toggle")
        network.settle()
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        assert tuner.get_state("power") is True

    def test_range_set(self):
        tv = Television("TV")
        network = home_with(tv)
        tv.dcm.fcm_by_type(FcmType.TUNER).invoke_local(
            "power.set", {"on": True})
        controller = controller_for(network, tv)
        controller.action("1:volume", verb="set", value=45)
        network.settle()
        assert tv.dcm.fcm_by_type(FcmType.TUNER).get_state("volume") == 45

    def test_button_press_with_args(self):
        oven = MicrowaveOven("Oven")
        network = home_with(oven)
        controller = controller_for(network, oven)
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
        controller = controller_for(network, tv)
        controller.action("2:source", verb="set", value="dvd")
        network.settle()
        display = tv.dcm.fcm_by_type(FcmType.DISPLAY)
        assert display.get_state("source") == "dvd"

    def test_invalid_verb_rejected(self):
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv)
        replies = []
        controller.action("1:power", verb="set_fire",
                          on_reply=replies.append)
        network.settle()
        assert replies[0].status == "EINVALID_ARG"

    def test_unknown_element_rejected(self):
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv)
        replies = []
        controller.action("9:nothing", on_reply=replies.append)
        network.settle()
        assert replies[0].status == "EUNKNOWN_ELEMENT"

    def test_root_panel_is_no_action_target(self):
        # the root belongs to no FCM: refused like an unknown element
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv)
        replies = []
        controller.action(controller.tree.element_id, on_reply=replies.append)
        network.settle()
        assert replies[0].status == "EUNKNOWN_ELEMENT"

    def test_fcm_error_propagates_status(self):
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv)
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
        controller = controller_for(network, tv)
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
        controller = controller_for(network, tv)
        changes = []
        controller.on_changed = lambda eid, value: changes.append(eid)
        lamp.dcm.fcm_by_type(FcmType.LIGHT).invoke_local("power.toggle")
        network.settle()
        assert changes == []  # the lamp is not our target

    def test_close_stops_updates(self):
        tv = Television("TV")
        network = home_with(tv)
        controller = controller_for(network, tv)
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
        controller = controller_for(network, tv)
        assert controller.bytes_moved == 1499  # the request and the tree
        moved = []
        for _ in range(4):
            before = controller.bytes_moved
            controller.action("1:power", verb="toggle")
            network.settle()
            moved.append(controller.bytes_moved - before)
        # action, reply and the modelled ddi.changed notice per toggle
        assert moved == [195, 197, 195, 197]
