"""Unit tests for typed capability descriptors and their registry entry."""

import pytest

from repro.appliances import APPLIANCE_CLASSES, Refrigerator, Television
from repro.havi import (
    Capability,
    CapabilityDescriptor,
    CapabilityError,
    FcmType,
    HomeNetwork,
    MAIN_COMPONENT,
)
from repro.util.errors import FcmError


def home_with(*appliances):
    network = HomeNetwork()
    for appliance in appliances:
        network.attach_device(appliance)
    network.settle()
    return network


class TestCapabilityValidation:
    def test_needs_name(self):
        with pytest.raises(CapabilityError):
            Capability(kind="switch", name="", command="x.set")

    def test_needs_kind(self):
        with pytest.raises(CapabilityError):
            Capability(kind="", name="power", command="x.set")

    def test_range_needs_bounds(self):
        with pytest.raises(CapabilityError):
            Capability(kind="range", name="volume", command="volume.set")

    def test_range_bounds_must_be_nonempty(self):
        with pytest.raises(CapabilityError):
            Capability(kind="range", name="volume", command="volume.set",
                       minimum=10, maximum=10)

    def test_choice_needs_choices(self):
        with pytest.raises(CapabilityError):
            Capability(kind="choice", name="mode", command="mode.set")

    def test_writable_needs_command(self):
        with pytest.raises(CapabilityError):
            Capability(kind="switch", name="power")

    def test_text_is_implicitly_read_only_friendly(self):
        cap = Capability(kind="text", name="status", attribute="status",
                         read_only=True)
        assert cap.command == ""

    def test_display_label_falls_back_to_name(self):
        cap = Capability(kind="button", name="quick-cool",
                         command="x.set")
        assert cap.display_label == "quick cool"
        assert Capability(kind="button", name="go", label="GO!",
                          command="x").display_label == "GO!"


class TestCapabilityRoundTrip:
    def test_full_round_trip(self):
        cap = Capability(kind="range", name="target", label="Set",
                         attribute="target_temp", command="temp.set",
                         arg_name="temp", minimum=16, maximum=30, step=2,
                         unit="C", component="zone1", fmt="{value}C")
        assert Capability.from_dict(cap.to_dict()) == cap

    def test_defaults_are_omitted_on_the_wire(self):
        cap = Capability(kind="switch", name="power", command="power.set",
                         arg_name="on", attribute="power")
        data = cap.to_dict()
        assert "step" not in data and "component" not in data
        assert "read_only" not in data and "choices" not in data

    def test_button_args_survive(self):
        cap = Capability(kind="button", name="add60", command="timer.add",
                         args={"seconds": 60})
        assert Capability.from_dict(cap.to_dict()).args == {"seconds": 60}


class TestDescriptor:
    def _descriptor(self):
        return CapabilityDescriptor(fcm_type="tuner", capabilities=(
            Capability(kind="switch", name="power", command="power.set",
                       attribute="power"),
            Capability(kind="text", name="station", attribute="station",
                       read_only=True),
        ))

    def test_duplicate_names_rejected(self):
        with pytest.raises(CapabilityError):
            CapabilityDescriptor(fcm_type="x", capabilities=(
                Capability(kind="text", name="a", read_only=True),
                Capability(kind="text", name="a", read_only=True),
            ))

    def test_round_trip(self):
        descriptor = self._descriptor()
        again = CapabilityDescriptor.from_dict(descriptor.to_dict())
        assert again == descriptor

    def test_lookup_helpers(self):
        descriptor = self._descriptor()
        assert descriptor.commands() == {"power.set"}
        assert descriptor.attributes() == {"power", "station"}
        assert descriptor.components() == [MAIN_COMPONENT]

    def test_components_in_declared_order(self):
        fridge = Refrigerator("Fridge")
        home_with(fridge)
        fcm = fridge.dcm.fcm_by_type(FcmType.REFRIGERATOR)
        descriptor = fcm.capability_descriptor()
        assert descriptor.components() == ["fridge", "freezer", "icemaker"]
        assert [c.name for c in descriptor.for_component("icemaker")] == [
            "ice-mode", "ice-level", "ice-dispense"]


class TestDeclarationApi:
    def test_declaration_registers_command_and_state(self):
        tv = Television("TV")
        home_with(tv)
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        descriptor = tuner.capability_descriptor()
        for capability in descriptor:
            if capability.command:
                assert capability.command in tuner.commands
            if capability.attribute:
                assert capability.attribute in tuner.state

    def test_duplicate_declaration_rejected(self):
        tv = Television("TV")
        home_with(tv)
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        with pytest.raises(FcmError):
            tuner.declare_switch("power", command="power.set")

    def test_each_declaration_extends_the_descriptor(self):
        tv = Television("TV")
        home_with(tv)
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        before = tuner.capability_descriptor()
        extra = tuner.declare_text("extra", initial="x")
        after = tuner.capability_descriptor()
        assert after.capabilities == before.capabilities + (extra,)

    def test_validate_catches_drift(self):
        tv = Television("TV")
        home_with(tv)
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        tuner.validate_capabilities()  # declared set is consistent
        tuner._capabilities.append(Capability(
            kind="button", name="ghost", command="no.such.verb"))
        with pytest.raises(FcmError):
            tuner.validate_capabilities()

    def test_every_appliance_validates(self):
        for name, cls in sorted(APPLIANCE_CLASSES.items()):
            appliance = cls(name)
            home_with(appliance)
            for fcm in appliance.dcm.fcms:
                fcm.validate_capabilities()

    def test_registry_entry_carries_the_descriptor(self):
        tv = Television("TV")
        network = home_with(tv)
        from repro.havi import Comparison
        seids = network.registry.query(
            Comparison("fcm.type", "==", "tuner"))
        attrs = network.registry.get_attributes(seids[0])
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        descriptor = CapabilityDescriptor.from_dict(
            attrs["capability.descriptor"])
        assert descriptor == tuner.capability_descriptor()
        assert len(descriptor) > 0

