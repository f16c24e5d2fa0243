"""Property tests for capability descriptors and the surfaces they drive.

Three contracts:

* descriptor wire round-trip is lossless for every valid capability,
* :func:`build_capability_panel` renders any valid descriptor and gives
  every capability a locatable widget,
* descriptor-derived DDI trees are semantically equivalent to the legacy
  hand-authored DDI specs frozen in ``tests/fixtures/legacy_surfaces.json``
  — every legacy command/state binding is still reachable, with identical
  bounds, steps and option sets.
"""

import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.app.handles import FcmHandle
from repro.app.panels import build_capability_panel
from repro.appliances import APPLIANCE_CLASSES
from repro.havi import (
    CAPABILITY_KINDS,
    Capability,
    CapabilityDescriptor,
    HomeNetwork,
    SEID,
    SoftwareElement,
)
from repro.havi.ddi import (
    DdiChoice,
    DdiRange,
    DdiToggle,
    ddi_elements_from_descriptor,
    element_from_dict,
)
from repro.toolkit import Column, UIWindow
from repro.util.ids import guid_from_seed

name_chars = "abcdefghijklmnopqrstuvwxyz0123456789-_"
names = st.text(alphabet=name_chars, min_size=1, max_size=12)
labels = st.text(alphabet=st.characters(min_codepoint=0x20,
                                        max_codepoint=0x7E), max_size=10)
kinds = st.sampled_from(CAPABILITY_KINDS + ("hologram", "gesture"))

#: The hand-authored DDI specs' contract, per FCM type.
LEGACY_DDI = json.loads((Path(__file__).resolve().parents[1] / "fixtures"
                         / "legacy_surfaces.json").read_text())["ddi_specs"]


@st.composite
def capabilities(draw, name=None):
    kind = draw(kinds)
    name = name if name is not None else draw(names)
    bounded = kind in ("range", "progress", "number")
    minimum = draw(st.integers(-50, 50)) if bounded else None
    maximum = (minimum + draw(st.integers(1, 100))) if bounded else None
    read_only = kind in ("text", "progress") or draw(st.booleans())
    command = "" if read_only else f"{name}.set"
    return Capability(
        kind=kind, name=name, label=draw(labels),
        attribute=draw(st.one_of(st.just(""), st.just(name))),
        command=command,
        arg_name=draw(st.sampled_from(("", "value", "on"))),
        args=draw(st.dictionaries(st.text(name_chars, min_size=1,
                                          max_size=4),
                                  st.integers(), max_size=2)),
        minimum=minimum, maximum=maximum,
        step=draw(st.integers(1, 10)),
        choices=(tuple(draw(st.lists(names, min_size=1, max_size=4,
                                     unique=True)))
                 if kind == "choice" else ()),
        unit=draw(st.sampled_from(("", "C", "%"))),
        read_only=read_only,
        component=draw(st.sampled_from(("main", "upper", "lower"))),
        fmt=draw(st.sampled_from(("", "{value}", "Ch {value}"))),
    )


@st.composite
def descriptors(draw):
    unique_names = draw(st.lists(names, min_size=1, max_size=6,
                                 unique=True))
    return CapabilityDescriptor(
        fcm_type=draw(names),
        capabilities=tuple(draw(capabilities(name=n))
                           for n in unique_names))


class TestWireRoundTrip:
    @given(capabilities())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_capability_round_trip(self, capability):
        assert Capability.from_dict(capability.to_dict()) == capability

    @given(descriptors())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_descriptor_round_trip(self, descriptor):
        again = CapabilityDescriptor.from_dict(descriptor.to_dict())
        assert again == descriptor
        assert again.to_dict() == descriptor.to_dict()


class TestGeneratedPanels:
    def _handle(self, descriptor):
        network = HomeNetwork()
        element = SoftwareElement(SEID(guid_from_seed("prop-app"), 0),
                                  network.messaging)
        element.attach()
        handle = FcmHandle(element, SEID(guid_from_seed("prop-dev"), 1), {
            "fcm.type": descriptor.fcm_type,
            "device.guid": guid_from_seed("prop-dev"),
            "device.name": "Prop Device",
            "device.class": "x",
        })
        handle.descriptor = descriptor
        return handle

    @given(descriptors())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_valid_descriptor_builds_and_renders(self, descriptor):
        handle = self._handle(descriptor)
        panel = build_capability_panel(handle)
        prefix = handle.guid_prefix
        for capability in descriptor:
            wid = f"{prefix}.{descriptor.fcm_type}.{capability.name}"
            assert panel.find(wid) is not None, f"no widget for {wid}"
        window = UIWindow(360, 480)
        root = Column()
        root.add(panel)
        window.set_root(root)
        window.render()
        window.set_root(Column())  # teardown must detach every listener
        assert handle.listeners == []


class TestApplianceContracts:
    def test_generated_commands_accepted_by_their_fcm(self):
        """For every shipped appliance: each descriptor command is a
        registered verb and each attribute an existing state key."""
        network = HomeNetwork()
        appliances = [APPLIANCE_CLASSES[kind](kind)
                      for kind in sorted(APPLIANCE_CLASSES)]
        for appliance in appliances:
            network.attach_device(appliance)
        network.settle()
        for appliance in appliances:
            for fcm in appliance.dcm.fcms:
                descriptor = fcm.capability_descriptor()
                for capability in descriptor:
                    if capability.command:
                        assert capability.command in fcm.commands
                    if capability.attribute:
                        assert capability.attribute in fcm.state


class TestDdiSemanticEquivalence:
    """Descriptor-derived DDI trees must not regress the legacy specs."""

    def _spec_pairs(self):
        network = HomeNetwork()
        appliances = [APPLIANCE_CLASSES[kind](kind)
                      for kind in sorted(APPLIANCE_CLASSES)]
        for appliance in appliances:
            network.attach_device(appliance)
        network.settle()
        for appliance in appliances:
            for fcm in appliance.dcm.fcms:
                spec = LEGACY_DDI.get(fcm.fcm_type.value)
                if spec is None or not fcm.capabilities:
                    continue
                legacy = [element_from_dict({**data, "id": f"1:{data['id']}"})
                          for data in spec]
                dynamic = []
                for element in ddi_elements_from_descriptor("1:", fcm):
                    if hasattr(element, "walk"):
                        dynamic.extend(element.walk())
                    else:
                        dynamic.append(element)
                yield fcm, legacy, dynamic

    def test_every_legacy_command_still_reachable(self):
        checked = 0
        for fcm, legacy, dynamic in self._spec_pairs():
            dynamic_commands = {getattr(e, "command", "")
                                for e in dynamic} - {""}
            for element in legacy:
                command = getattr(element, "command", "")
                if command:
                    checked += 1
                    assert command in dynamic_commands, (
                        f"{fcm.fcm_type.value}: legacy command "
                        f"{command!r} lost in dynamic tree")
        assert checked > 20  # the sweep actually covered the gallery

    def test_every_legacy_interactive_key_still_bound(self):
        for fcm, legacy, dynamic in self._spec_pairs():
            dynamic_keys = {getattr(e, "key", "") for e in dynamic} - {""}
            for element in legacy:
                if isinstance(element, (DdiToggle, DdiRange, DdiChoice)):
                    assert element.key in dynamic_keys, (
                        f"{fcm.fcm_type.value}: key {element.key!r} "
                        f"unbound in dynamic tree")

    def test_matching_controls_keep_bounds_and_options(self):
        for fcm, legacy, dynamic in self._spec_pairs():
            by_command = {getattr(e, "command", ""): e for e in dynamic
                          if getattr(e, "command", "")}
            for element in legacy:
                twin = by_command.get(getattr(element, "command", ""))
                if twin is None:
                    continue
                if isinstance(element, DdiRange) and isinstance(twin,
                                                                DdiRange):
                    assert (twin.minimum, twin.maximum) == (
                        element.minimum, element.maximum), (
                        f"{fcm.fcm_type.value}: {element.element_id} "
                        f"bounds drifted")
                    assert twin.step == element.step
                    assert twin.arg_name == element.arg_name
                if isinstance(element, DdiChoice) and isinstance(
                        twin, DdiChoice):
                    assert twin.options == element.options
                    assert twin.arg_name == element.arg_name
                if isinstance(element, DdiToggle) and isinstance(
                        twin, DdiToggle):
                    assert twin.arg_name == element.arg_name
                    assert twin.key == element.key
