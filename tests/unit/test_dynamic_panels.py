"""Descriptor-generated panels: parity with the hand-written builders.

The tentpole guarantee: :func:`repro.app.panels.build_capability_panel`
must expose the same widget ids, the same focus order and the same
first-frame pixels as the legacy per-type builders it replaced — frozen
per appliance in ``tests/fixtures/legacy_surfaces.json`` — while
appliances that never had a builder (the refrigerator) get a full panel
from their descriptor alone.
"""

import hashlib
import json
import struct
from pathlib import Path

import pytest

from repro import Home
from repro.app import HomeApplianceApplication, build_fcm_panel
from repro.app.composer import assign_guid_prefixes, compose_ui
from repro.app.handles import ApplianceHandle, FcmHandle
from repro.app.panels import build_capability_panel
from repro.appliances import (
    APPLIANCE_CLASSES,
    AirConditioner,
    MicrowaveOven,
    Refrigerator,
    Television,
)
from repro.devices import Pda
from repro.havi import (
    Capability,
    CapabilityDescriptor,
    FcmType,
    HomeNetwork,
    SEID,
    SoftwareElement,
)
from repro.proxy.plugins import _IMAGE_HEADER
from repro.toolkit import Column, UIWindow
from repro.util.ids import guid_from_seed, guid_prefixes

#: What the hand-written builders guaranteed, frozen before their removal.
LEGACY = json.loads((Path(__file__).resolve().parents[1] / "fixtures"
                     / "legacy_surfaces.json").read_text())
#: The device-image header when the fixture was frozen: width, height,
#: format code and payload length, without the box fields.
LEGACY_IMAGE_HEADER = struct.Struct(">HHBI")

#: Appliances that had a hand-written builder for every FCM (the
#: refrigerator never had one — it is descriptor-only).
LEGACY_APPLIANCES = sorted(LEGACY["panels"])


def make_app(*appliances):
    network = HomeNetwork()
    for appliance in appliances:
        network.attach_device(appliance)
    network.settle()
    window = UIWindow(480, 420)
    app = HomeApplianceApplication(network, window)
    network.settle()  # state reads land
    return network, window, app


def widget_ids(root):
    return {w.widget_id for w in root.walk() if w.widget_id is not None}


def offline_handle(fcm_type="tuner", state=None):
    network = HomeNetwork()
    element = SoftwareElement(SEID(guid_from_seed("panel-app"), 0),
                              network.messaging)
    element.attach()
    handle = FcmHandle(element, SEID(guid_from_seed("panel-dev"), 1), {
        "fcm.type": fcm_type,
        "device.guid": guid_from_seed("panel-dev"),
        "device.name": "Bench Device",
        "device.class": "x",
    })
    handle.state.update(state or {})
    return network, handle


def generic_ids(app, ids):
    """Ids with the appliance's guid prefix written as the fixture does."""
    guid8 = app.appliances[0].guid_prefix
    return [wid.replace(guid8, "<guid8>") for wid in ids]


class TestWidgetIdParity:
    @pytest.mark.parametrize("kind", LEGACY_APPLIANCES)
    def test_same_ids_as_legacy_builder(self, kind):
        _, window, app = make_app(APPLIANCE_CLASSES[kind](kind))
        assert sorted(generic_ids(app, widget_ids(window.root))) == \
            LEGACY["panels"][kind]["widget_ids"]

    @pytest.mark.parametrize("kind", LEGACY_APPLIANCES)
    def test_focus_order_matches_legacy(self, kind):
        """Keypad Tab traversal (pre-order walk over focusable widgets)
        must visit the same widgets in the same order as the legacy
        builder did."""
        _, window, app = make_app(APPLIANCE_CLASSES[kind](kind))
        focus = [w.widget_id for w in window.root.walk()
                 if w.focusable and w.widget_id is not None]
        assert generic_ids(app, focus) == \
            LEGACY["panels"][kind]["focus_order"]

    def test_pda_first_frame_matches_legacy(self):
        """The composed TV + microwave + aircon home reaches a PDA as the
        same number of bytes the hand-written panels produced, showing the
        pixels the descriptor panels showed while both paths existed.

        The fixture's byte count predates boxed device images: their
        header has grown by the box fields since, so the link carries the
        legacy bytes plus that growth per frame."""
        home = Home(width=480, height=360)
        for appliance in (Television("TV"), MicrowaveOven("Oven"),
                          AirConditioner("Aircon")):
            home.add_appliance(appliance)
        home.settle()
        pda = Pda("meter", home.scheduler)
        pda.connect(home.proxy)
        home.proxy.select_output("meter")
        home.settle()
        legacy = LEGACY["pda_first_frame"]
        assert pda.frames_received == legacy["frames_received"]
        growth = _IMAGE_HEADER.size - LEGACY_IMAGE_HEADER.size
        assert pda.link_stats.bytes_received == (
            legacy["bytes_received"] + growth * legacy["frames_received"])
        assert hashlib.sha256(pda.screen_image.data).hexdigest() == \
            LEGACY["pda_first_frame_descriptor"]["screen_sha256"]


class TestCommandParity:
    def test_toggle_drives_fcm(self):
        tv = Television("TV")
        network, window, app = make_app(tv)
        prefix = tv.guid[:8]
        window.root.find(f"{prefix}.tuner.power").toggle()
        network.settle()
        assert tv.dcm.fcm_by_type(FcmType.TUNER).get_state("power") is True

    def test_slider_drives_fcm_and_follows_state(self):
        tv = Television("TV")
        network, window, app = make_app(tv)
        prefix = tv.guid[:8]
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        tuner.invoke_local("power.set", {"on": True})
        network.settle()
        volume = window.root.find(f"{prefix}.tuner.volume")
        volume._set_and_notify(45)
        network.settle()
        assert tuner.get_state("volume") == 45
        # reverse direction: a change from elsewhere updates the widget
        tuner.invoke_local("volume.set", {"volume": 80})
        network.settle()
        assert volume.value == 80

    def test_listbox_drives_fcm(self):
        tv = Television("TV")
        network, window, app = make_app(tv)
        prefix = tv.guid[:8]
        sources = window.root.find(f"{prefix}.display.source")
        sources._select(sources.items.index("dvd"), 3)
        network.settle()
        display = tv.dcm.fcm_by_type(FcmType.DISPLAY)
        assert display.get_state("source") == "dvd"

    def test_number_entry_drives_fcm(self):
        tv = Television("TV")
        network, window, app = make_app(tv)
        prefix = tv.guid[:8]
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        tuner.invoke_local("power.set", {"on": True})
        entry = window.root.find(f"{prefix}.tuner.ch-entry")
        entry.text = "8"
        entry.on_activate(entry)
        network.settle()
        assert tuner.get_state("channel") == 8
        assert entry.text == ""  # submitted entries clear

    def test_every_generated_command_is_accepted(self):
        """No generated widget may send a verb its FCM rejects as
        unsupported (the descriptor<->behaviour contract, end to end)."""
        for kind in sorted(APPLIANCE_CLASSES):
            appliance = APPLIANCE_CLASSES[kind](kind)
            network, _, app = make_app(appliance)
            for handle in app.appliances[0].fcms:
                descriptor = handle.descriptor
                if descriptor is None:
                    continue
                fcm = next(f for f in appliance.dcm.fcms
                           if f.fcm_type.value == handle.fcm_type)
                for capability in descriptor:
                    if capability.command:
                        assert capability.command in fcm.commands, (
                            f"{kind}/{handle.fcm_type}: "
                            f"{capability.command}")


class TestRegistryDescriptors:
    """Each handle reads its descriptor from the FCM's registry entry, and
    a rebuild keeps every handle whose FCM stays installed."""

    def test_one_settle_of_arrivals_costs_one_rebuild(self):
        network, window, app = make_app()
        rebuilds = app.rebuild_count
        for appliance in (Television("TV"), MicrowaveOven("Oven"),
                          Refrigerator("Fridge")):
            network.attach_device(appliance)
        network.settle()
        assert app.rebuild_count == rebuilds + 1
        handles = [h for a in app.appliances for h in a.fcms]
        assert len(app.appliances) == 3
        assert all(h.descriptor is not None and len(h.descriptor)
                   for h in handles)
        # no descriptor travels the bus: the only traffic is one state
        # read per new FCM
        assert [c.opcode for c in app.command_log] == (
            ["fcm.get_state"] * len(handles))

    def test_rebuild_keeps_handles_and_rereads_none(self):
        tv = Television("TV")
        network, window, app = make_app(tv)
        handles = list(app.appliances[0].fcms)
        sent = len(app.command_log)
        app.rebuild()
        network.settle()
        network.attach_device(MicrowaveOven("Oven"))  # a rebuild by event
        network.settle()
        # the same objects (a handle compares by identity)
        assert app.appliance_by_name("TV").fcms == handles
        oven = app.appliance_by_name("Oven").fcms
        assert [(c.seid, c.opcode) for c in app.command_log][sent:] == [
            (h.seid, "fcm.get_state") for h in oven]

    def test_recycled_guid_gets_a_fresh_handle_and_its_own_descriptor(self):
        class Impostor(Refrigerator):
            """A fridge that reports the oven's model, so its guid."""

            manufacturer = MicrowaveOven.manufacturer
            model = MicrowaveOven.model

        oven = MicrowaveOven("Oven")
        network, window, app = make_app(oven)
        departed = app.appliances[0].fcms[0]
        impostor = Impostor("Oven")
        assert impostor.guid == oven.guid
        network.detach_device(oven.guid)  # one bus reset swaps the two
        network.attach_device(impostor)
        network.settle()
        handle = app.appliances[0].fcms[0]
        assert handle.seid == departed.seid and handle is not departed
        assert handle.fcm_type == "refrigerator"
        fcm = impostor.dcm.fcm_by_type(FcmType.REFRIGERATOR)
        assert handle.descriptor == fcm.capability_descriptor()
        assert window.root.find(
            f"{impostor.guid[:8]}.refrigerator.ice-dispense") is not None

    def test_uninstall_forgets_the_guids_handles(self):
        """A rebuild reuses the handles it knows; a departed GUID's
        handles must not serve whatever appears behind it next."""
        tv = Television("TV")
        network, window, app = make_app(tv)
        remembered = []
        rebuild = app.rebuild

        def spy():
            remembered.append({handle.device_guid for handle
                               in app._handles_by_seid.values()})
            rebuild()

        app.rebuild = spy
        app.rebuild()
        assert remembered == [{tv.guid}]
        network.detach_device(tv.guid)
        network.settle()
        assert len(remembered) == 2 and tv.guid not in remembered[1]

    def test_rebuild_due_at_close_does_nothing(self):
        network, window, app = make_app()
        rebuilds = app.rebuild_count
        # dispatched after the application's own handler, in the same
        # burst: the rebuild it scheduled is still due
        network.events.subscribe("dcm.installed", lambda event: app.close())
        network.attach_device(Television("TV"))
        network.settle()
        assert app.closed
        assert app.rebuild_count == rebuilds
        assert app.appliances == []


class TestNoPlaceholderPanels:
    """An appliance is composed with its descriptor from the moment it is
    discovered: never a generic "unsupported" stand-in."""

    def test_no_generic_panel_across_swaps(self):
        network = HomeNetwork()
        fridge = Refrigerator("Fridge")
        network.attach_device(fridge)
        network.settle()
        window = UIWindow(480, 420)
        seen = []  # the "unsupported" widget ids of every composed root
        set_root = window.set_root

        def spy(root):
            seen.append([w.widget_id for w in root.walk()
                         if (w.widget_id or "").endswith(".unsupported")])
            set_root(root)

        window.set_root = spy
        app = HomeApplianceApplication(network, window)
        assert [a.name for a in app.appliances] == ["Fridge"]
        for _ in range(4):
            network.detach_device(fridge.guid)
            network.settle()
            fridge = Refrigerator("Fridge")
            network.attach_device(fridge)
            network.settle()
            assert [a.name for a in app.appliances] == ["Fridge"]
        assert len(seen) == app.rebuild_count == 9
        assert seen == [[]] * len(seen)


class TestUnknownFcmFallback:
    def test_banner_instead_of_raising(self):
        network, handle = offline_handle("teleporter", {"charge": 3})
        panel = build_fcm_panel(handle)
        banner = panel.find(f"{handle.device_guid[:8]}"
                            f".teleporter.unsupported")
        assert banner is not None
        assert "teleporter" in banner.text

    def test_unmapped_kind_gets_send_command_button(self):
        network, handle = offline_handle("tuner")
        handle.descriptor = CapabilityDescriptor(
            fcm_type="tuner", capabilities=(
                Capability(kind="gesture", name="wave",
                           command="gesture.wave"),
            ))
        panel = build_capability_panel(handle)
        button = panel.find(f"{handle.device_guid[:8]}.tuner.wave")
        assert button is not None
        button.activate()
        assert handle.commands_sent == 1

    def test_unmapped_readonly_kind_gets_label(self):
        network, handle = offline_handle("tuner", {"aura": "calm"})
        handle.descriptor = CapabilityDescriptor(
            fcm_type="tuner", capabilities=(
                Capability(kind="hologram", name="aura", attribute="aura",
                           read_only=True),
            ))
        panel = build_capability_panel(handle)
        label = panel.find(f"{handle.device_guid[:8]}.tuner.aura")
        assert label is not None and label.text == "calm"


class TestGuidPrefixCollisions:
    def test_prefixes_extend_until_unique(self):
        a = "deadbeef" + "0" * 24
        b = "deadbeef" + "f" * 24
        prefixes = guid_prefixes([a, b])
        assert prefixes[a] != prefixes[b]
        assert len(prefixes[a]) > 8
        assert a.startswith(prefixes[a]) and b.startswith(prefixes[b])

    def test_no_collision_keeps_short_prefixes(self):
        a, b = guid_from_seed("one"), guid_from_seed("two")
        prefixes = guid_prefixes([a, b])
        assert {len(p) for p in prefixes.values()} == {8}

    def test_composed_ui_widget_ids_stay_distinct(self):
        colliding = ["deadbeef" + "0" * 24, "deadbeef" + "f" * 24]
        network = HomeNetwork()
        element = SoftwareElement(SEID(guid_from_seed("collide-app"), 0),
                                  network.messaging)
        element.attach()
        appliances = []
        for guid in colliding:
            appliance = ApplianceHandle(guid, f"Lamp {guid[-1]}", "light")
            appliance.add(FcmHandle(element, SEID(guid, 1), {
                "fcm.type": "light", "device.guid": guid,
                "device.name": appliance.name, "device.class": "light",
            }))
            appliances.append(appliance)
        root = compose_ui(appliances)
        ids = [w.widget_id for w in root.walk() if w.widget_id]
        assert len(ids) == len(set(ids)), f"colliding widget ids: {ids}"
        assert appliances[0].guid_prefix != appliances[1].guid_prefix


class TestListenerLifecycle:
    def test_rebuild_churn_keeps_listener_count_flat(self):
        tv = Television("TV")
        network, window, app = make_app(tv)
        counts = {h.fcm_type: len(h.listeners)
                  for h in app.appliances[0].fcms}
        assert all(n > 0 for n in counts.values())
        for _ in range(10):
            app.rebuild()
            network.settle()
        for handle in app.appliances[0].fcms:
            assert len(handle.listeners) == counts[handle.fcm_type], (
                f"{handle.fcm_type} leaked listeners across rebuilds")

    def test_set_root_none_detaches_all_listeners(self):
        tv = Television("TV")
        network, window, app = make_app(tv)
        handles = list(app.appliances[0].fcms)
        window.set_root(Column())
        for handle in handles:
            assert handle.listeners == []

    def test_close_tears_down_final_root(self):
        tv = Television("TV")
        network, window, app = make_app(tv)
        handles = list(app.appliances[0].fcms)
        app.close()
        for handle in handles:
            assert handle.listeners == []

    def test_swap_churn_in_a_tabbed_home(self):
        """A tabbed home keeps its panel and the pages that stay: each
        staying handle keeps its listeners, a departed page's handles
        end with none, and close() still detaches every one."""
        visitor = MicrowaveOven("Oven")
        network, window, app = make_app(Television("TV"),
                                        AirConditioner("Aircon"), visitor)
        tabs = window.root
        staying = {handle: len(handle.listeners)
                   for appliance in app.appliances if appliance.name != "Oven"
                   for handle in appliance.fcms}
        assert all(staying.values())
        departed = []
        for swap in range(10):
            departed += app.appliance_by_name(visitor.name).fcms
            network.detach_device(visitor.guid)
            visitor = (Refrigerator("Fridge") if swap % 2 == 0
                       else MicrowaveOven("Oven"))
            network.attach_device(visitor)
            network.settle()
            assert window.root is tabs
            for handle, count in staying.items():
                assert len(handle.listeners) == count
            assert all(handle.listeners == [] for handle in departed)
        assert set(staying) <= {handle for appliance in app.appliances
                                for handle in appliance.fcms}
        visiting = app.appliance_by_name(visitor.name).fcms
        assert all(handle.listeners for handle in visiting)
        app.close()
        for handle in [*staying, *visiting]:
            assert handle.listeners == []

    def _focus_home(self):
        tv, oven = Television("TV"), MicrowaveOven("Oven")
        network, window, app = make_app(tv, AirConditioner("Aircon"), oven)
        return network, window, app, tv, oven

    def test_focus_stays_through_an_unrelated_swap(self):
        network, window, app, tv, oven = self._focus_home()
        app.show_appliance("TV")
        power = window.root.find(f"{tv.guid[:8]}.tuner.power")
        assert power.request_focus()
        network.detach_device(oven.guid)
        network.attach_device(Refrigerator("Fridge"))
        network.settle()
        assert window.focus is power and power.has_focus

    def test_focus_in_a_departed_page_falls_to_the_first_focusable(self):
        network, window, app, tv, oven = self._focus_home()
        app.show_appliance("Oven")
        start = window.root.find(f"{oven.guid[:8]}.microwave.start")
        assert start.request_focus()
        network.detach_device(oven.guid)
        network.settle()
        assert window.focus is window._focus_order()[0] is window.root
        assert window.root.has_focus


class TestRefrigerator:
    """The descriptor-only appliance: three labelled compartments."""

    def test_component_sections_render(self):
        fridge = Refrigerator("Fridge")
        network, window, app = make_app(fridge)
        prefix = fridge.guid[:8]
        for component in ("fridge", "freezer", "icemaker"):
            section = window.root.find(
                f"{prefix}.refrigerator.component.{component}")
            assert section is not None, f"missing section {component}"
        region = window.render()
        assert not region.is_empty

    def test_widgets_drive_the_fcm(self):
        fridge = Refrigerator("Fridge")
        network, window, app = make_app(fridge)
        prefix = fridge.guid[:8]
        fcm = fridge.dcm.fcm_by_type(FcmType.REFRIGERATOR)
        target = window.root.find(f"{prefix}.refrigerator.freezer-target")
        target._set_and_notify(-20)
        network.settle()
        assert fcm.get_state("freezer_target") == -20
        level = window.root.find(f"{prefix}.refrigerator.ice-level")
        assert level.value == 60
        window.root.find(f"{prefix}.refrigerator.ice-dispense").activate()
        network.settle()
        assert fcm.get_state("ice_level") == 50
        assert level.value == 50  # progress bar followed the event

    def test_range_unit_label_follows(self):
        fridge = Refrigerator("Fridge")
        network, window, app = make_app(fridge)
        prefix = fridge.guid[:8]
        label = window.root.find(
            f"{prefix}.refrigerator.fridge-target-label")
        assert label.text == "4C"
        window.root.find(
            f"{prefix}.refrigerator.fridge-target")._set_and_notify(6)
        network.settle()
        assert label.text == "6C"


class TestMultiApplianceHome:
    def test_mixed_home_builds_tabs_with_fridge(self):
        tv = Television("TV")
        fridge = Refrigerator("Fridge")
        network, window, app = make_app(tv, fridge)
        tabs = window.root
        assert sorted(tabs.titles) == ["Fridge", "TV"]
        assert window.root.find(
            f"{fridge.guid[:8]}.refrigerator.ice-mode") is not None
        assert window.root.find(f"{tv.guid[:8]}.tuner.power") is not None
