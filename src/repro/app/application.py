"""HomeApplianceApplication: discovery-driven composed control panels."""

from __future__ import annotations

from typing import Optional

from repro.app.commands import CommandLog, CommandSpine
from repro.app.composer import compose_ui, recompose_tabs
from repro.app.handles import ApplianceHandle, FcmHandle
from repro.havi.element import SoftwareElement
from repro.havi.events import HaviEvent
from repro.havi.manager import HomeNetwork
from repro.havi.registry import Comparison
from repro.havi.seid import SEID
from repro.toolkit import TabPanel, UIWindow
from repro.util.ids import guid_from_seed


class HomeApplianceApplication:
    """The GUI application controlling every appliance on the network.

    Lifecycle: each burst of ``dcm.installed`` / ``dcm.uninstalled``
    events (one bus reset) costs one rebuild, which re-queries the
    registry and regenerates the composed UI; ``fcm.state.*`` events keep
    panel widgets synchronised with appliance state regardless of who
    changed it.
    """

    def __init__(self, network: HomeNetwork, window: UIWindow,
                 app_name: str = "uniint-home-app",
                 command_log: Optional[CommandLog] = None) -> None:
        self.network = network
        self.window = window
        self.element = SoftwareElement(
            SEID(guid_from_seed(f"app/{app_name}"), 0), network.messaging)
        self.element.attach()
        #: Every actuation this application makes — widget, programmatic
        #: or internal — flows through one command spine; multi-view homes
        #: share the home's journal by passing ``command_log``.
        self.command_log = command_log if command_log is not None \
            else CommandLog()
        self.spine = CommandSpine(self.element, self.command_log)
        self.appliances: list[ApplianceHandle] = []
        self._handles_by_seid: dict[SEID, FcmHandle] = {}
        self._rebuild_due = False
        self.rebuild_count = 0
        self.closed = False
        self.on_bell = None  # demo hook for appliance.bell events
        self._subscriptions = [
            network.events.subscribe("dcm.", self._on_dcm_change),
            network.events.subscribe("fcm.state.", self._on_fcm_state),
            network.events.subscribe("appliance.bell", self._on_bell_event),
        ]
        self.rebuild()

    def close(self) -> None:
        """Stop tracking the network: unsubscribe and release the SEID.

        A multi-view home runs one application per resident view; when a
        resident leaves, their application must stop rebuilding on
        discovery churn and free its network address for reuse.
        """
        if self.closed:
            return
        self.closed = True
        for ident in self._subscriptions:
            self.network.events.unsubscribe(ident)
        self._subscriptions = []
        if self.window.root is not None:
            self.window.root.teardown()
        self.element.detach()

    # -- discovery -------------------------------------------------------------

    def _discover(self) -> list[ApplianceHandle]:
        registry = self.network.registry
        appliances: dict[str, ApplianceHandle] = {}
        for dcm_seid in registry.query(
                Comparison("element.type", "==", "dcm")):
            attributes = registry.get_attributes(dcm_seid)
            guid = str(attributes["device.guid"])
            appliances[guid] = ApplianceHandle(
                guid=guid,
                name=str(attributes["device.name"]),
                device_class=str(attributes["device.class"]),
            )
        for fcm_seid in registry.query(
                Comparison("element.type", "==", "fcm")):
            attributes = registry.get_attributes(fcm_seid)
            guid = str(attributes["device.guid"])
            appliance = appliances.get(guid)
            if appliance is None:
                continue  # FCM without its DCM mid-hotplug; skip
            handle = self._handles_by_seid.get(fcm_seid)
            if handle is None:
                handle = FcmHandle(self.element, fcm_seid, attributes,
                                   spine=self.spine)
            appliance.add(handle)
        return sorted(appliances.values(), key=lambda a: (a.name, a.guid))

    def rebuild(self) -> None:
        """Regenerate the composed UI from the registry.

        Each FCM keeps its handle, and so its state, for as long as it
        stays installed, so the panels of a rebuild show settled values,
        not defaults.  Only a new FCM gets a new handle, which reads its
        state with one ``fcm.get_state``.  While the UI stays tabbed (two
        or more appliances before and after), :func:`recompose_tabs`
        updates the tab panel in place, so a hotplug of a background
        appliance repaints just the tab bar.  The first build and every
        change between zero, one and many appliances replace the root,
        which damages the whole window.  Either way only the surfaces
        showing *this* view repaint — other users' views are untouched
        until their own application rebuilds.
        """
        previous_guid, previous_index = self._active_tab()
        known = self._handles_by_seid
        shown = self.appliances
        self.appliances = self._discover()
        self._handles_by_seid = {
            handle.seid: handle
            for appliance in self.appliances
            for handle in appliance.fcms
        }
        active = self._tab_index(previous_guid, previous_index)
        root = self.window.root
        if isinstance(root, TabPanel) and len(self.appliances) > 1:
            recompose_tabs(root, shown, self.appliances, active)
        else:
            root = compose_ui(self.appliances)
            self.window.set_root(root)
            if isinstance(root, TabPanel):
                root.set_active(active)
        for seid, handle in self._handles_by_seid.items():
            if seid not in known:
                handle.refresh()
        self.rebuild_count += 1

    def _active_tab(self) -> tuple[Optional[str], Optional[int]]:
        """(guid, index) of the active tab before a rebuild, if any."""
        if self.window.root is None:
            return None, None
        tabs = self._tabs()
        if tabs is None or not 0 <= tabs.active < len(self.appliances):
            return None, None
        return self.appliances[tabs.active].guid, tabs.active

    def _tab_index(self, guid: Optional[str],
                   fallback_index: Optional[int]) -> int:
        """The tab to show after a rebuild: the appliance that was in
        front, wherever it now sits."""
        for index, appliance in enumerate(self.appliances):
            if appliance.guid == guid:
                return index
        # The appliance whose tab was active is gone (hot-unplugged):
        # fall back to the tab that slid into its slot — the next
        # appliance in order, or the new last tab (the panel clamps) —
        # instead of silently jumping home to tab 0.
        return fallback_index if fallback_index is not None else 0

    def _tabs(self) -> Optional[TabPanel]:
        root = self.window.root
        if isinstance(root, TabPanel):
            return root
        if root is not None:
            found = root.find("appliance-tabs")
            if isinstance(found, TabPanel):
                return found
        return None

    # -- convenience lookups --------------------------------------------------------

    def appliance_by_name(self, name: str) -> Optional[ApplianceHandle]:
        for appliance in self.appliances:
            if appliance.name == name:
                return appliance
        return None

    def handle_for(self, device_name: str,
                   fcm_type: str) -> Optional[FcmHandle]:
        appliance = self.appliance_by_name(device_name)
        if appliance is None:
            return None
        return appliance.fcm_by_type(fcm_type)

    def show_appliance(self, name: str) -> bool:
        """Bring the named appliance's tab to the front."""
        tabs = self._tabs()
        if tabs is None:
            return len(self.appliances) == 1 and (
                self.appliances[0].name == name)
        for index, appliance in enumerate(self.appliances):
            if appliance.name == name:
                tabs.set_active(index)
                return True
        return False

    # -- event plumbing ----------------------------------------------------------------

    def _on_dcm_change(self, event: HaviEvent) -> None:
        """One rebuild per burst: a bus reset posts its ``dcm.*`` events
        at one instant, so a rebuild scheduled for that instant runs
        after the last of them."""
        if event.opcode == "dcm.uninstalled":
            # a device re-appearing behind this guid may be a different
            # appliance entirely (guid reuse): drop the departed one's
            # handles now, so the rebuild cannot hand them its FCMs
            guid = str(event.payload.get("guid", ""))
            self._handles_by_seid = {
                seid: handle
                for seid, handle in self._handles_by_seid.items()
                if handle.device_guid != guid}
        if not self._rebuild_due:
            self._rebuild_due = True
            self.network.scheduler.call_soon(self._rebuild_when_due)

    def _rebuild_when_due(self) -> None:
        self._rebuild_due = False
        if not self.closed:
            self.rebuild()

    def _on_fcm_state(self, event: HaviEvent) -> None:
        seid_text = event.payload.get("seid")
        if seid_text is None:
            return
        handle = self._handles_by_seid.get(SEID.parse(str(seid_text)))
        if handle is not None:
            handle.on_event(event)

    def _on_bell_event(self, event: HaviEvent) -> None:
        if self.on_bell is not None:
            self.on_bell(event)
