"""Client-side handles: the application's view of remote FCMs.

A :class:`FcmHandle` wraps one FCM's SEID: it holds the capability
descriptor from the FCM's registry entry, caches the FCM's state (read
once via ``fcm.get_state`` and kept live by ``fcm.state.*`` events) and
issues commands through the message system.  An
:class:`ApplianceHandle` groups the FCM handles of one device.  A
:class:`DdiController` is HAVi's native alternative: it holds one
appliance's DDI tree instead of a panel.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from repro.app.commands import Command, CommandLog, CommandSpine
from repro.havi.capabilities import CapabilityDescriptor
from repro.havi.ddi import DdiPanel, element_from_dict
from repro.havi.element import SoftwareElement
from repro.havi.events import EventManager, HaviEvent
from repro.havi.messaging import HaviMessage, MessageSystem
from repro.havi.seid import SEID
from repro.util.errors import HaviError

StateListener = Callable[[str, object], None]

#: How many recent error strings a handle keeps (``errors_total`` keeps
#: counting past the cap).
ERRORS_KEPT = 32


class FcmHandle:
    """The application's live handle to one remote FCM."""

    def __init__(self, app: SoftwareElement, seid: SEID,
                 attributes: dict,
                 spine: Optional[CommandSpine] = None) -> None:
        self.app = app
        self.seid = seid
        #: The command spine this handle dispatches through; standalone
        #: handles (tests, tools) get a private spine with a private log.
        self.spine = spine if spine is not None else CommandSpine(app)
        self.fcm_type: str = str(attributes.get("fcm.type", "unknown"))
        self.device_guid: str = str(attributes.get("device.guid", ""))
        self.device_name: str = str(attributes.get("device.name", "?"))
        self.device_class: str = str(attributes.get("device.class", "?"))
        #: The descriptor the FCM registered (None for an entry that
        #: carries none).
        descriptor = attributes.get("capability.descriptor")
        self.descriptor: Optional[CapabilityDescriptor] = (
            CapabilityDescriptor.from_dict(descriptor)
            if descriptor is not None else None)
        #: GUID prefix for widget ids; the composer may lengthen it when
        #: two devices' GUIDs collide on the first 8 digits.
        self.guid_prefix: str = self.device_guid[:8]
        self.state: dict[str, object] = {}
        self.listeners: list[StateListener] = []
        self.commands_sent = 0
        self.errors: list[str] = []
        self.errors_total = 0

    # -- commands -----------------------------------------------------------

    def command(self, opcode: str, payload: dict | None = None,
                on_reply: Optional[Callable[[HaviMessage], None]] = None,
                origin: str = "api") -> Command:
        """Submit one FCM command through the spine; errors are recorded,
        not raised.  Returns the tracked :class:`Command`."""
        self.commands_sent += 1

        def handle_reply(message: HaviMessage) -> None:
            if message.status != "SUCCESS":
                self.errors_total += 1
                self.errors.append(
                    f"{opcode}: {message.status} "
                    f"{message.payload.get('detail', '')}".strip())
                if len(self.errors) > ERRORS_KEPT:
                    del self.errors[:-ERRORS_KEPT]
            if on_reply is not None:
                on_reply(message)

        return self.spine.submit(self.seid, opcode, payload or {},
                                 origin=origin, on_reply=handle_reply)

    @property
    def inflight(self) -> list[Command]:
        """This handle's slice of the spine's inflight table."""
        return self.spine.inflight_for(self.seid)

    def command_stats(self) -> dict:
        """Per-handle command accounting for diagnostics/reports."""
        return {
            "commands_sent": self.commands_sent,
            "errors_total": self.errors_total,
            "errors_kept": len(self.errors),
            "inflight": len(self.inflight),
        }

    def refresh(self) -> None:
        """Pull the full state snapshot (used right after discovery)."""

        def absorb(message: HaviMessage) -> None:
            if message.status != "SUCCESS":
                return
            for key, value in message.payload.get("state", {}).items():
                self._set(key, value)

        self.command("fcm.get_state", on_reply=absorb, origin="app")

    # -- state tracking -------------------------------------------------------

    def subscribe(self, listener: StateListener) -> StateListener:
        """Register a state listener; returns it for later unsubscribe."""
        self.listeners.append(listener)
        return listener

    def unsubscribe(self, listener: StateListener) -> None:
        """Remove a listener; tolerates double-removal (panel teardown
        can race a rebuild that already dropped the handle)."""
        try:
            self.listeners.remove(listener)
        except ValueError:
            pass

    def _set(self, key: str, value: object) -> None:
        if self.state.get(key) == value and key in self.state:
            return
        self.state[key] = value
        for listener in list(self.listeners):
            listener(key, value)

    def on_event(self, event: HaviEvent) -> None:
        """Absorb an ``fcm.state.*`` event addressed to this FCM."""
        key = event.payload.get("key")
        if key is not None:
            self._set(str(key), event.payload.get("value"))

    def get(self, key: str, default: object = None) -> object:
        return self.state.get(key, default)


class ApplianceHandle:
    """All FCM handles of one appliance (grouped by device GUID)."""

    def __init__(self, guid: str, name: str, device_class: str) -> None:
        self.guid = guid
        self.name = name
        self.device_class = device_class
        self.guid_prefix = guid[:8]
        self.fcms: list[FcmHandle] = []

    def add(self, handle: FcmHandle) -> None:
        self.fcms.append(handle)

    def fcm_by_type(self, fcm_type: str) -> Optional[FcmHandle]:
        for handle in self.fcms:
            if handle.fcm_type == fcm_type:
                return handle
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ApplianceHandle {self.name!r} "
                f"fcms={[h.fcm_type for h in self.fcms]}>")


class DdiController(SoftwareElement):
    """A native DDI client of one appliance's DCM.

    ``open`` fetches the DCM's tree and, while open, applies the
    appliance's ``fcm.state.*`` events to it; ``action`` sends semantic
    actions.  Both ride the command spine, so the home journal sees DDI
    actions alongside widget clicks.
    """

    def __init__(self, seid: SEID, messaging: MessageSystem,
                 events: EventManager,
                 command_log: Optional[CommandLog] = None) -> None:
        super().__init__(seid, messaging)
        self.events = events
        self.spine = CommandSpine(self, command_log)
        self.tree: Optional[DdiPanel] = None
        self.target: Optional[SEID] = None
        self._subscription: Optional[int] = None
        #: Demo/test hook: fired with (element_id, value) on remote change.
        self.on_changed: Optional[Callable[[str, object], None]] = None
        #: Modelled wire bytes, for the DDI-vs-UIP experiment.
        self.bytes_moved = 0

    def open(self, target: SEID,
             on_tree: Optional[Callable[[DdiPanel], None]] = None) -> None:
        """Fetch the tree from a DCM and follow its appliance's state."""
        self.target = target

        def absorb(message: HaviMessage) -> None:
            self.bytes_moved += _wire_size(message.opcode, message.payload)
            tree_data = message.payload.get("tree")
            if tree_data is None:
                raise HaviError(f"DDI target replied {message.status}")
            tree = element_from_dict(tree_data)
            if not isinstance(tree, DdiPanel):
                raise HaviError("DDI tree root must be a panel")
            self.tree = tree
            if on_tree is not None:
                on_tree(tree)

        self._subscription = self.events.subscribe("fcm.state.",
                                                   self._on_state)
        self.bytes_moved += _wire_size("ddi.get_tree", {})
        self.spine.submit(target, "ddi.get_tree", origin="ddi",
                          on_reply=absorb)

    def close(self) -> None:
        if self._subscription is not None:
            self.events.unsubscribe(self._subscription)
            self._subscription = None
        self.tree = None
        self.target = None

    def action(self, element_id: str, verb: str = "press",
               value=None,
               on_reply: Optional[Callable[[HaviMessage], None]] = None,
               origin: str = "ddi") -> Command:
        if self.target is None:
            raise HaviError("controller is not open")
        payload = {"element": element_id, "verb": verb}
        if value is not None:
            payload["value"] = value
        self.bytes_moved += _wire_size("ddi.action", payload)

        def count_reply(message: HaviMessage) -> None:
            self.bytes_moved += _wire_size(message.opcode, message.payload)
            if on_reply is not None:
                on_reply(message)

        return self.spine.submit(self.target, "ddi.action", payload,
                                 origin=origin, on_reply=count_reply)

    def _on_state(self, event: HaviEvent) -> None:
        """Apply a target's state change to the first element of the
        cached tree bound to that FCM and key; the byte count models
        the ``ddi.changed`` notice a DCM would send."""
        if (self.tree is None
                or event.payload.get("device_guid") != self.target.guid):
            return
        prefix = f"{event.source.handle}:"
        key = event.payload.get("key")
        for element in self.tree.walk():
            if (element.element_id.startswith(prefix)
                    and getattr(element, "key", None) == key):
                value = event.payload.get("value")
                element.value = value
                self.bytes_moved += _wire_size("ddi.changed", {
                    "element": element.element_id, "value": value})
                if self.on_changed is not None:
                    self.on_changed(element.element_id, value)
                return


_WIRE_HEADER = 24  # SEIDs, type, transaction, status


def _wire_size(opcode: str, payload: dict) -> int:
    """Estimated serialised size of a HAVi message."""
    return _WIRE_HEADER + len(opcode) + len(
        json.dumps(payload, sort_keys=True, default=str))
