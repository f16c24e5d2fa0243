"""Device Control Modules: one per appliance on the network."""

from __future__ import annotations

from typing import Callable, Optional

from repro.havi import ddi
from repro.havi.element import SoftwareElement
from repro.havi.events import EventManager
from repro.havi.fcm import Fcm
from repro.havi.messaging import HaviMessage, MessageSystem
from repro.havi.registry import Registry
from repro.havi.seid import SEID
from repro.util.errors import HaviError


class Dcm(SoftwareElement):
    """The software face of one appliance.

    Owns the appliance's FCMs; installing a DCM attaches and registers the
    DCM and every FCM, uninstalling reverses it — this is what happens when
    a device hotplugs on/off the home bus.  The DCM is also the
    appliance's DDI target (:mod:`repro.havi.ddi`).
    """

    def __init__(self, guid: str, messaging: MessageSystem,
                 events: EventManager, registry: Registry,
                 device_class: str, manufacturer: str, model: str,
                 name: str) -> None:
        super().__init__(SEID(guid, 0), messaging)
        self.events = events
        self.registry = registry
        self.guid = guid
        self.device_class = device_class
        self.manufacturer = manufacturer
        self.model = model
        self.name = name
        self.fcms: list[Fcm] = []
        self._next_handle = 1
        self._installed = False

    # -- construction -------------------------------------------------------

    def add_fcm(self, factory: Callable[..., Fcm], **kwargs) -> Fcm:
        """Create an FCM with the next free handle on this device."""
        if self._installed:
            raise HaviError("cannot add FCMs to an installed DCM")
        seid = SEID(self.guid, self._next_handle)
        self._next_handle += 1
        fcm = factory(seid=seid, messaging=self.messaging,
                      events=self.events, device_guid=self.guid,
                      device_name=self.name, **kwargs)
        self.fcms.append(fcm)
        return fcm

    def fcm_by_type(self, fcm_type) -> Optional[Fcm]:
        for fcm in self.fcms:
            if fcm.fcm_type is fcm_type:
                return fcm
        return None

    # -- lifecycle -------------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise HaviError(f"DCM {self.name} already installed")
        # drift guard: a descriptor naming a command or attribute its FCM
        # does not implement must fail loudly at hotplug, not at the first
        # click of an auto-generated widget
        for fcm in self.fcms:
            fcm.validate_capabilities()
        self.attach()
        self.registry.register(self.seid, self.registry_attributes())
        for fcm in self.fcms:
            fcm.attach()
            self.registry.register(fcm.seid, {
                **fcm.registry_attributes(),
                "device.class": self.device_class,
            })
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            raise HaviError(f"DCM {self.name} is not installed")
        for fcm in self.fcms:
            self.registry.unregister(fcm.seid)
            fcm.detach()
        self.registry.unregister(self.seid)
        self.detach()
        self._installed = False

    # -- requests ----------------------------------------------------------------

    def handle_request(self, message: HaviMessage) -> None:
        if message.opcode == "dcm.describe":
            self.reply(message, {
                "guid": self.guid,
                "device_class": self.device_class,
                "manufacturer": self.manufacturer,
                "model": self.model,
                "name": self.name,
                "fcm_seids": [str(fcm.seid) for fcm in self.fcms],
            })
            return
        if message.opcode == "ddi.get_tree":
            self.reply(message, {"tree": ddi.build_tree(self).to_dict()})
            return
        if message.opcode == "ddi.action":
            ddi.handle_action(self, message)
            return
        super().handle_request(message)

    def registry_attributes(self) -> dict[str, object]:
        return {
            "element.type": "dcm",
            "device.guid": self.guid,
            "device.class": self.device_class,
            "device.manufacturer": self.manufacturer,
            "device.model": self.model,
            "device.name": self.name,
        }
