"""DCM manager plus the HomeNetwork facade bundling all middleware parts."""

from __future__ import annotations

from typing import Optional, Protocol

from repro.havi.bus import BusDevice, DeviceInfo, HomeBus
from repro.havi.dcm import Dcm
from repro.havi.events import EventManager, HaviEvent
from repro.havi.messaging import MessageSystem
from repro.havi.registry import Registry
from repro.havi.seid import SEID
from repro.util.errors import HaviError
from repro.util.scheduler import Scheduler

#: Pseudo-SEID used as the source of infrastructure events.
INFRA_SEID = SEID("0000000000000000", 0)


class DcmCapableDevice(BusDevice, Protocol):
    """A bus device that can manufacture its own DCM (a HAVi code unit)."""

    def create_dcm(self, network: "HomeNetwork") -> Dcm:
        ...  # pragma: no cover - protocol


class DcmManager:
    """Installs/uninstalls DCMs to mirror the bus after each reset."""

    def __init__(self, network: "HomeNetwork") -> None:
        self.network = network
        self._dcms: dict[str, Dcm] = {}
        # guid -> the bus device each installed DCM was manufactured by,
        # so a *new* device reusing a departed guid (detach + attach
        # coalesced into one reset) is detected and re-installed instead
        # of keeping a DCM wired to the dead instance
        self._dcm_devices: dict[str, BusDevice] = {}
        network.bus.observe_resets(self._on_bus_reset)

    @property
    def dcms(self) -> dict[str, Dcm]:
        return dict(self._dcms)

    def _uninstall(self, guid: str) -> None:
        dcm = self._dcms.pop(guid)
        self._dcm_devices.pop(guid, None)
        dcm.uninstall()
        self.network.events.post(HaviEvent(
            source=INFRA_SEID,
            opcode="dcm.uninstalled",
            payload={"guid": guid, "name": dcm.name,
                     "device_class": dcm.device_class},
        ))

    def _on_bus_reset(self, devices: list[DeviceInfo]) -> None:
        present = {info.guid for info in devices}
        # uninstall DCMs for departed devices ...
        for guid in [g for g in self._dcms if g not in present]:
            self._uninstall(guid)
        # ... and for guids whose *device* was swapped out under them (a
        # detach + attach of a different appliance with the same guid,
        # coalesced into one bus reset): the installed DCM belongs to the
        # departed instance, so it must go through a full uninstall too
        for guid in [g for g in self._dcms
                     if self._dcm_devices.get(g)
                     is not self.network.bus.device(g)]:
            self._uninstall(guid)
        # install DCMs for new devices
        for info in devices:
            if info.guid in self._dcms:
                continue
            device = self.network.bus.device(info.guid)
            if device is None or not hasattr(device, "create_dcm"):
                raise HaviError(f"device {info.guid} cannot create a DCM")
            dcm = device.create_dcm(self.network)
            dcm.install()
            self._dcms[info.guid] = dcm
            # recorded only after a successful install, so the two dicts
            # can never disagree about which device a guid belongs to
            self._dcm_devices[info.guid] = device
            self.network.events.post(HaviEvent(
                source=INFRA_SEID,
                opcode="dcm.installed",
                payload={"guid": info.guid, "name": dcm.name,
                         "device_class": dcm.device_class},
            ))


class HomeNetwork:
    """Everything one home's middleware needs, wired together.

    This is the reproduction of the authors' "home computing system"
    [Middleware 2001]: message system, registry, event manager, home bus
    and DCM manager over one shared virtual-time scheduler.
    """

    def __init__(self, scheduler: Optional[Scheduler] = None) -> None:
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.messaging = MessageSystem(self.scheduler)
        self.registry = Registry()
        self.events = EventManager(self.scheduler)
        self.bus = HomeBus(self.scheduler)
        self.dcm_manager = DcmManager(self)
        # imported late: streams needs the manager types above
        from repro.havi.streams import StreamManager
        self.streams = StreamManager(self)

    def attach_device(self, device: DcmCapableDevice) -> None:
        """Plug an appliance into the home network."""
        self.bus.attach(device)

    def detach_device(self, guid: str) -> None:
        """Unplug an appliance."""
        self.bus.detach(guid)

    def settle(self) -> None:
        """Run the scheduler until the network is quiescent."""
        self.scheduler.run_until_idle()
