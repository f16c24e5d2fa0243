"""The simulated home bus (IEEE-1394 style) with hotplug.

Appliances attach to and detach from the bus at runtime; each change
triggers a *bus reset* after a short settle delay, and reset observers see
the new device set.  The :class:`~repro.havi.manager.DcmManager` is the main
observer: it installs/uninstalls DCMs to mirror the bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from repro.util.errors import HaviError
from repro.util.scheduler import Scheduler

#: Bus settle time between a topology change and the reset notification.
RESET_DELAY = 0.005


@dataclass(frozen=True)
class DeviceInfo:
    """Identity plate of a physical device on the bus."""

    guid: str
    device_class: str
    manufacturer: str
    model: str
    name: str


class BusDevice(Protocol):
    """What the bus requires of an attachable device."""

    @property
    def info(self) -> DeviceInfo: ...  # pragma: no cover - protocol


ResetObserver = Callable[[list[DeviceInfo]], None]


class HomeBus:
    """Hotplug bus: tracks attached devices, fires coalesced bus resets."""

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self._devices: dict[str, BusDevice] = {}
        self._observers: list[ResetObserver] = []
        self._reset_pending = False
        self.reset_count = 0
        #: Observer callbacks that raised during a reset (isolation: one
        #: faulty observer never starves the rest of the notification).
        self.observer_errors = 0
        self.last_observer_error: Optional[BaseException] = None

    # -- topology ------------------------------------------------------------

    def attach(self, device: BusDevice) -> None:
        guid = device.info.guid
        if guid in self._devices:
            raise HaviError(f"device {guid} already on the bus")
        self._devices[guid] = device
        self._schedule_reset()

    def detach(self, guid: str) -> None:
        if guid not in self._devices:
            raise HaviError(f"device {guid} is not on the bus")
        del self._devices[guid]
        self._schedule_reset()

    def device(self, guid: str) -> Optional[BusDevice]:
        return self._devices.get(guid)

    @property
    def devices(self) -> list[DeviceInfo]:
        return sorted((d.info for d in self._devices.values()),
                      key=lambda info: info.guid)

    def __len__(self) -> int:
        return len(self._devices)

    # -- resets ----------------------------------------------------------------

    def observe_resets(self, observer: ResetObserver) -> None:
        self._observers.append(observer)

    def _schedule_reset(self) -> None:
        # rapid attach/detach bursts coalesce into a single reset,
        # as on a real 1394 bus
        if self._reset_pending:
            return
        self._reset_pending = True
        self.scheduler.call_later(RESET_DELAY, self._fire_reset)

    def _fire_reset(self) -> None:
        # ``_reset_pending`` drops *before* observers run, so an observer
        # that attaches/detaches devices mid-reset schedules a fresh reset
        # instead of being swallowed by the coalescing flag.
        self._reset_pending = False
        self.reset_count += 1
        snapshot = self.devices
        first_error: Optional[BaseException] = None
        for observer in list(self._observers):
            # snapshot of the observer list: observers that subscribe or
            # unsubscribe mid-reset never skip (or double-notify) others
            try:
                observer(snapshot)
            except Exception as exc:
                # isolate per-observer failures: everyone still sees this
                # reset, then the first error surfaces to the scheduler
                # (``last_observer_error`` keeps the most recent one)
                self.observer_errors += 1
                self.last_observer_error = exc
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
