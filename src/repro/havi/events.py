"""The HAVi event manager: network-wide publish/subscribe.

Events are fire-and-forget notifications (appliance state changed, device
attached, timer finished).  Subscribers filter by opcode prefix, so an
application can watch ``"fcm.state"`` without enumerating appliances.
Delivery is asynchronous on the virtual clock, via the message system's
latency model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.havi.seid import SEID
from repro.util.scheduler import Scheduler


@dataclass(frozen=True)
class HaviEvent:
    """A posted event: who, what, and details."""

    source: SEID
    opcode: str
    payload: dict = field(default_factory=dict)


Subscriber = Callable[[HaviEvent], None]


@dataclass
class _Subscription:
    ident: int
    prefix: str
    callback: Subscriber


class EventManager:
    """Routes :class:`HaviEvent` objects to prefix-filtered subscribers."""

    def __init__(self, scheduler: Scheduler, latency: float = 0.0002) -> None:
        self.scheduler = scheduler
        self.latency = latency
        self._subs: dict[int, _Subscription] = {}
        self._ids = itertools.count(1)

    def subscribe(self, prefix: str, callback: Subscriber) -> int:
        """Subscribe to events whose opcode starts with ``prefix``.

        Returns a subscription id for :meth:`unsubscribe`.
        """
        ident = next(self._ids)
        self._subs[ident] = _Subscription(ident, prefix, callback)
        return ident

    def unsubscribe(self, ident: int) -> None:
        self._subs.pop(ident, None)

    def post(self, event: HaviEvent) -> None:
        """Deliver the event to every matching subscriber, asynchronously."""
        for sub in list(self._subs.values()):
            if not event.opcode.startswith(sub.prefix):
                continue
            self.scheduler.call_later(self.latency, self._dispatch,
                                      sub.ident, event)

    def _dispatch(self, ident: int, event: HaviEvent) -> None:
        sub = self._subs.get(ident)
        if sub is not None:  # may have unsubscribed in flight
            sub.callback(event)
