"""The HAVi message system: async messaging between software elements.

Every software element registers with the :class:`MessageSystem` under its
SEID.  Messages are delivered asynchronously on the virtual clock (a small
configurable middleware latency), so callers observe realistic interleaving
without any threads.  Request/response correlation uses per-sender
transaction numbers, exactly like HAVi's ``SendRequest``/``SendResponse``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.havi.seid import SEID
from repro.util.errors import MessagingError
from repro.util.scheduler import Event, Scheduler

#: Default one-way middleware latency (seconds); 1394 async packets are fast.
DEFAULT_LATENCY = 0.0002


class MessageType(enum.Enum):
    REQUEST = "request"
    RESPONSE = "response"


@dataclass(frozen=True)
class HaviMessage:
    """One message on the home network."""

    source: SEID
    destination: SEID
    msg_type: MessageType
    opcode: str
    payload: dict = field(default_factory=dict)
    transaction: int = 0
    status: str = "SUCCESS"

    def reply(self, payload: dict | None = None,
              status: str = "SUCCESS") -> "HaviMessage":
        """Build the response to this request."""
        if self.msg_type is not MessageType.REQUEST:
            raise MessagingError("can only reply to a request")
        return HaviMessage(
            source=self.destination,
            destination=self.source,
            msg_type=MessageType.RESPONSE,
            opcode=self.opcode,
            payload=payload if payload is not None else {},
            transaction=self.transaction,
            status=status,
        )


Handler = Callable[[HaviMessage], None]
ReplyCallback = Callable[[HaviMessage], None]


@dataclass
class _Pending:
    """Book-keeping for one outstanding REQUEST awaiting its RESPONSE."""

    callback: ReplyCallback
    destination: SEID
    opcode: str
    timer: Optional[Event] = None

    def disarm(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


class MessageSystem:
    """Routes messages between registered software elements."""

    def __init__(self, scheduler: Scheduler,
                 latency: float = DEFAULT_LATENCY) -> None:
        self.scheduler = scheduler
        self.latency = latency
        self._handlers: dict[SEID, Handler] = {}
        self._transactions = itertools.count(1)
        self._pending: dict[tuple[SEID, int], _Pending] = {}
        self.messages_dropped = 0
        #: Requests answered by a locally synthesized RESPONSE because the
        #: destination unregistered while the request was outstanding.
        self.replies_synthesized = 0
        #: Requests answered by a locally synthesized ETIMEOUT RESPONSE.
        self.requests_timed_out = 0
        # Optional seeded fault injection on the bus (PR 7 harness).
        self._fault_plan = None
        self._fault_rng = None
        self.messages_fault_dropped = 0
        self.messages_fault_delayed = 0

    # -- registration ------------------------------------------------------

    def register(self, seid: SEID, handler: Handler) -> None:
        if seid in self._handlers:
            raise MessagingError(f"SEID {seid} already registered")
        self._handlers[seid] = handler

    def unregister(self, seid: SEID) -> None:
        if seid not in self._handlers:
            raise MessagingError(f"SEID {seid} is not registered")
        del self._handlers[seid]
        # drop reply callbacks whose requester vanished
        for key in [k for k in self._pending if k[0] == seid]:
            self._pending.pop(key).disarm()
        # requests *to* the vanished element can never be answered by it:
        # synthesize an EGONE failure so the requester is not left hanging
        # (the entry stays pending; the synthetic RESPONSE pops it through
        # the normal delivery path after one middleware latency).
        for key, entry in list(self._pending.items()):
            if entry.destination != seid:
                continue
            entry.disarm()
            self.replies_synthesized += 1
            self.send(HaviMessage(
                source=seid,
                destination=key[0],
                msg_type=MessageType.RESPONSE,
                opcode=entry.opcode,
                payload={"detail": f"{seid} unregistered mid-flight"},
                transaction=key[1],
                status="EGONE",
            ))

    def is_registered(self, seid: SEID) -> bool:
        return seid in self._handlers

    # -- fault injection -----------------------------------------------------

    def inject_faults(self, plan, name: str = "messaging") -> None:
        """Subject bus delivery to a seeded :class:`~repro.net.faults.FaultPlan`.

        ``drop``/``duplicate``/``delay`` rates apply per message;
        ``truncate`` is meaningless for structured messages and passes
        through.  Dropped REQUESTs are silently lost (no
        ``EUNKNOWN_ELEMENT`` bounce) — recovery is the requester's
        timeout, exactly like a lost 1394 packet.
        """
        self._fault_plan = plan
        self._fault_rng = plan.rng_for(name)

    def clear_faults(self) -> None:
        self._fault_plan = None
        self._fault_rng = None

    # -- sending -------------------------------------------------------------

    def send(self, message: HaviMessage) -> None:
        """Queue a message for asynchronous delivery."""
        plan = self._fault_plan
        if plan is not None:
            # truncate is meaningless for structured messages: pass through
            fate = plan.fate(self._fault_rng)
            if fate == "drop":
                self.messages_fault_dropped += 1
                return
            if fate == "delay":
                self.messages_fault_delayed += 1
                self.scheduler.call_later(self.latency + plan.delay_s,
                                          self._deliver, message)
                return
            if fate == "duplicate":
                self.scheduler.call_later(self.latency, self._deliver, message)
        self.scheduler.call_later(self.latency, self._deliver, message)

    def send_request(self, source: SEID, destination: SEID, opcode: str,
                     payload: dict | None = None,
                     on_reply: Optional[ReplyCallback] = None,
                     timeout_s: Optional[float] = None) -> int:
        """Send a REQUEST; ``on_reply`` fires when the RESPONSE arrives.

        With ``timeout_s`` set (> 0), a virtual-clock guard delivers a
        synthesized ``ETIMEOUT`` RESPONSE if no real reply lands in time;
        the guard timer is cancelled the moment a reply arrives, so it
        never drags the virtual clock forward.  Returns the transaction
        number.
        """
        transaction = next(self._transactions)
        message = HaviMessage(
            source=source,
            destination=destination,
            msg_type=MessageType.REQUEST,
            opcode=opcode,
            payload=payload if payload is not None else {},
            transaction=transaction,
        )
        if on_reply is not None:
            entry = _Pending(on_reply, destination, opcode)
            if timeout_s is not None and timeout_s > 0:
                entry.timer = self.scheduler.call_later(
                    timeout_s, self._expire, (source, transaction))
            self._pending[(source, transaction)] = entry
        self.send(message)
        return transaction

    def _expire(self, key: tuple[SEID, int]) -> None:
        entry = self._pending.pop(key, None)
        if entry is None:  # answered in the meantime
            return
        self.requests_timed_out += 1
        entry.callback(HaviMessage(
            source=entry.destination,
            destination=key[0],
            msg_type=MessageType.RESPONSE,
            opcode=entry.opcode,
            payload={"detail": "no reply before deadline"},
            transaction=key[1],
            status="ETIMEOUT",
        ))

    # -- delivery -------------------------------------------------------------

    def _deliver(self, message: HaviMessage) -> None:
        handler = self._handlers.get(message.destination)
        if handler is None:
            self.messages_dropped += 1
            if message.msg_type is MessageType.REQUEST:
                # bounce an error response so requesters are not left hanging
                error = HaviMessage(
                    source=message.destination,
                    destination=message.source,
                    msg_type=MessageType.RESPONSE,
                    opcode=message.opcode,
                    transaction=message.transaction,
                    status="EUNKNOWN_ELEMENT",
                )
                self.scheduler.call_later(self.latency, self._deliver, error)
            return
        if message.msg_type is MessageType.RESPONSE:
            entry = self._pending.pop(
                (message.destination, message.transaction), None)
            if entry is not None:
                entry.disarm()
                entry.callback(message)
                return
        handler(message)
