"""SoftwareElement: base class for everything addressable on the network."""

from __future__ import annotations

from typing import Optional

from repro.havi.messaging import (
    HaviMessage,
    MessageSystem,
    MessageType,
    ReplyCallback,
)
from repro.havi.seid import SEID
from repro.util.errors import MessagingError


class SoftwareElement:
    """An addressable element: owns a SEID, speaks via the message system.

    Subclasses override :meth:`handle_request`; responses are routed to
    ``send_request`` callbacks automatically by the message system.
    """

    def __init__(self, seid: SEID, messaging: MessageSystem) -> None:
        self.seid = seid
        self.messaging = messaging
        self._attached = False

    # -- lifecycle -----------------------------------------------------------

    def attach(self) -> None:
        """Register with the message system; idempotence is an error."""
        if self._attached:
            raise MessagingError(f"{self.seid} already attached")
        self.messaging.register(self.seid, self._on_message)
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        self.messaging.unregister(self.seid)
        self._attached = False

    @property
    def attached(self) -> bool:
        return self._attached

    # -- message plumbing -------------------------------------------------------

    def _on_message(self, message: HaviMessage) -> None:
        # a RESPONSE reaches here only when nobody awaits it: ignored
        if message.msg_type is MessageType.REQUEST:
            self.handle_request(message)

    def handle_request(self, message: HaviMessage) -> None:
        """Default: reject unknown requests."""
        self.messaging.send(message.reply(status="EUNSUPPORTED"))

    # -- convenience ---------------------------------------------------------------

    def send_request(self, destination: SEID, opcode: str,
                     payload: dict | None = None,
                     on_reply: Optional[ReplyCallback] = None,
                     timeout_s: Optional[float] = None) -> int:
        return self.messaging.send_request(self.seid, destination, opcode,
                                           payload, on_reply,
                                           timeout_s=timeout_s)

    def reply(self, request: HaviMessage, payload: dict | None = None,
              status: str = "SUCCESS") -> None:
        self.messaging.send(request.reply(payload, status))
