"""The proxy's upstream face: a universal-interaction-protocol client.

:class:`UniIntClient` replaces the stock thin-client *viewer* (paper §2.2):
it keeps a faithful RGB mirror of the server framebuffer and reports the
bounding rect of what changed after every update, but never draws to a
screen itself — the output plug-in decides what the current output device
sees.

Flow control follows the thin-client convention: exactly one framebuffer
update request is outstanding at any time, so a slow device link
back-pressures the server instead of flooding the pipe.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.graphics.bitmap import Bitmap
from repro.graphics.pixelformat import RGB888
from repro.graphics.region import Rect
from repro.net.transport import Transport
from repro.uip import encodings as enc
from repro.uip.handshake import ClientHandshake
from repro.uip.messages import (
    Bell,
    FramebufferUpdate,
    FramebufferUpdateRequest,
    KeyEvent,
    Ping,
    PointerEvent,
    Pong,
    ServerMessageDecoder,
    SetEncodings,
)
from repro.util.errors import GraphicsError, ProtocolError

#: Default encodings offered, best first.  The server encodes with the
#: first one it supports, so HEXTILE leads: cheap to encode, and bytes are
#: cheap on the home LAN the UIP leg rides.  A client on a slow bearer
#: offers ZRLE first instead.
DEFAULT_ENCODINGS = (enc.HEXTILE, enc.ZRLE, enc.RAW)


class UniIntClient:
    """Maintains the framebuffer mirror; forwards universal input events."""

    def __init__(self, endpoint: Transport, secret: Optional[str] = None,
                 encodings: tuple[int, ...] = DEFAULT_ENCODINGS) -> None:
        self.endpoint = endpoint
        self.secret = secret
        self.encodings = encodings
        self._handshake = ClientHandshake(secret=secret)
        self._decoder: Optional[ServerMessageDecoder] = None
        self.framebuffer: Optional[Bitmap] = None
        self.server_name: Optional[str] = None
        self.closed = False
        self.updates_received = 0
        # liveness accounting: pings awaiting a pong.  Any pong clears the
        # whole debt (sequence numbers are monotonic, a later answer
        # proves the link end-to-end).
        self.pings_sent = 0
        self.outstanding_pings = 0
        #: Fired once after the handshake and the initial full update request.
        self.on_ready: Optional[Callable[[], None]] = None
        #: Fired after each update that changed the mirror, with the
        #: bounding rect of every pixel it blitted (inside the
        #: framebuffer).
        self.on_update: Optional[Callable[[Rect], None]] = None
        #: Fired on a server bell (e.g. microwave ding surfaced by an app).
        self.on_bell: Optional[Callable[[], None]] = None
        #: Fired when the session ends under us: the transport closed, or
        #: the client aborted it over a failed handshake or a malformed
        #: server message (the reconnect machinery listens here; distinct
        #: from the deliberate :meth:`close`, which never fires it).
        self.on_session_close: Optional[Callable[[], None]] = None
        endpoint.on_receive = self._on_bytes
        endpoint.on_close = self._on_close

    # -- connection ---------------------------------------------------------

    @property
    def ready(self) -> bool:
        return self._handshake.done and not self.closed

    @property
    def handshake_failure(self) -> Optional[str]:
        """Why the handshake failed, or None if it has not."""
        return self._handshake.failed

    def _on_close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.on_session_close is not None:
            self.on_session_close()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.endpoint.close()

    def _send(self, payload: bytes) -> None:
        if self.endpoint.is_open:
            self.endpoint.send(payload)

    def _on_bytes(self, data: bytes) -> None:
        if self.closed:
            return
        if not self._handshake.done:
            self._handshake.feed(data)
            out = self._handshake.outgoing()
            if out:
                self._send(out)
            if self._handshake.failed is not None:
                return self._abort_session()
            if not self._handshake.done:
                return
            self._session_start()
            data = self._handshake.leftover()
            if not data:
                return
        assert self._decoder is not None
        try:
            messages = self._decoder.feed(data)
        except (ProtocolError, GraphicsError):
            return self._abort_session()
        for message in messages:
            if not self.closed:
                self._handle(message)

    def _abort_session(self) -> None:
        """A failed handshake or a malformed server message ends this
        session as a reset would (a resilient session redials), not by
        escaping into the transport."""
        self._decoder = None  # and the partial update it holds
        self.endpoint.abort()
        self._on_close()

    def _session_start(self) -> None:
        result = self._handshake.result
        assert result is not None
        self.server_name = result.name
        self.framebuffer = Bitmap(result.width, result.height)
        self._decoder = ServerMessageDecoder(
            enc.DecoderState(), result.width, result.height)
        self._send(SetEncodings(self.encodings).encode())
        self.request_update(incremental=False)
        if self.on_ready is not None:
            self.on_ready()

    # -- requests & input ------------------------------------------------------

    def request_update(self, incremental: bool = True) -> None:
        assert self.framebuffer is not None
        self._send(FramebufferUpdateRequest(
            incremental, self.framebuffer.bounds).encode())

    def send_key(self, keysym: int, down: bool) -> None:
        self._send(KeyEvent(down, keysym).encode())

    def press_key(self, keysym: int) -> None:
        """Full press + release."""
        self.send_key(keysym, True)
        self.send_key(keysym, False)

    def send_pointer(self, x: int, y: int, buttons: int) -> None:
        self._send(PointerEvent(buttons, x, y).encode())

    def ping(self) -> int:
        """Send one liveness probe; returns its sequence number.

        The answer (any later pong) clears :attr:`outstanding_pings`; a
        growing debt is the heartbeat loop's miss-based death signal.
        """
        self.pings_sent += 1
        self.outstanding_pings += 1
        self._send(Ping(self.pings_sent).encode())
        return self.pings_sent

    def click(self, x: int, y: int, button: int = 1) -> None:
        """Full press + release at (x, y)."""
        self.send_pointer(x, y, button)
        self.send_pointer(x, y, 0)

    # -- server messages ----------------------------------------------------------

    def _handle(self, message) -> None:
        if isinstance(message, FramebufferUpdate):
            dirty = self._apply_update(message)
            self.updates_received += 1
            if self.on_update is not None and not dirty.is_empty:
                self.on_update(dirty)
            # keep exactly one incremental request outstanding
            self.request_update(incremental=True)
        elif isinstance(message, Bell):
            if self.on_bell is not None:
                self.on_bell()
        elif isinstance(message, Pong):
            self.outstanding_pings = 0
        else:  # pragma: no cover - decoder only yields the types above
            raise AssertionError(f"unexpected message {message!r}")

    def _apply_update(self, update: FramebufferUpdate) -> Rect:
        """Write ``update`` into the mirror; returns the changed bounds.

        The decoder already refused any rect that leaves the mirror.
        """
        mirror = self.framebuffer
        assert mirror is not None
        dirty = Rect(0, 0, 0, 0)
        for rect_update in update.rects:
            rect = rect_update.rect
            mirror.pixels[rect.y:rect.y2, rect.x:rect.x2] = (
                RGB888.unpack(rect_update.payload))
            dirty = dirty.union_bounds(rect)
        return dirty
