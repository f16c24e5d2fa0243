"""UIP connection handshake.

Mirrors the RFB opening sequence the paper's thin-client systems use:

1. Server sends its protocol version string; client replies with its
   own.  There is one version, :data:`PROTOCOL_VERSION`: each end
   refuses a peer that announces any other.
2. Server offers security types; client picks one.  ``NONE`` or a
   shared-secret challenge (server sends a 16-byte nonce, client answers
   with SHA-256(secret || nonce)).
3. Client sends ClientInit (RFB's ``shared`` byte, always 1); server
   answers ServerInit: framebuffer width, height, pixel format and the
   desktop name.  UIP has one pixel format, :data:`RGB888`: the client
   fails the handshake on any other 16 format bytes.

Both ends are implemented as sans-io state machines: feed received bytes
in, collect bytes to send out.  That keeps them independent of transport
and trivially testable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.graphics.pixelformat import RGB888
from repro.uip.wire import Cursor, NeedMore, Writer
from repro.util.errors import ProtocolError

#: The protocol version both ends send; a peer announcing another is
#: refused.
PROTOCOL_VERSION = b"UIP 001.001\n"
_VERSION_LEN = len(PROTOCOL_VERSION)

SECURITY_NONE = 1
SECURITY_SHARED_SECRET = 2

_CHALLENGE_LEN = 16
_RESPONSE_LEN = 32  # sha256 digest

_STATUS_OK = 0
_STATUS_FAILED = 1

#: Upper bound on the ServerInit desktop-name length.  A corrupted or
#: hostile length prefix must fail the handshake, not commit the client
#: to buffering gigabytes while it "waits for the rest of the name".
MAX_NAME_LEN = 4096


def _secret_response(secret: str, challenge: bytes) -> bytes:
    return hashlib.sha256(secret.encode("utf-8") + challenge).digest()


@dataclass
class HandshakeResult:
    """Outcome of a completed handshake (server fields on both sides)."""

    width: int
    height: int
    name: str


class _HandshakeBase:
    """Common sans-io plumbing: buffered input, queued output, result."""

    def __init__(self) -> None:
        self._in = bytearray()
        self._out = bytearray()
        self.result: Optional[HandshakeResult] = None
        self.failed: Optional[str] = None
        self._state: Callable[[Cursor], bool] = self._start

    @property
    def done(self) -> bool:
        return self.result is not None

    def outgoing(self) -> bytes:
        """Bytes this side wants to transmit (drains the queue)."""
        data = bytes(self._out)
        del self._out[:]
        return data

    def feed(self, data: bytes) -> None:
        """Absorb received bytes, advancing the state machine."""
        if self.failed is not None:
            raise ProtocolError(f"handshake already failed: {self.failed}")
        self._in.extend(data)
        while not self.done and self.failed is None:
            cursor = Cursor(bytes(self._in))
            try:
                advanced = self._state(cursor)
            except NeedMore:
                return
            del self._in[:cursor.pos]
            if not advanced:
                return

    def leftover(self) -> bytes:
        """Bytes received beyond the handshake (start of the message stream)."""
        data = bytes(self._in)
        del self._in[:]
        return data

    def _fail(self, reason: str) -> bool:
        self.failed = reason
        return False

    def _start(self, cursor: Cursor) -> bool:
        raise NotImplementedError


class ServerHandshake(_HandshakeBase):
    """Server side: owns the framebuffer geometry and optional secret."""

    def __init__(self, width: int, height: int, name: str,
                 secret: Optional[str] = None,
                 challenge: bytes = b"\xA5" * _CHALLENGE_LEN) -> None:
        super().__init__()
        self.width = width
        self.height = height
        self.name = name
        self._secret = secret
        if len(challenge) != _CHALLENGE_LEN:
            raise ProtocolError(f"challenge must be {_CHALLENGE_LEN} bytes")
        self._challenge = challenge
        self._out.extend(PROTOCOL_VERSION)
        security = (SECURITY_SHARED_SECRET if secret is not None
                    else SECURITY_NONE)
        self._out.extend(Writer().u8(1).u8(security).getvalue())

    def _start(self, cursor: Cursor) -> bool:
        raw = cursor.take(_VERSION_LEN)
        if raw != PROTOCOL_VERSION:
            return self._fail(f"client version {raw!r} unsupported")
        self._state = self._security_choice
        return True

    def _security_choice(self, cursor: Cursor) -> bool:
        choice = cursor.u8()
        if self._secret is not None:
            if choice != SECURITY_SHARED_SECRET:
                return self._fail(f"client chose security {choice}, "
                                  f"server requires shared secret")
            self._out.extend(self._challenge)
            self._state = self._secret_answer
            return True
        if choice != SECURITY_NONE:
            return self._fail(f"client chose unknown security {choice}")
        self._out.extend(Writer().u32(_STATUS_OK).getvalue())
        self._state = self._client_init
        return True

    def _secret_answer(self, cursor: Cursor) -> bool:
        answer = cursor.take(_RESPONSE_LEN)
        expected = _secret_response(self._secret or "", self._challenge)
        if answer != expected:
            self._out.extend(Writer().u32(_STATUS_FAILED).getvalue())
            return self._fail("shared secret mismatch")
        self._out.extend(Writer().u32(_STATUS_OK).getvalue())
        self._state = self._client_init
        return True

    def _client_init(self, cursor: Cursor) -> bool:
        cursor.u8()  # ClientInit's shared flag: other sessions stay on
        name_bytes = self.name.encode("latin-1")
        self._out.extend(
            Writer().u16(self.width).u16(self.height).raw(RGB888.wire)
            .u32(len(name_bytes)).raw(name_bytes).getvalue()
        )
        self.result = HandshakeResult(self.width, self.height, self.name)
        return False


class ClientHandshake(_HandshakeBase):
    """Client side (lives in the UniInt proxy)."""

    def __init__(self, secret: Optional[str] = None) -> None:
        super().__init__()
        self._secret = secret

    def _start(self, cursor: Cursor) -> bool:
        raw = cursor.take(_VERSION_LEN)
        if raw != PROTOCOL_VERSION:
            return self._fail(f"server version {raw!r} unsupported")
        self._out.extend(PROTOCOL_VERSION)
        self._state = self._security_offer
        return True

    def _security_offer(self, cursor: Cursor) -> bool:
        count = cursor.u8()
        if count == 0:
            return self._fail("server offered no security types")
        offered = [cursor.u8() for _ in range(count)]
        if SECURITY_SHARED_SECRET in offered and self._secret is not None:
            self._out.extend(Writer().u8(SECURITY_SHARED_SECRET).getvalue())
            self._state = self._challenge
            return True
        if SECURITY_NONE in offered:
            self._out.extend(Writer().u8(SECURITY_NONE).getvalue())
            self._state = self._security_status
            return True
        if SECURITY_SHARED_SECRET in offered:
            return self._fail("server requires a secret, none configured")
        return self._fail(f"no mutual security type in {offered}")

    def _challenge(self, cursor: Cursor) -> bool:
        challenge = cursor.take(_CHALLENGE_LEN)
        self._out.extend(_secret_response(self._secret or "", challenge))
        self._state = self._security_status
        return True

    def _security_status(self, cursor: Cursor) -> bool:
        status = cursor.u32()
        if status != _STATUS_OK:
            return self._fail("server rejected authentication")
        self._out.extend(Writer().u8(1).getvalue())  # ClientInit: shared
        self._state = self._server_init
        return True

    def _server_init(self, cursor: Cursor) -> bool:
        width = cursor.u16()
        height = cursor.u16()
        fmt = cursor.take(len(RGB888.wire))
        if fmt != RGB888.wire:
            return self._fail(f"server pixel format {fmt.hex()} is not "
                              f"RGB888")
        name_len = cursor.u32()
        if name_len > MAX_NAME_LEN:
            return self._fail(f"server name length {name_len} exceeds "
                              f"{MAX_NAME_LEN} (corrupt ServerInit?)")
        name = cursor.take(name_len).decode("latin-1")
        self.result = HandshakeResult(width, height, name)
        return False
