"""Universal interaction protocol messages and stream decoders.

Client -> server (the *universal input events* plus session control):

====  ==========================  =======================================
type  message                     payload
====  ==========================  =======================================
2     SetEncodings                1 pad, u16 count, s32 encodings
3     FramebufferUpdateRequest    u8 incremental, u16 x, y, w, h
4     KeyEvent                    u8 down, 2 pad, u32 keysym
5     PointerEvent                u8 button mask, u16 x, u16 y
7     Ping                        3 pad, u32 sequence (liveness probe)
====  ==========================  =======================================

Server -> client (the *universal output events*):

====  ==========================  =======================================
0     FramebufferUpdate           1 pad, u16 nrects, rect headers+payloads
2     Bell                        —
4     Pong                        3 pad, u32 sequence (liveness answer)
====  ==========================  =======================================

Ping/Pong carry the session liveness heartbeat (miss-based death
detection in the proxy).  A client that loses its connection dials a
fresh session, as an RFB viewer does: the handshake, SetEncodings and
one non-incremental update request.  Any other type is refused.

Messages arrive as an undelimited byte stream; :class:`ClientMessageDecoder`
and :class:`ServerMessageDecoder` parse incrementally.  A partially
received message is parsed again once more bytes arrive, except that a
FramebufferUpdate resumes at the first rect it has not yet decoded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphics.region import Rect
from repro.uip import encodings as enc
from repro.uip.wire import Cursor, NeedMore, Writer
from repro.util.errors import ProtocolError


# Client message types.
MSG_SET_ENCODINGS = 2
MSG_FRAMEBUFFER_UPDATE_REQUEST = 3
MSG_KEY_EVENT = 4
MSG_POINTER_EVENT = 5
MSG_PING = 7

# Server message types.
MSG_FRAMEBUFFER_UPDATE = 0
MSG_BELL = 2
MSG_PONG = 4


# -- client -> server -----------------------------------------------------------


@dataclass(frozen=True)
class SetEncodings:
    encodings: tuple[int, ...]

    def encode(self) -> bytes:
        writer = Writer().u8(MSG_SET_ENCODINGS).pad(1)
        writer.u16(len(self.encodings))
        for encoding in self.encodings:
            writer.s32(encoding)
        return writer.getvalue()


@dataclass(frozen=True)
class FramebufferUpdateRequest:
    incremental: bool
    rect: Rect

    def encode(self) -> bytes:
        return (Writer().u8(MSG_FRAMEBUFFER_UPDATE_REQUEST)
                .u8(int(self.incremental))
                .u16(self.rect.x).u16(self.rect.y)
                .u16(self.rect.w).u16(self.rect.h).getvalue())


@dataclass(frozen=True)
class KeyEvent:
    """A universal input key event: X11-style keysym, press or release."""

    down: bool
    keysym: int

    def encode(self) -> bytes:
        return (Writer().u8(MSG_KEY_EVENT).u8(int(self.down)).pad(2)
                .u32(self.keysym).getvalue())


@dataclass(frozen=True)
class PointerEvent:
    """A universal input pointer event: absolute position + button mask."""

    buttons: int
    x: int
    y: int

    def encode(self) -> bytes:
        return (Writer().u8(MSG_POINTER_EVENT).u8(self.buttons)
                .u16(self.x).u16(self.y).getvalue())


@dataclass(frozen=True)
class Ping:
    """Liveness probe: the proxy asks "is this session still alive?"."""

    seq: int

    def encode(self) -> bytes:
        return Writer().u8(MSG_PING).pad(3).u32(self.seq).getvalue()


# -- server -> client ------------------------------------------------------------


@dataclass(frozen=True)
class RectUpdate:
    """One rectangle of a framebuffer update: its pixels and the encoding
    they travel in.  To encode, they are (H, W, 3) RGB, such as a
    framebuffer view (:func:`~repro.uip.encodings.encode_pixels`);
    decoded, they are packed RGB888 and may be a read-only view of the
    decoder's cache (copy them to write to them)."""

    rect: Rect
    encoding: int
    payload: np.ndarray


@dataclass(frozen=True)
class FramebufferUpdate:
    rects: tuple[RectUpdate, ...]

    def encode_chunks(self, state: enc.EncoderState) -> list[bytes]:
        """The wire message as a scatter-gather chunk list.

        Rect payloads (the bulk of the bytes) ride as their own chunks, so
        the full message is never concatenated here — transports send the
        list vectored.  Each rect is keyed in ``state``'s cache before it
        is packed or encoded (:func:`~repro.uip.encodings.encode_pixels`).
        """
        writer = Writer().u8(MSG_FRAMEBUFFER_UPDATE).pad(1)
        writer.u16(len(self.rects))
        for update in self.rects:
            rect = update.rect
            writer.u16(rect.x).u16(rect.y).u16(rect.w).u16(rect.h)
            writer.s32(update.encoding)
            writer.raw(enc.encode_pixels(state, update.payload,
                                         update.encoding))
        return writer.chunks()

    def encode(self, state: enc.EncoderState) -> bytes:
        return b"".join(self.encode_chunks(state))


@dataclass(frozen=True)
class Bell:
    def encode(self) -> bytes:
        return Writer().u8(MSG_BELL).getvalue()


@dataclass(frozen=True)
class Pong:
    """Liveness answer, echoing the :class:`Ping` sequence number."""

    seq: int

    def encode(self) -> bytes:
        return Writer().u8(MSG_PONG).pad(3).u32(self.seq).getvalue()


# -- stream decoders ------------------------------------------------------------------


#: Compact a decoder's buffer once this many consumed bytes accrue (and
#: they outnumber the live remainder): amortised-linear, never quadratic.
_COMPACT_THRESHOLD = 16 * 1024


class _StreamDecoder:
    """Shared incremental parsing machinery.

    Each attempt hands :meth:`_parse_one` a cursor at the start of the
    first unconsumed message; a parser that can resume inside a message
    keeps its own progress (:class:`ServerMessageDecoder` does).  The
    buffer keeps a persistent read offset: each parsed message advances
    the offset instead of rebuilding ``bytes(self._buffer)`` and
    del-compacting per message (which made a burst of n messages cost
    O(n²) in rebuffering).  The consumed prefix is trimmed only once it
    passes :data:`_COMPACT_THRESHOLD`.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._pos = 0
        # Minimum buffer length before re-attempting a stalled parse
        # (from NeedMore.needed): a message trickling in chunk by chunk
        # costs one length check per chunk, not a parse attempt each
        # time.
        self._need = 0

    def feed(self, data: bytes) -> list:
        """Absorb bytes, return every complete message parsed."""
        self._buffer.extend(data)
        messages = []
        while (self._pos < len(self._buffer)
               and len(self._buffer) >= self._need):
            cursor = Cursor(self._buffer, self._pos)
            try:
                message = self._parse_one(cursor)
            except NeedMore as stall:
                # lower bound; +1 guarantees progress even if unset
                self._need = max(stall.needed, len(self._buffer) + 1)
                break
            self._need = 0
            self._pos = cursor.pos
            messages.append(message)
        if (self._pos > _COMPACT_THRESHOLD
                and self._pos > len(self._buffer) - self._pos):
            del self._buffer[:self._pos]
            if self._need:
                self._need -= self._pos
            self._pos = 0
        return messages

    def _parse_one(self, cursor: Cursor):
        raise NotImplementedError

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer) - self._pos


class ClientMessageDecoder(_StreamDecoder):
    """Parses the client->server stream (runs inside the UniInt server)."""

    def _parse_one(self, cursor: Cursor):
        msg_type = cursor.u8()
        if msg_type == MSG_SET_ENCODINGS:
            cursor.skip(1)
            count = cursor.u16()
            return SetEncodings(tuple(cursor.s32() for _ in range(count)))
        if msg_type == MSG_FRAMEBUFFER_UPDATE_REQUEST:
            incremental = bool(cursor.u8())
            x, y = cursor.u16(), cursor.u16()
            w, h = cursor.u16(), cursor.u16()
            return FramebufferUpdateRequest(incremental, Rect(x, y, w, h))
        if msg_type == MSG_KEY_EVENT:
            down = bool(cursor.u8())
            cursor.skip(2)
            return KeyEvent(down, cursor.u32())
        if msg_type == MSG_POINTER_EVENT:
            buttons = cursor.u8()
            return PointerEvent(buttons, cursor.u16(), cursor.u16())
        if msg_type == MSG_PING:
            cursor.skip(3)
            return Ping(cursor.u32())
        raise ProtocolError(f"unknown client message type {msg_type}")


class ServerMessageDecoder(_StreamDecoder):
    """Parses the server->client stream (runs inside the UniInt proxy).

    Needs the ZRLE inflater to decode ZRLE rects, hence it owns a
    :class:`~repro.uip.encodings.DecoderState`.  It also knows the size
    of the mirror the rects land in, and refuses a rect that leaves it
    at its header, before a byte of its payload is decoded or awaited.

    Each rect is decoded once.  A FramebufferUpdate split over chunks
    keeps the rects decoded so far and the offset of the next rect header,
    counted from the message start (so buffer compaction leaves it
    valid), and the next attempt resumes there.  Since a completed rect
    is never parsed again, ZRLE rects inflate as each completes.
    """

    def __init__(self, state: enc.DecoderState, width: int,
                 height: int) -> None:
        super().__init__()
        self.state = state
        self.width = width
        self.height = height
        self._rects: list[RectUpdate] = []
        self._resume = 0

    def _parse_one(self, cursor: Cursor):
        start = cursor.pos
        msg_type = cursor.u8()
        if msg_type == MSG_FRAMEBUFFER_UPDATE:
            cursor.skip(1)
            count = cursor.u16()
            rects = self._rects
            if rects:
                cursor.pos = start + self._resume
            while len(rects) < count:
                x, y = cursor.u16(), cursor.u16()
                w, h = cursor.u16(), cursor.u16()
                encoding = cursor.s32()
                rect = Rect(x, y, w, h)
                if rect.x2 > self.width or rect.y2 > self.height:
                    raise ProtocolError(
                        f"update rect {rect} leaves the "
                        f"{self.width}x{self.height} mirror")
                rects.append(RectUpdate(rect, encoding, enc.decode_rect(
                    self.state, cursor, w, h, encoding)))
                self._resume = cursor.pos - start
            self._rects = []
            return FramebufferUpdate(tuple(rects))
        if msg_type == MSG_BELL:
            return Bell()
        if msg_type == MSG_PONG:
            cursor.skip(3)
            return Pong(cursor.u32())
        raise ProtocolError(f"unknown server message type {msg_type}")
