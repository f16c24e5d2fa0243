"""Low-level byte-stream cursor for incremental protocol parsing.

RFB-style protocols are raw byte streams: a message's length is only known
once part of it has been parsed.  :class:`Cursor` wraps a buffer with typed
reads that raise :class:`NeedMore` when the buffer runs dry; decoders catch
it, keep their buffer, and retry when more bytes arrive.
"""

from __future__ import annotations

import struct

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_S32 = struct.Struct(">i")


class NeedMore(Exception):
    """Raised when a parse needs bytes that have not arrived yet.

    ``needed`` is the minimum buffer length (an absolute offset in the
    cursor's buffer) at which the failing read could succeed — decoders
    use it to skip pointless re-parses while a message trickles in.  It
    is a lower bound, not a promise the whole message fits by then.
    """

    def __init__(self, needed: int = 0) -> None:
        super().__init__(needed)
        self.needed = needed


class Cursor:
    """A read cursor over a bytes-like buffer.

    The buffer may be ``bytes`` or a ``bytearray`` the caller promises not
    to mutate below ``pos`` while parsing (decoders append to their buffer
    between parses, never rewrite consumed bytes); slices handed out by
    :meth:`take` are copies either way.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int) -> bytes:
        if self.remaining() < n:
            raise NeedMore(self.pos + n)
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def s32(self) -> int:
        return _S32.unpack(self.take(4))[0]

    def skip(self, n: int) -> None:
        self.take(n)


class Writer:
    """Append-only byte builder mirroring :class:`Cursor`'s types."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> "Writer":
        self._parts.append(_U8.pack(value))
        return self

    def u16(self, value: int) -> "Writer":
        self._parts.append(_U16.pack(value))
        return self

    def u32(self, value: int) -> "Writer":
        self._parts.append(_U32.pack(value))
        return self

    def s32(self, value: int) -> "Writer":
        self._parts.append(_S32.pack(value))
        return self

    def raw(self, data: bytes) -> "Writer":
        self._parts.append(data)
        return self

    def pad(self, n: int) -> "Writer":
        self._parts.append(b"\x00" * n)
        return self

    #: Parts below this size are fused with their neighbours in
    #: :meth:`chunks` — tiny header fields are not worth an iovec entry
    #: (or a per-chunk receive dispatch); big payloads stay zero-copy.
    COALESCE_BELOW = 2048

    def chunks(self) -> list[bytes]:
        """The accumulated parts as a scatter-gather chunk list.

        Runs of parts smaller than :attr:`COALESCE_BELOW` are joined into
        one chunk (headers, small payloads); parts at or above it pass
        through by reference, so a large payload is never copied.  Hand
        the list to a transport's vectored ``send`` (or :func:`repro.net.
        framing.frame_chunks`) to put the message on the wire without
        materialising the concatenated message.
        """
        out: list[bytes] = []
        run: list[bytes] = []
        for part in self._parts:
            if len(part) >= self.COALESCE_BELOW:
                if run:
                    out.append(b"".join(run))
                    run = []
                out.append(part)
            else:
                run.append(part)
        if run:
            out.append(b"".join(run))
        return out

    def getvalue(self) -> bytes:
        return b"".join(self._parts)
