"""The universal interaction protocol (UIP).

The paper adopts the stateless thin-client protocol family (VNC/RFB, Citrix,
Sun Ray) as its *universal interaction protocol*: bitmap rectangles flow from
the UniInt server to whoever renders them; keyboard and pointer events flow
back.  This package is an RFB-class binary protocol that carries only
what the program sends:

* a one-version handshake with optional shared-secret authentication
  (:mod:`repro.uip.handshake`),
* one wire pixel format, RGB888 (:mod:`repro.graphics.pixelformat`),
* framebuffer-update encodings RAW / HEXTILE / ZRLE
  (:mod:`repro.uip.encodings`),
* the client and server message vocabularies with incremental byte-stream
  decoders (:mod:`repro.uip.messages`),
* X11-style keysyms for the universal input events (:mod:`repro.uip.keysyms`).

It is deliberately *RFB-class*, not RFB-conformant: the message layouts are
near-identical, which preserves every property the paper relies on (stateless
server, bitmap output, key/pointer input) without claiming interoperability.
"""

from repro.uip import keysyms
from repro.uip.encodings import (
    HEXTILE,
    RAW,
    ZRLE,
    DecoderState,
    EncodeCache,
    EncoderState,
    decode_rect,
    decode_zrle_tiles,
    encode_pixels,
    encode_rect,
    encode_zrle_tiles,
)
from repro.uip.handshake import (
    ClientHandshake,
    HandshakeResult,
    ServerHandshake,
    PROTOCOL_VERSION,
)
from repro.uip.messages import (
    Bell,
    ClientMessageDecoder,
    FramebufferUpdate,
    FramebufferUpdateRequest,
    KeyEvent,
    Ping,
    PointerEvent,
    Pong,
    RectUpdate,
    ServerMessageDecoder,
    SetEncodings,
)

__all__ = [
    "Bell",
    "ClientHandshake",
    "ClientMessageDecoder",
    "DecoderState",
    "EncodeCache",
    "EncoderState",
    "FramebufferUpdate",
    "FramebufferUpdateRequest",
    "HEXTILE",
    "HandshakeResult",
    "KeyEvent",
    "PROTOCOL_VERSION",
    "Ping",
    "PointerEvent",
    "Pong",
    "RAW",
    "RectUpdate",
    "ServerHandshake",
    "ServerMessageDecoder",
    "SetEncodings",
    "ZRLE",
    "decode_rect",
    "decode_zrle_tiles",
    "encode_pixels",
    "encode_rect",
    "encode_zrle_tiles",
    "keysyms",
]
