"""What a UIP client received, and what a misbehaving one sends, seen
from the test side."""

import struct
from collections import Counter

from repro.uip import PROTOCOL_VERSION
from repro.uip.handshake import SECURITY_NONE
from repro.uip.wire import Writer

#: What a client sends to finish the handshake with an open server: its
#: version, security type NONE and a shared ClientInit.
OPEN_HANDSHAKE = PROTOCOL_VERSION + bytes([SECURITY_NONE, 1])

#: Client messages the server's decoder rejects, by name.
MALFORMED_CLIENT_MESSAGES = {
    "unknown-type": b"\xEE",
    # RFB's ClientCutText: UIP carries no clipboard
    "client-cut-text": Writer().u8(6).pad(3).u32(4).raw(b"clip").getvalue(),
    # RFB's SetPixelFormat (type 0): UIP has one pixel format and no
    # message to pick one, whether it names 12 bits per pixel or RGB888
    "bad-pixel-format": Writer().u8(0).pad(3).raw(struct.pack(
        ">BBBBHHHBBB3x", 12, 12, 0, 1, 15, 15, 15, 8, 4, 0)).getvalue(),
    "set-pixel-format": Writer().u8(0).pad(3).raw(struct.pack(
        ">BBBBHHHBBB3x", 32, 24, 0, 1, 255, 255, 255, 16, 8, 0)).getvalue(),
    # type 8 with a u32 token: UIP resumes no session, a client that
    # comes back dials a fresh one
    "resume-session": Writer().u8(8).pad(3).u32(1).getvalue(),
}

#: Server messages the proxy's decoder rejects, by name.
MALFORMED_SERVER_MESSAGES = {
    # RFB's 12-byte ServerCutText (type 3): UIP carries no clipboard
    "server-cut-text": Writer().u8(3).pad(3).u32(4).raw(b"clip").getvalue(),
    # type 5 with a u32 token: UIP grants no session tokens
    "session-grant": Writer().u8(5).pad(3).u32(1).getvalue(),
}

#: The rejected server message a test sends when any one will do.
MALFORMED_SERVER_MESSAGE = MALFORMED_SERVER_MESSAGES["server-cut-text"]


def received_encodings(client) -> Counter:
    """Count the rect encodings of every update ``client`` applies from now
    on; the returned counter fills in as updates arrive."""
    seen: Counter = Counter()
    apply = client._apply_update

    def counting(update):
        seen.update(rect.encoding for rect in update.rects)
        return apply(update)

    client._apply_update = counting
    return seen
