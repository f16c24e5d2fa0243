"""Unit tests for the UniIntClient (the proxy's upstream face)."""

import tracemalloc
import zlib

import numpy as np
import pytest

from repro.graphics import RGB888, Bitmap, Rect
from repro.net import make_pipe
from repro.proxy.upstream import UniIntClient
from repro.uip import (
    EncoderState,
    FramebufferUpdate,
    HEXTILE,
    RAW,
    ZRLE,
    RectUpdate,
)
from repro.uip.handshake import (
    PROTOCOL_VERSION,
    SECURITY_NONE,
    ServerHandshake,
)
from repro.uip.wire import Writer
from repro.util import Scheduler
from tests.helpers import MALFORMED_SERVER_MESSAGES


class FakeServer:
    """A scripted UIP server: handshake + canned updates."""

    def __init__(self, scheduler, endpoint, width=64, height=48):
        self.endpoint = endpoint
        self.handshake = ServerHandshake(width, height, "fake")
        self.encoder = EncoderState()
        self.requests = 0
        endpoint.on_receive = self._on_bytes
        endpoint.send(self.handshake.outgoing())

    def _on_bytes(self, data):
        if not self.handshake.done:
            self.handshake.feed(data)
            out = self.handshake.outgoing()
            if out:
                self.endpoint.send(out)
            return
        # count every update request byte-block; no parsing needed for tests
        self.requests += 1

    def push(self, update: FramebufferUpdate):
        self.endpoint.send(update.encode(self.encoder))


def connected_pair():
    scheduler = Scheduler()
    pipe = make_pipe(scheduler)
    server = FakeServer(scheduler, pipe.a)
    client = UniIntClient(pipe.b)
    scheduler.run_until_idle()
    assert client.ready
    return scheduler, server, client


class TestApplyUpdates:
    def test_raw_update_paints_mirror(self):
        scheduler, server, client = connected_pair()
        patch = Bitmap(8, 8, fill=(200, 10, 10))
        server.push(FramebufferUpdate((RectUpdate(
            Rect(4, 4, 8, 8), RAW, patch.pixels),)))
        rects = []
        client.on_update = rects.append
        scheduler.run_until_idle()
        assert client.framebuffer.get_pixel(4, 4) == (200, 10, 10)
        assert client.framebuffer.get_pixel(0, 0) == (0, 0, 0)
        assert rects[-1] == Rect(4, 4, 8, 8)

    def test_each_update_triggers_next_request(self):
        scheduler, server, client = connected_pair()
        base = server.requests
        patch = Bitmap(4, 4)
        for _ in range(3):
            server.push(FramebufferUpdate((RectUpdate(
                Rect(0, 0, 4, 4), RAW, patch.pixels),)))
            scheduler.run_until_idle()
        assert server.requests == base + 3
        assert client.updates_received == 3

    def test_bell_callback(self):
        from repro.uip import Bell
        scheduler, server, client = connected_pair()
        bells = []
        client.on_bell = lambda: bells.append(1)
        server.endpoint.send(Bell().encode())
        scheduler.run_until_idle()
        assert bells == [1]

    def test_close_is_idempotent(self):
        scheduler, server, client = connected_pair()
        client.close()
        client.close()
        assert client.closed
        assert not client.ready

    def test_input_helpers_encode_correct_events(self):
        scheduler, server, client = connected_pair()
        sent = []
        original = client.endpoint.send
        client.endpoint.send = lambda data: sent.append(data)
        client.press_key(0x41)
        client.click(10, 20)
        assert len(sent) == 4  # key down/up + pointer down/up
        from repro.uip import ClientMessageDecoder, KeyEvent, PointerEvent
        decoder = ClientMessageDecoder()
        messages = []
        for blob in sent:
            messages.extend(decoder.feed(blob))
        assert messages == [
            KeyEvent(True, 0x41), KeyEvent(False, 0x41),
            PointerEvent(1, 10, 20), PointerEvent(0, 10, 20)]


class TestServerInitPixelFormat:
    """UIP has one pixel format: a ServerInit naming another fails the
    handshake, which closes the session as a reset would."""

    def test_another_pixel_format_closes_the_session(self):
        scheduler = Scheduler()
        pipe = make_pipe(scheduler)
        pipe.a.on_receive = lambda data: None
        client = UniIntClient(pipe.b)
        closes = []
        client.on_session_close = lambda: closes.append(client.closed)
        # 24 bits per pixel, which RFB does not allow
        fmt = "1818000100ff00ff00ff100800000000"
        pipe.a.send(PROTOCOL_VERSION + bytes([1, SECURITY_NONE]) + bytes(4)
                    + Writer().u16(64).u16(48).raw(bytes.fromhex(fmt))
                    .u32(4).raw(b"fake").getvalue())
        scheduler.run_until_idle()  # must not raise
        assert closes == [True]
        assert not client.ready
        assert (client.handshake_failure
                == f"server pixel format {fmt} is not RGB888")
        assert not pipe.a.is_open  # aborted, as a reset


class TestMalformedServerMessages:
    """A server message the client rejects closes the upstream session
    alone, as a reset would; the error never escapes into the
    transport."""

    def watch(self, client):
        closes = []
        client.on_session_close = lambda: closes.append(client.closed)
        return closes

    @pytest.mark.parametrize("name", MALFORMED_SERVER_MESSAGES)
    def test_unknown_message_type_closes_the_session(self, name):
        scheduler, server, client = connected_pair()
        closes = self.watch(client)
        server.endpoint.send(MALFORMED_SERVER_MESSAGES[name])
        scheduler.run_until_idle()  # must not raise
        assert closes == [True]
        assert not client.ready
        assert not server.endpoint.is_open  # aborted, as a reset

    def test_a_bad_rect_drops_the_partial_update(self):
        scheduler, server, client = connected_pair()
        closes = self.watch(client)
        pixels = RGB888.pack_array(Bitmap(8, 8, fill=(200, 10, 10)).pixels)
        # a whole RAW rect, then a rect in an encoding UIP lacks
        server.endpoint.send(
            Writer().u8(0).pad(1).u16(2)
            .u16(0).u16(0).u16(8).u16(8).s32(RAW).raw(pixels.tobytes())
            .u16(0).u16(0).u16(8).u16(8).s32(99).getvalue())
        scheduler.run_until_idle()
        assert closes == [True]
        # the first rect was decoded but never reached the mirror
        assert client.framebuffer.get_pixel(0, 0) == (0, 0, 0)
        assert client.updates_received == 0

    def test_a_corrupt_deflate_stream_closes_the_session(self):
        scheduler, server, client = connected_pair()
        closes = self.watch(client)
        server.endpoint.send(
            Writer().u8(0).pad(1).u16(1)
            .u16(0).u16(0).u16(8).u16(8).s32(ZRLE)
            .u32(4).raw(b"junk").getvalue())
        scheduler.run_until_idle()  # must not raise
        assert closes == [True]
        assert client.updates_received == 0

    @pytest.mark.parametrize("encoding", [2, 6], ids=["rre", "zlib"])
    def test_a_retired_encoding_closes_the_session(self, encoding):
        """RFB's RRE and ZLIB are no UIP encodings: a well-formed black
        8x8 rect in either is refused like any encoding UIP lacks."""
        scheduler, server, client = connected_pair()
        closes = self.watch(client)
        black = bytes(8 * 8 * 4)
        if encoding == 2:  # no subrects over a background pixel
            payload = Writer().u32(0).raw(black[:4]).getvalue()
        else:  # the pixels through a fresh deflate stream
            deflater = zlib.compressobj()
            stream = (deflater.compress(black)
                      + deflater.flush(zlib.Z_SYNC_FLUSH))
            payload = Writer().u32(len(stream)).raw(stream).getvalue()
        server.endpoint.send(
            Writer().u8(0).pad(1).u16(1)
            .u16(0).u16(0).u16(8).u16(8).s32(encoding)
            .raw(payload).getvalue())
        scheduler.run_until_idle()  # must not raise
        assert closes == [True]
        assert client.updates_received == 0

    def test_a_rect_outside_the_mirror_closes_the_session(self):
        scheduler, server, client = connected_pair()  # a 64x48 mirror
        closes = self.watch(client)
        updates = []
        client.on_update = updates.append
        patch = Bitmap(8, 8, fill=(200, 10, 10))
        server.push(FramebufferUpdate((RectUpdate(
            Rect(60, 4, 8, 8), RAW, patch.pixels),)))
        scheduler.run_until_idle()
        assert closes == [True]
        assert updates == [] and client.updates_received == 0

    def test_the_header_alone_of_a_rect_outside_the_mirror_closes_it(self):
        """A RAW header claiming 60000x60000 pixels (13 GB) is refused as
        it arrives, not waited on."""
        scheduler, server, client = connected_pair()
        closes = self.watch(client)
        server.endpoint.send(
            Writer().u8(0).pad(1).u16(1)
            .u16(0).u16(0).u16(60000).u16(60000).s32(RAW).getvalue())
        scheduler.run_until_idle()
        assert closes == [True]
        assert not server.endpoint.is_open

    def test_the_header_alone_of_an_oversized_zrle_rect_closes_it(self):
        """A 1x1 ZRLE rect whose length field claims 0xFFFFFFFF bytes of
        deflate stream (at most 527 can be valid) is refused as it
        arrives, not waited on."""
        scheduler, server, client = connected_pair()
        closes = self.watch(client)
        server.endpoint.send(
            Writer().u8(0).pad(1).u16(1)
            .u16(0).u16(0).u16(1).u16(1).s32(ZRLE)
            .u32(0xFFFFFFFF).getvalue())
        scheduler.run_until_idle()
        assert closes == [True]
        assert not server.endpoint.is_open

    def test_an_oversized_hextile_update_is_refused_in_little_memory(self):
        """4,116 bytes of HEXTILE claiming 1024x1024: one tile sets the
        background and 4,095 keep it.  Decoded, that is a 4 MB array."""
        scheduler, server, client = connected_pair()  # a 64x48 mirror
        closes = self.watch(client)
        data = (Writer().u8(0).pad(1).u16(1)
                .u16(0).u16(0).u16(1024).u16(1024).s32(HEXTILE)
                .u8(2).raw(bytes(4)).raw(bytes(64 * 64 - 1)).getvalue())
        assert len(data) == 4116
        server.endpoint.send(data)
        tracemalloc.start()
        try:
            scheduler.run_until_idle()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert closes == [True]
        assert peak < 1 << 20
