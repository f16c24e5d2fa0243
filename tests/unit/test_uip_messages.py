"""Unit tests for UIP messages, stream decoders and the handshake."""

import numpy as np
import pytest

from repro.graphics import RGB888, Bitmap, Rect
from repro.graphics.font import Font
from repro.uip import encodings as enc
from repro.uip import (
    Bell,
    ClientHandshake,
    ClientMessageDecoder,
    DecoderState,
    EncoderState,
    FramebufferUpdate,
    FramebufferUpdateRequest,
    HEXTILE,
    KeyEvent,
    PointerEvent,
    PROTOCOL_VERSION,
    RAW,
    RectUpdate,
    ServerHandshake,
    ServerMessageDecoder,
    SetEncodings,
    ZRLE,
    keysyms,
)
from repro.uip.handshake import SECURITY_NONE
from repro.uip.wire import Writer
from repro.util.errors import ProtocolError
from tests.helpers import OPEN_HANDSHAKE


class TestClientMessages:
    def decode_one(self, data):
        decoder = ClientMessageDecoder()
        messages = decoder.feed(data)
        assert len(messages) == 1
        assert decoder.buffered_bytes == 0
        return messages[0]

    def test_pixel_format_type_is_refused(self):
        # type 0 was RFB's SetPixelFormat; UIP has one pixel format
        data = Writer().u8(0).pad(3).raw(RGB888.wire).getvalue()
        with pytest.raises(ProtocolError, match="client message type 0"):
            ClientMessageDecoder().feed(data)

    def test_set_encodings(self):
        # encodings are signed on the wire
        msg = SetEncodings((HEXTILE, ZRLE, RAW, -1))
        assert self.decode_one(msg.encode()) == msg

    def test_framebuffer_update_request(self):
        msg = FramebufferUpdateRequest(True, Rect(10, 20, 300, 400))
        assert self.decode_one(msg.encode()) == msg

    def test_key_event(self):
        msg = KeyEvent(True, keysyms.RETURN)
        assert self.decode_one(msg.encode()) == msg

    def test_pointer_event(self):
        msg = PointerEvent(keysyms.BUTTON_LEFT, 123, 456)
        assert self.decode_one(msg.encode()) == msg

    def test_clipboard_type_is_refused(self):
        # type 6 was RFB's ClientCutText; UIP carries no clipboard
        data = Writer().u8(6).pad(3).u32(9).raw(b"clipboard").getvalue()
        with pytest.raises(ProtocolError, match="client message type 6"):
            ClientMessageDecoder().feed(data)

    def test_stream_reassembly_byte_by_byte(self):
        messages = [KeyEvent(True, ord("a")), PointerEvent(0, 1, 2),
                    SetEncodings((RAW,))]
        stream = b"".join(m.encode() for m in messages)
        decoder = ClientMessageDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i:i + 1]))
        assert out == messages

    def test_multiple_messages_one_chunk(self):
        messages = [KeyEvent(True, 5), KeyEvent(False, 5), Bell]
        stream = KeyEvent(True, 5).encode() + KeyEvent(False, 5).encode()
        out = ClientMessageDecoder().feed(stream)
        assert out == [KeyEvent(True, 5), KeyEvent(False, 5)]

    def test_unknown_type_raises(self):
        with pytest.raises(ProtocolError):
            ClientMessageDecoder().feed(b"\xEE")

    def test_a_stalled_message_survives_buffer_compaction(self):
        # more than 16 KiB of whole messages, then half of one: the
        # decoder drops the parsed prefix while it waits, and must still
        # parse the message once its other half arrives
        key = KeyEvent(True, 0x41).encode()
        decoder = ClientMessageDecoder()
        first = decoder.feed(key * 2100 + key[:4])
        assert len(first) == 2100
        assert decoder.buffered_bytes == 4
        assert decoder.feed(key[4:]) == [KeyEvent(True, 0x41)]
        assert decoder.buffered_bytes == 0


def server_decoder(width=128, height=128):
    """A server-stream decoder for a ``width`` x ``height`` mirror."""
    return ServerMessageDecoder(DecoderState(), width, height)


class TestServerMessages:
    def _roundtrip(self, update):
        data = update.encode(EncoderState())
        messages = server_decoder().feed(data)
        assert len(messages) == 1
        return messages[0]

    def test_bells(self):
        stream = Bell().encode() + Bell().encode()
        out = server_decoder().feed(stream)
        assert out == [Bell(), Bell()]

    def test_clipboard_type_is_refused(self):
        # type 3 was RFB's ServerCutText; UIP carries no clipboard
        data = Writer().u8(3).pad(3).u32(4).raw(b"clip").getvalue()
        with pytest.raises(ProtocolError, match="server message type 3"):
            server_decoder().feed(data)

    def test_framebuffer_update_raw(self):
        bmp = Bitmap(8, 6, fill=(10, 20, 30))
        packed = RGB888.pack_array(bmp.pixels)
        update = FramebufferUpdate(
            (RectUpdate(Rect(2, 3, 8, 6), RAW, bmp.pixels),))
        out = self._roundtrip(update)
        assert out.rects[0].rect == Rect(2, 3, 8, 6)
        assert np.array_equal(out.rects[0].payload, packed)

    def test_framebuffer_update_multi_rect(self):
        a = Bitmap(4, 4, fill=(1, 1, 1)).pixels
        b = Bitmap(8, 2, fill=(2, 2, 2)).pixels
        update = FramebufferUpdate((
            RectUpdate(Rect(0, 0, 4, 4), ZRLE, a),
            RectUpdate(Rect(10, 10, 8, 2), HEXTILE, b),
        ))
        out = self._roundtrip(update)
        assert np.array_equal(out.rects[0].payload, RGB888.pack_array(a))
        assert np.array_equal(out.rects[1].payload, RGB888.pack_array(b))

    @pytest.mark.parametrize("encoding, payload", [
        (1, Writer().u16(1).u16(2).getvalue()),
        (2, Writer().u32(0).raw(bytes(4)).getvalue()),
        (6, Writer().u32(0).getvalue()),
        (-223, b""),
    ], ids=["rfb-copyrect", "retired-rre", "retired-zlib",
            "rfb-desktop-size"])
    def test_rect_encodings_uip_lacks_are_refused(self, encoding, payload):
        data = (Writer().u8(0).pad(1).u16(1)
                .u16(5).u16(5).u16(10).u16(10).s32(encoding)
                .raw(payload).getvalue())
        with pytest.raises(ProtocolError, match=f"encoding {encoding}"):
            server_decoder().feed(data)

    def test_zrle_update_survives_fragmentation(self):
        """The persistent deflate stream must not be corrupted by partial
        reads."""
        enc_state = EncoderState()
        decoder = server_decoder()
        frames = []
        for seed in (1, 2, 3):
            rgb = _panel_pixels(32, 32, seed)
            frames.append((RGB888.pack_array(rgb), FramebufferUpdate(
                (RectUpdate(Rect(0, 0, 32, 32), ZRLE, rgb),))))
        stream = b"".join(u.encode(enc_state) for _, u in frames)
        out = []
        step = 7  # force many partial parses
        for i in range(0, len(stream), step):
            out.extend(decoder.feed(stream[i:i + step]))
        assert len(out) == 3
        for (packed, _), message in zip(frames, out):
            assert np.array_equal(message.rects[0].payload, packed)

    def test_unknown_type_raises(self):
        with pytest.raises(ProtocolError):
            server_decoder().feed(b"\x77")


class TestKeysyms:
    def test_char_roundtrip(self):
        for char in "aZ0 9~":
            assert keysyms.char_for_keysym(ord(char)) == char

    def test_control_keys_have_no_char(self):
        assert keysyms.char_for_keysym(keysyms.RETURN) is None

    def test_names(self):
        assert keysyms.name_for_keysym(keysyms.ESCAPE) == "Escape"
        assert keysyms.name_for_keysym(ord("x")) == "x"
        assert "0x" in keysyms.name_for_keysym(0xFE99)


def run_handshake(server, client, chunk=5):
    """Ferry handshake bytes between the two sans-io machines."""

    def ferry(data, target):
        for i in range(0, len(data), chunk):
            if target.failed is not None:
                return
            target.feed(data[i:i + chunk])

    for _ in range(100):
        progressed = False
        out_s = server.outgoing()
        if out_s and client.failed is None:
            ferry(out_s, client)
            progressed = True
        out_c = client.outgoing()
        if out_c and server.failed is None:
            ferry(out_c, server)
            progressed = True
        if not progressed:
            return
    raise AssertionError("handshake did not converge")


class TestHandshake:
    def test_plain_handshake(self):
        server = ServerHandshake(640, 480, "home-panel")
        client = ClientHandshake()
        run_handshake(server, client)
        assert server.done and client.done
        assert client.result.width == 640
        assert client.result.height == 480
        assert client.result.name == "home-panel"

    def test_shared_secret_success(self):
        server = ServerHandshake(320, 240, "tv", secret="s3cret")
        client = ClientHandshake(secret="s3cret")
        run_handshake(server, client)
        assert server.done and client.done

    def test_shared_secret_mismatch(self):
        server = ServerHandshake(320, 240, "tv", secret="right")
        client = ClientHandshake(secret="wrong")
        run_handshake(server, client)
        assert server.failed is not None
        assert client.failed is not None

    def test_client_without_secret_fails_against_secured_server(self):
        server = ServerHandshake(320, 240, "tv", secret="s")
        client = ClientHandshake()
        run_handshake(server, client)
        assert client.failed is not None

    def test_byte_at_a_time(self):
        server = ServerHandshake(100, 100, "x")
        client = ClientHandshake()
        run_handshake(server, client, chunk=1)
        assert server.done and client.done

    def test_leftover_bytes_preserved(self):
        server = ServerHandshake(100, 100, "x")
        client = ClientHandshake()
        # client completes after ServerInit; append message bytes after
        run_handshake(server, client)
        client.feed(KeyEvent(True, 7).encode())
        leftover = client.leftover()
        decoded = ClientMessageDecoder().feed(leftover)
        assert decoded == [KeyEvent(True, 7)]

    def test_version_constant_shape(self):
        assert PROTOCOL_VERSION.endswith(b"\n")
        assert len(PROTOCOL_VERSION) == 12

    def test_client_sends_a_shared_client_init(self):
        # ClientInit keeps RFB's shared byte, always 1
        client = ClientHandshake()
        client.feed(PROTOCOL_VERSION + bytes([1, SECURITY_NONE]) + bytes(4))
        assert client.outgoing() == OPEN_HANDSHAKE

    def test_bad_version_fails(self):
        server = ServerHandshake(100, 100, "x")
        server.feed(b"RFB 003.008\n")
        assert server.failed is not None

    def test_feed_after_failure_raises(self):
        server = ServerHandshake(100, 100, "x")
        server.feed(b"RFB 003.008\n")
        with pytest.raises(ProtocolError):
            server.feed(b"more")


class TestVersionNegotiation:
    """Both ends speak PROTOCOL_VERSION and refuse any other."""

    def test_client_replies_with_the_protocol_version(self):
        client = ClientHandshake()
        client.feed(PROTOCOL_VERSION)
        assert client.failed is None
        assert client.outgoing() == PROTOCOL_VERSION

    def test_client_refuses_a_001_000_server(self):
        client = ClientHandshake()
        client.feed(b"UIP 001.000\n")
        assert "unsupported" in client.failed
        assert client.outgoing() == b""  # never replied with a version

    def test_server_refuses_a_001_000_client(self):
        server = ServerHandshake(100, 100, "x")
        server.outgoing()
        server.feed(b"UIP 001.000\n")
        assert "unsupported" in server.failed
        assert server.outgoing() == b""  # no security outcome went out

    def test_server_rejects_newer_client_reply(self):
        # a reply above the server's own version violates the clamp rule
        server = ServerHandshake(100, 100, "x")
        server.outgoing()
        server.feed(b"UIP 001.002\n")
        assert server.failed is not None

    def test_server_rejects_prehistoric_client(self):
        server = ServerHandshake(100, 100, "x")
        server.outgoing()
        server.feed(b"UIP 000.009\n")
        assert server.failed is not None

    def test_client_rejects_garbled_version(self):
        client = ClientHandshake()
        client.feed(b"HTTP/1.1 200\n")
        assert client.failed is not None


class TestHandshakeRefusals:
    """Each side refuses a peer that breaks the security exchange, and
    says why."""

    def test_secured_server_refuses_a_client_choosing_no_security(self):
        server = ServerHandshake(100, 100, "x", secret="s")
        server.outgoing()
        server.feed(PROTOCOL_VERSION + bytes([SECURITY_NONE]))
        assert "requires shared secret" in server.failed
        assert server.outgoing() == b""  # no challenge went out

    def test_open_server_refuses_an_unknown_security_type(self):
        server = ServerHandshake(100, 100, "x")
        server.outgoing()
        server.feed(PROTOCOL_VERSION + bytes([9]))
        assert "unknown security 9" in server.failed

    def test_client_refuses_a_prehistoric_server(self):
        client = ClientHandshake()
        client.feed(b"UIP 000.009\n")
        assert "unsupported" in client.failed
        assert client.outgoing() == b""  # never replied with a version

    def test_client_refuses_a_server_offering_no_security(self):
        client = ClientHandshake()
        client.feed(PROTOCOL_VERSION + bytes([0]))
        assert client.failed == "server offered no security types"

    def test_client_refuses_when_no_security_type_is_shared(self):
        client = ClientHandshake()
        client.feed(PROTOCOL_VERSION + bytes([1, 9]))
        assert client.failed == "no mutual security type in [9]"

    @pytest.mark.parametrize("fmt", [
        # 24 bits per pixel, which RFB does not allow
        "18180001 00ff00ff00ff 100800 000000",
        "10100001 001f003f001f 0b0500 000000",  # RGB565
        "20180101 00ff00ff00ff 100800 000000",  # big-endian RGB888
    ], ids=["bpp-24", "rgb565", "big-endian"])
    def test_client_refuses_a_server_init_of_another_pixel_format(self, fmt):
        client = ClientHandshake()
        client.feed(PROTOCOL_VERSION + bytes([1, SECURITY_NONE]) + bytes(4)
                    + Writer().u16(100).u16(80).raw(bytes.fromhex(fmt))
                    .u32(1).raw(b"x").getvalue())
        assert not client.done
        assert client.failed == (f"server pixel format "
                                 f"{fmt.replace(' ', '')} is not RGB888")

    def test_server_challenge_must_be_sixteen_bytes(self):
        with pytest.raises(ProtocolError, match="challenge"):
            ServerHandshake(100, 100, "x", challenge=b"short")


class TestMalformedServerStream:
    @pytest.mark.parametrize("size, noise, refusal", [
        (8, True, "trailing bytes"),
        (64, False, "inflates past"),
        (64, True, "longer than any deflate"),
    ], ids=["longer-than-its-tiles", "past-the-bound", "past-any-deflate"])
    def test_zrle_rect_inflating_to_the_wrong_size(self, size, noise,
                                                   refusal):
        """A ZRLE rect whose header promises 8x4 pixels but whose stream
        holds the tiles of a larger rect must not reach the mirror.  The
        16-colour diagonals of a 64x64 rect pack to 2,113 bytes of tiles
        that deflate to 152, a length an 8x4 rect may carry; its noise
        deflates to more than any 8x4 rect's tiles can."""
        if noise:
            pixels = np.random.default_rng(size).integers(
                0, 1 << 24, (size, size), dtype=np.uint32)
        else:
            ys, xs = np.indices((size, size))
            pixels = ((xs + ys) % 16 * 0x0F0F0F).astype(np.uint32)
        lying = Writer().u8(0).pad(1).u16(1).u16(0).u16(0).u16(8).u16(4)
        payload = enc.encode_rect(EncoderState(), pixels, ZRLE)
        decoder = server_decoder()
        with pytest.raises(ProtocolError, match=refusal):
            decoder.feed(lying.s32(ZRLE).raw(payload).getvalue())

    @pytest.mark.parametrize("rect", [
        Rect(120, 0, 9, 1), Rect(0, 127, 1, 2), Rect(65535, 0, 1, 1),
        Rect(0, 0, 60000, 60000)])
    def test_a_rect_outside_the_mirror_is_refused_at_its_header(self, rect):
        """Only the header has arrived; the payload it claims is never
        awaited."""
        header = (Writer().u8(0).pad(1).u16(1).u16(rect.x).u16(rect.y)
                  .u16(rect.w).u16(rect.h).s32(RAW).getvalue())
        with pytest.raises(ProtocolError, match="leaves the 128x128 mirror"):
            server_decoder().feed(header)

    def test_a_rect_filling_the_mirror_is_accepted(self):
        rgb = Bitmap(128, 128, fill=(1, 2, 3)).pixels
        packed = RGB888.pack_array(rgb)
        update = FramebufferUpdate((RectUpdate(Rect(0, 0, 128, 128), RAW,
                                               rgb),))
        [message] = server_decoder().feed(update.encode(EncoderState()))
        assert np.array_equal(message.rects[0].payload, packed)


def _panel_pixels(width, height, seed):
    """Flat fills under lines of text: HEXTILE tiles full of subrects."""
    rng = np.random.default_rng(seed)
    bmp = Bitmap(width, height, fill=(20, 20, 60))
    font = Font(scale=1)
    for y in range(0, height, 8):
        text = "".join(chr(c) for c in rng.integers(33, 127, width // 6))
        font.draw(bmp, 1, y, text, tuple(int(c) for c in rng.integers(
            100, 256, 3)))
    return bmp.pixels


class TestDecodeOnce:
    """An update split over chunks resumes at the rect where it stopped:
    each rect is decoded once, and the result equals a one-shot parse."""

    @pytest.fixture
    def update(self):
        rects = [
            (Rect(0, 0, 96, 40), HEXTILE, _panel_pixels(96, 40, 1)),
            (Rect(0, 40, 96, 40), HEXTILE, _panel_pixels(96, 40, 2)),
            (Rect(100, 0, 6, 5), RAW, _panel_pixels(6, 5, 3)),
            (Rect(0, 80, 40, 20), ZRLE, _panel_pixels(40, 20, 4)),
            (Rect(40, 80, 24, 16), ZRLE, _panel_pixels(24, 16, 5)),
        ]
        return FramebufferUpdate(tuple(
            RectUpdate(rect, encoding, pixels)
            for rect, encoding, pixels in rects))

    @staticmethod
    def decoded(monkeypatch):
        """Every rect ``decode_rect`` completes, as (w, h, encoding)."""
        done = []
        original = enc.decode_rect

        def counting(state, cursor, width, height, encoding):
            out = original(state, cursor, width, height, encoding)
            done.append((width, height, encoding))
            return out

        monkeypatch.setattr(enc, "decode_rect", counting)
        return done

    @staticmethod
    def assert_same(messages, update):
        assert len(messages) == 1
        assert len(messages[0].rects) == len(update.rects)
        for got, sent in zip(messages[0].rects, update.rects):
            assert (got.rect, got.encoding) == (sent.rect, sent.encoding)
            packed = RGB888.pack_array(sent.payload)
            assert got.payload.dtype == packed.dtype
            assert np.array_equal(got.payload, packed)

    def test_the_update_spans_several_chunks(self, update):
        chunks = update.encode_chunks(EncoderState())
        big = [len(c) for c in chunks if len(c) >= Writer.COALESCE_BELOW]
        # the two HEXTILE payloads ride alone, as the pipe delivers them
        assert len(big) == 2 and len(chunks) == 5

    def test_chunk_by_chunk_decodes_each_rect_once(self, update,
                                                   monkeypatch):
        chunks = update.encode_chunks(EncoderState())
        done = self.decoded(monkeypatch)
        decoder = server_decoder()
        messages = []
        for chunk in chunks:
            messages.extend(decoder.feed(chunk))
        self.assert_same(messages, update)
        assert done == [(r.rect.w, r.rect.h, r.encoding)
                        for r in update.rects]
        assert decoder.buffered_bytes == 0

    def test_every_byte_split_decodes_each_rect_once(self, update,
                                                     monkeypatch):
        data = update.encode(EncoderState())
        done = self.decoded(monkeypatch)
        once = [(r.rect.w, r.rect.h, r.encoding) for r in update.rects]
        for split in range(1, len(data)):
            done.clear()
            decoder = server_decoder()
            messages = decoder.feed(data[:split]) + decoder.feed(
                data[split:])
            self.assert_same(messages, update)
            assert done == once, split
