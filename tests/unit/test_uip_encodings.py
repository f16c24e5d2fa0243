"""Unit tests for the framebuffer-update encodings."""

import hashlib
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.graphics import RGB888, Bitmap, Rect, default_font
from repro.toolkit import Canvas
from repro.uip import (
    HEXTILE,
    RAW,
    ZRLE,
    DecoderState,
    EncodeCache,
    EncoderState,
    decode_rect,
    encode_pixels,
    encode_rect,
)
from repro.uip import encodings as enc
from repro.uip.encodings import (
    DEFLATE_LEVEL,
    content_digest,
    decode_zrle_tiles,
    encode_zrle_tiles,
)
from repro.uip.wire import Cursor, NeedMore, Writer
from repro.util.errors import GraphicsError, ProtocolError

PIXEL_CODECS = [RAW, HEXTILE, ZRLE]

#: Encodings UIP once carried (RFB's RRE and ZLIB) and no longer does.
RETIRED_ENCODINGS = [2, 6]


def panel_bitmap(width=96, height=64):
    """A control-panel-like image: flat fills, bevels and text."""
    bmp = Bitmap(width, height, fill=(192, 192, 192))
    canvas = Canvas(bmp, 0, 0, bmp.bounds)
    canvas.bevel(Rect(8, 8, width - 16, 20), face=(160, 160, 200),
                 light=(255, 255, 255), shadow=(80, 80, 80))
    canvas.bevel(Rect(8, 34, (width - 16) // 2, 20),
                 face=(200, 120, 120), light=(255, 255, 255),
                 shadow=(80, 80, 80))
    default_font(1).draw(bmp, 12, 14, "POWER", (0, 0, 0))
    return bmp


def noise_bitmap(width=64, height=48, seed=3):
    rng = np.random.default_rng(seed)
    return Bitmap.from_array(
        rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))


def checkerboard(width, height, cell, a, b):
    """``cell``-pixel squares of ``a`` and ``b``, ``a`` at the origin: a
    worst case for the run-based encoders."""
    ys, xs = np.indices((height, width))
    odd = (ys // cell + xs // cell) % 2 == 1
    return Bitmap.from_array(np.where(odd[..., None], b, a))


def roundtrip(bitmap, encoding):
    packed = RGB888.pack_array(bitmap.pixels)
    enc_state = EncoderState()
    dec_state = DecoderState()
    payload = encode_rect(enc_state, packed, encoding)
    out = decode_rect(dec_state, Cursor(payload), bitmap.width,
                      bitmap.height, encoding)
    return packed, payload, out


class TestRoundTrips:
    @pytest.mark.parametrize("encoding", PIXEL_CODECS)
    def test_panel_roundtrip(self, encoding):
        packed, _, out = roundtrip(panel_bitmap(), encoding)
        assert np.array_equal(out, packed)

    @pytest.mark.parametrize("encoding", PIXEL_CODECS)
    def test_noise_roundtrip(self, encoding):
        packed, _, out = roundtrip(noise_bitmap(), encoding)
        assert np.array_equal(out, packed)

    @pytest.mark.parametrize("encoding", PIXEL_CODECS)
    def test_single_pixel(self, encoding):
        bmp = Bitmap(1, 1, fill=(13, 57, 201))
        packed, _, out = roundtrip(bmp, encoding)
        assert np.array_equal(out, packed)

    @pytest.mark.parametrize("encoding", PIXEL_CODECS)
    def test_an_empty_rect_round_trips(self, encoding):
        packed = np.zeros((0, 5), dtype=RGB888.dtype)
        payload = encode_rect(EncoderState(), packed, encoding)
        out = decode_rect(DecoderState(), Cursor(payload), 5, 0, encoding)
        assert out.shape == (0, 5) and out.dtype == RGB888.dtype

    @pytest.mark.parametrize("encoding", PIXEL_CODECS)
    def test_non_tile_aligned_sizes(self, encoding):
        bmp = panel_bitmap(37, 23)
        packed, _, out = roundtrip(bmp, encoding)
        assert np.array_equal(out, packed)

    @pytest.mark.parametrize("size", [(15, 15), (16, 16), (17, 17),
                                      (33, 16), (16, 33), (48, 31)])
    def test_edge_tile_sizes(self, size):
        """HEXTILE widths/heights straddling the 16-pixel tile grid."""
        width, height = size
        bmp = checkerboard(width, height, 5, (32, 32, 32), (220, 80, 10))
        bmp.fill_rect(Rect(width // 3, height // 3, width // 2, 3),
                      (0, 255, 0))
        packed, _, out = roundtrip(bmp, HEXTILE)
        assert np.array_equal(out, packed)

    def test_flat_bitmap_hextile_is_tiny(self):
        bmp = Bitmap(128, 128, fill=(5, 5, 5))
        _, payload, _ = roundtrip(bmp, HEXTILE)
        # the first tile sets the background, the other 63 keep it
        assert len(payload) == (1 + 4) + 63

    def test_checkerboard_roundtrip_hextile(self):
        bmp = checkerboard(64, 64, 1, (0, 0, 0), (255, 255, 255))
        packed, _, out = roundtrip(bmp, HEXTILE)
        assert np.array_equal(out, packed)


class TestCompression:
    def test_panel_hextile_beats_raw(self):
        bmp = panel_bitmap(256, 192)
        packed = RGB888.pack_array(bmp.pixels)
        state = EncoderState()
        raw = encode_rect(state, packed, RAW)
        hextile = encode_rect(state, packed, HEXTILE)
        assert len(hextile) < len(raw) / 5

    def test_noise_hextile_falls_back_to_raw_size(self):
        bmp = noise_bitmap(64, 64)
        packed = RGB888.pack_array(bmp.pixels)
        state = EncoderState()
        raw = encode_rect(state, packed, RAW)
        hextile = encode_rect(state, packed, HEXTILE)
        # per-tile 1-byte header overhead only
        assert len(hextile) <= len(raw) + (64 // 16) ** 2

    def test_zrle_persistent_stream_improves(self):
        # Incompressible noise: the first frame's raw tile stays near raw
        # size, but the identical second frame hits the persistent
        # dictionary window.
        bmp = noise_bitmap(48, 48)
        packed = RGB888.pack_array(bmp.pixels)
        enc_state = EncoderState()
        first = encode_rect(enc_state, packed, ZRLE)
        second = encode_rect(enc_state, packed, ZRLE)
        assert len(second) < len(first) / 10
        # and both decode correctly through one persistent inflater
        dec_state = DecoderState()
        out1 = decode_rect(dec_state, Cursor(first), 48, 48, ZRLE)
        out2 = decode_rect(dec_state, Cursor(second), 48, 48, ZRLE)
        assert np.array_equal(out1, packed)
        assert np.array_equal(out2, packed)


class TestEncodeCache:
    """``encode_pixels`` keys a rect on its pixels' own bytes and packs
    and encodes it only on a miss."""

    def test_repeat_encode_hits(self):
        rgb = panel_bitmap().pixels
        state = EncoderState(cache=EncodeCache())
        first = encode_pixels(state, rgb, HEXTILE)
        second = encode_pixels(state, rgb.copy(), HEXTILE)
        assert first == second == encode_rect(
            EncoderState(), RGB888.pack_array(rgb), HEXTILE)
        assert state.cache.hits == 1
        assert state.cache.misses == 1

    def test_packed_pixels_are_refused_and_stored_nowhere(self):
        """RGB only: the same content packed would key a second entry."""
        packed = RGB888.pack_array(panel_bitmap().pixels)
        state = EncoderState(cache=EncodeCache())
        for each in (state, EncoderState()):
            with pytest.raises(GraphicsError, match="expected"):
                encode_pixels(each, packed, HEXTILE)
        assert len(state.cache) == 0

    def test_zrle_payload_never_served_from_the_cache(self):
        """The deflated payload rides the session's stream, so the same
        pixels encode to different bytes; only the tile stream is
        cached."""
        rgb = panel_bitmap().pixels
        state = EncoderState(cache=EncodeCache())
        first = encode_pixels(state, rgb, ZRLE)
        second = encode_pixels(state, rgb, ZRLE)
        assert first != second
        assert state.cache.hits == 1 and len(state.cache) == 1
        assert state.cache.get((ZRLE, rgb.shape, content_digest(rgb))) == (
            encode_zrle_tiles(RGB888.pack_array(rgb)))

    def test_no_cache(self):
        state = EncoderState()
        rgb = panel_bitmap().pixels
        assert encode_pixels(state, rgb, HEXTILE) == encode_pixels(
            state, rgb, HEXTILE)
        assert state.cache is None

    def test_entry_count_eviction(self):
        state = EncoderState(cache=EncodeCache(max_entries=2))
        frames = [Bitmap(8, 8, fill=(i, 0, 0)).pixels for i in range(3)]
        for rgb in frames:
            encode_pixels(state, rgb, HEXTILE)
        assert len(state.cache) == 2
        # oldest entry evicted: re-encoding frame 0 misses again
        misses = state.cache.misses
        encode_pixels(state, frames[0], HEXTILE)
        assert state.cache.misses == misses + 1

    def test_byte_budget_eviction(self):
        cache = EncodeCache(max_entries=100, max_bytes=64)
        cache.put(("a",), b"x" * 40)
        cache.put(("b",), b"y" * 40)
        assert len(cache) == 1  # first entry evicted to fit the budget
        assert cache.stored_bytes == 40

    def test_oversized_payload_not_stored(self):
        cache = EncodeCache(max_entries=4, max_bytes=16)
        cache.put(("big",), b"z" * 100)
        assert len(cache) == 0

    def test_shared_cache_across_states(self):
        shared = EncodeCache()
        a = EncoderState(cache=shared)
        b = EncoderState(cache=shared)
        rgb = panel_bitmap().pixels
        encode_pixels(a, rgb, HEXTILE)
        encode_pixels(b, rgb, HEXTILE)
        assert shared.hits == 1 and shared.misses == 1

    @pytest.mark.parametrize("encoding", PIXEL_CODECS)
    def test_non_contiguous_view_encodes_like_a_copy(self, encoding):
        base = RGB888.pack_array(panel_bitmap(64, 64).pixels)
        view = base[::, 1:33]  # non-contiguous slice
        assert not view.flags.c_contiguous
        assert (encode_rect(EncoderState(), view, encoding)
                == encode_rect(EncoderState(), view.copy(), encoding))
        rgb = panel_bitmap(64, 64).pixels[3:40, 1:33]
        assert not rgb.flags.c_contiguous
        assert content_digest(rgb) == content_digest(rgb.copy())
        assert (encode_pixels(EncoderState(), rgb, encoding)
                == encode_pixels(EncoderState(), rgb.copy(), encoding))

    def test_unknown_encoding_is_refused_and_not_stored(self):
        state = EncoderState(cache=EncodeCache())
        with pytest.raises(ProtocolError):
            encode_pixels(state, panel_bitmap().pixels, 99)
        assert len(state.cache) == 0

    def test_content_digest_is_sha256_of_the_bytes(self):
        """One digest for every content key: arrays in C order, and the
        proxy decoder's payload bytes."""
        rgb = panel_bitmap().pixels[2:9, 5:30]
        assert content_digest(rgb) == hashlib.sha256(
            rgb.tobytes()).digest()
        assert content_digest(b"payload") == hashlib.sha256(
            b"payload").digest()


class TestZrle:
    def test_zrle_caches_tile_stream_not_payload(self):
        """ZRLE caches the position-independent tile stream: a second
        session on the same cache reuses it even though its deflate
        output differs."""
        cache = EncodeCache()
        rgb = panel_bitmap().pixels
        packed = RGB888.pack_array(rgb)
        first = EncoderState(cache=cache)
        encode_pixels(first, rgb, ZRLE)
        assert len(cache) == 1
        hits = cache.hits
        second = EncoderState(cache=cache)
        payload = encode_pixels(second, rgb, ZRLE)
        assert cache.hits == hits + 1
        out = decode_rect(DecoderState(), Cursor(payload),
                          packed.shape[1], packed.shape[0], ZRLE)
        assert np.array_equal(out, packed)

    def test_zrle_panel_much_smaller_than_hextile(self):
        packed = RGB888.pack_array(panel_bitmap(192, 192).pixels)
        zrle = encode_rect(EncoderState(), packed, ZRLE)
        hextile = encode_rect(EncoderState(), packed, HEXTILE)
        assert len(zrle) * 3 < len(hextile)

    def test_zrle_run_longer_than_255(self):
        bitmap = Bitmap(64, 10)
        bitmap.fill((10, 20, 30))
        packed = RGB888.pack_array(bitmap.pixels)
        packed[0, 0] = 0xFFFFFF  # break the solid-tile shortcut
        stream = encode_zrle_tiles(packed)
        payload = encode_rect(EncoderState(), packed, ZRLE)
        out = decode_rect(DecoderState(), Cursor(payload), 64, 10, ZRLE)
        assert np.array_equal(out, packed)
        assert len(stream) < 64 * 10 * 3  # the long run actually compressed


class TestErrors:
    def test_unknown_encoding_encode(self):
        state = EncoderState()
        with pytest.raises(ProtocolError):
            encode_rect(state, RGB888.pack_array(Bitmap(2, 2).pixels), 99)

    def test_unknown_encoding_decode(self):
        with pytest.raises(ProtocolError):
            decode_rect(DecoderState(), Cursor(b""), 2, 2, 99)

    @pytest.mark.parametrize("encoding", RETIRED_ENCODINGS,
                             ids=["rre", "zlib"])
    def test_retired_encodings_are_refused(self, encoding):
        packed = RGB888.pack_array(Bitmap(8, 8).pixels)
        with pytest.raises(ProtocolError, match=f"encoding {encoding}"):
            encode_rect(EncoderState(), packed, encoding)
        # what each carried: a subrect count and a background, or a
        # deflated length and stream
        payload = Writer().u32(0).raw(bytes(4)).getvalue()
        with pytest.raises(ProtocolError, match=f"encoding {encoding}"):
            decode_rect(DecoderState(), Cursor(payload), 8, 8,
                        encoding)

    def test_non_2d_array_rejected(self):
        state = EncoderState()
        with pytest.raises(ProtocolError):
            encode_rect(state, np.zeros((2, 2, 3)), RAW)


class TestMalformedZrleStreams:
    """The client inflates whatever the wire brings; a bad tile stream must
    raise ProtocolError, never a numpy error or a silently short mirror."""

    PX = b"\x10\x20\x30\x00"  # one RGB888 pixel (4 bytes)

    def decode(self, stream, width=4, height=4):
        return decode_zrle_tiles(stream, width, height)

    def test_well_formed_tile_decodes(self):
        # palette RLE, 2 colours: a run of 15 of colour 1, then colour 0
        stream = bytes([130]) + self.PX + b"\x40\x50\x60\x00" + bytes(
            [0x81, 14, 0x00])
        out = self.decode(stream)
        assert out.reshape(-1)[-1] == int.from_bytes(self.PX, "little")
        assert (out.reshape(-1)[:15] == 0x00605040).all()

    def test_packed_palette_index_out_of_range(self):
        # 3 colours at 2 bits per index; index 3 names no colour
        stream = bytes([3]) + self.PX * 3 + bytes([0b11000000, 0, 0, 0])
        with pytest.raises(ProtocolError, match="palette index"):
            self.decode(stream)

    def test_plain_rle_run_longer_than_the_tile(self):
        stream = bytes([128]) + self.PX + bytes([16])  # a run of 17 > 16
        with pytest.raises(ProtocolError, match="run exceeds tile"):
            self.decode(stream)

    def test_palette_rle_index_out_of_range(self):
        stream = bytes([130]) + self.PX * 2 + bytes([0x05])
        with pytest.raises(ProtocolError, match="palette index 5"):
            self.decode(stream)

    def test_palette_rle_run_longer_than_the_tile(self):
        stream = bytes([130]) + self.PX * 2 + bytes([0x80, 16])
        with pytest.raises(ProtocolError, match="run exceeds tile"):
            self.decode(stream)

    @pytest.mark.parametrize("subencoding", [17, 127, 129])
    def test_unassigned_subencoding(self, subencoding):
        with pytest.raises(ProtocolError, match="invalid ZRLE subencoding"):
            self.decode(bytes([subencoding]) + self.PX * 16)

    def test_truncated_tile_stream(self):
        with pytest.raises(ProtocolError, match="truncated"):
            self.decode(bytes([1]) + self.PX[:2])  # solid, half a pixel

    def test_trailing_bytes_after_the_last_tile(self):
        with pytest.raises(ProtocolError, match="trailing"):
            self.decode(bytes([1]) + self.PX + b"\xff")


class TestZrleInflateBound:
    """The inflater stops at the longest tile stream a rect of the
    header's size can carry, so a short stream cannot claim memory it
    never pays for on the wire; and a length field longer than zlib
    deflates that stream to is refused before its bytes are awaited."""

    @staticmethod
    def payload(chunks, level=DEFLATE_LEVEL):
        """A ZRLE rect payload: ``chunks`` through a fresh deflate stream."""
        deflater = zlib.compressobj(level)
        stream = b"".join(deflater.compress(c) for c in chunks)
        stream += deflater.flush(zlib.Z_SYNC_FLUSH)
        return Writer().u32(len(stream)).raw(stream).getvalue()

    def test_a_stream_inflating_past_the_bound_is_refused_early(self):
        # 16 MB of zeros deflates to about 16 KB, a length a 64x64 RGB888
        # rect may carry; its tile stream holds at most
        # 64 * 64 * (4 + 1) + (1 + 127 * 4) = 20989 bytes
        payload = self.payload([bytes(1 << 20)] * 16)
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError,
                               match="inflates past 20989 bytes"):
                decode_rect(DecoderState(), Cursor(payload), 64, 64,
                            ZRLE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_length_past_any_deflate_of_the_bound_is_refused_unread(self):
        """A 1x1 RGB888 tile stream holds at most 1 * (4 + 1) +
        (1 + 127 * 4) = 514 bytes, which zlib deflates to at most
        compressBound(514) = 527."""
        with pytest.raises(NeedMore):  # 527 bytes may follow: wait on them
            decode_rect(DecoderState(),
                        Cursor(Writer().u32(527).getvalue()), 1, 1, ZRLE)
        for length in (528, 0xFFFFFFFF):
            with pytest.raises(ProtocolError,
                               match=f"{length} bytes is longer than any "
                                     f"deflate of 514 bytes"):
                decode_rect(DecoderState(),
                            Cursor(Writer().u32(length).getvalue()), 1, 1,
                            ZRLE)

    def test_the_longest_valid_stream_decodes(self):
        """One 64x64 tile in plain RLE, every pixel a run of its own
        written in five bytes: the longest tile stream a 64x64 rect can
        carry, deflated at the lowest, the sessions' and the highest
        level."""
        pixels = np.random.default_rng(5).integers(
            0, 1 << 24, 64 * 64).astype(RGB888.dtype)
        runs = np.zeros((64 * 64, 5), dtype=np.uint8)
        runs[:, :4] = pixels.view(np.uint8).reshape(-1, 4)
        tiles = bytes([128]) + runs.tobytes()  # length byte 0: a run of 1
        assert len(tiles) == 1 + 64 * 64 * (4 + 1)
        for level in (0, DEFLATE_LEVEL, 9):
            out = decode_rect(DecoderState(), Cursor(self.payload(
                [tiles], level)), 64, 64, ZRLE)
            assert np.array_equal(out.reshape(-1), pixels)


class TestEncodeCacheLimits:
    @pytest.mark.parametrize("limits", [(0, 1), (1, 0), (-1, 5)])
    def test_non_positive_limits_rejected(self, limits):
        with pytest.raises(ValueError):
            EncodeCache(*limits)

    def test_replacing_an_entry_counts_its_bytes_once(self):
        cache = EncodeCache(max_entries=4, max_bytes=100)
        cache.put(("k",), b"a" * 60)
        cache.put(("k",), b"b" * 30)
        assert len(cache) == 1
        assert cache.stored_bytes == 30
        cache.put(("j",), b"c" * 60)  # fits only if "k" counts 30, not 90
        assert len(cache) == 2


class TestHextileDecodeCache:
    """A session's decoder serves a HEXTILE payload it has met twice from
    ``DecoderState.cache``; pixels are kept from the second sighting on."""

    @staticmethod
    def hextile_decodes(monkeypatch):
        """Every ``decode_hextile`` call, as (w, h)."""
        calls = []
        original = enc.decode_hextile

        def counting(cursor, width, height):
            calls.append((width, height))
            return original(cursor, width, height)

        monkeypatch.setattr(enc, "decode_hextile", counting)
        return calls

    @staticmethod
    def sighting(state, payload, width, height):
        """Decode ``payload`` framed by stray bytes, as a stream holds it;
        the cursor must end just past the payload."""
        cursor = Cursor(bytearray(b"\x01" + payload + b"\x02"), 1)
        out = decode_rect(state, cursor, width, height, HEXTILE)
        assert cursor.pos == 1 + len(payload)
        return out

    def test_the_third_sighting_is_served_from_the_cache(self, monkeypatch):
        packed = RGB888.pack_array(panel_bitmap().pixels)
        payload = encode_rect(EncoderState(), packed, HEXTILE)
        calls = self.hextile_decodes(monkeypatch)
        state = DecoderState()
        first = self.sighting(state, payload, 96, 64)
        # a one-off rect holds no pixels
        assert len(state.cache) == 1 and state.cache.stored_bytes == 0
        second = self.sighting(state, payload, 96, 64)
        assert state.cache.stored_bytes == packed.nbytes
        third = self.sighting(state, payload, 96, 64)
        fourth = self.sighting(state, payload, 96, 64)
        assert calls == [(96, 64), (96, 64)]
        for out in (first, second, third, fourth):
            assert out.dtype == packed.dtype
            assert np.array_equal(out, packed)
        assert not third.flags.writeable
        with pytest.raises(ValueError):
            third[0, 0] = 0
        # the pixels handed out on a miss are the caller's own
        second[0, 0] = 0
        assert np.array_equal(self.sighting(state, payload, 96, 64), packed)

    def test_the_key_holds_the_rect_size(self):
        """A flat 32x16 rect and a flat 16x32 one send the same bytes."""
        wide = RGB888.pack_array(Bitmap(32, 16, fill=(9, 8, 7)).pixels)
        tall = wide.T.copy()
        payload = encode_rect(EncoderState(), wide, HEXTILE)
        assert encode_rect(EncoderState(), tall, HEXTILE) == payload
        state = DecoderState()
        for _ in range(3):
            assert np.array_equal(
                self.sighting(state, payload, 32, 16), wide)
            assert np.array_equal(
                self.sighting(state, payload, 16, 32), tall)
        assert len(state.cache) == 2

    def test_a_malformed_payload_raises_every_time_and_is_never_stored(
            self, monkeypatch):
        px = [v.to_bytes(4, "little") for v in (1, 2)]
        # one 10x7 tile whose subrect, 3 wide at x=8, leaves it
        payload = bytes([2 | 4 | 8]) + px[0] + px[1] + bytes([1, 0x80, 0x20])
        calls = self.hextile_decodes(monkeypatch)
        state = DecoderState()
        for _ in range(3):
            with pytest.raises(ProtocolError, match="exceeds tile 10x7"):
                decode_rect(state, Cursor(payload), 10, 7, HEXTILE)
        assert len(calls) == 3
        assert len(state.cache) == 0

    @pytest.mark.parametrize("encoding", [RAW, ZRLE])
    def test_raw_and_zrle_rects_are_not_cached(self, encoding):
        packed = RGB888.pack_array(panel_bitmap(40, 24).pixels)
        enc_state, state = EncoderState(), DecoderState()
        for _ in range(3):
            payload = encode_rect(enc_state, packed, encoding)
            out = decode_rect(state, Cursor(payload), 40, 24, encoding)
            assert np.array_equal(out, packed)
        assert len(state.cache) == 0

    def test_a_hostile_servers_distinct_payloads_stay_inside_the_caps(self):
        """1,000 distinct flat rects, each sent twice so its pixels are
        kept: small ones fill the entry cap, large ones the byte cap."""
        state = DecoderState()
        cache = state.cache
        for i in range(1000):
            side = 16 if i < 500 else 128  # 1 KB or 64 KB of pixels
            tiles = (side // 16) ** 2
            payload = (bytes([2]) + (i + 1).to_bytes(4, "little")
                       + bytes(tiles - 1))
            for _ in range(2):
                out = decode_rect(state, Cursor(payload), side, side,
                                  HEXTILE)
                assert out[-1, -1] == i + 1
                assert len(cache) <= cache.max_entries
                assert cache.stored_bytes <= cache.max_bytes
            if i == 499:
                assert len(cache) == cache.max_entries
        assert cache.stored_bytes > cache.max_bytes - 128 * 128 * 4
