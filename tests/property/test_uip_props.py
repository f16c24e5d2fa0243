"""Property-based tests for the universal interaction protocol."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphics import RGB888, Rect
from repro.uip import (
    ClientMessageDecoder,
    DecoderState,
    EncodeCache,
    EncoderState,
    FramebufferUpdateRequest,
    HEXTILE,
    KeyEvent,
    PointerEvent,
    RAW,
    SetEncodings,
    ZRLE,
    decode_rect,
    encode_pixels,
    encode_rect,
)
from repro.uip.encodings import encode_zrle_tiles
from repro.uip.messages import (
    FramebufferUpdate,
    RectUpdate,
    ServerMessageDecoder,
)
from repro.uip.wire import Cursor

codecs = st.sampled_from([RAW, HEXTILE, ZRLE])


@st.composite
def packed_arrays(draw):
    """Random packed pixel arrays biased toward flat regions (GUI-like)."""
    width = draw(st.integers(1, 40))
    height = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**31))
    palette_size = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    palette = rng.integers(0, 256, size=(palette_size, 3), dtype=np.uint8)
    indices = rng.integers(0, palette_size, size=(height, width))
    rgb = palette[indices]
    return RGB888.pack_array(rgb)


#: Palette and mean run sizes the ZRLE round-trip samples.
ZRLE_PALETTES = [1, 2, 3, 5, 17, 64, 200]
ZRLE_RUNS = [1, 8, 400]


def zrle_pixels(width, height, palette_size, mean_run, seed):
    """Packed pixels laid out as runs of palette colours in raster order.

    One colour gives solid tiles.  Single-pixel runs give packed
    palettes over a few colours and raw tiles over a big palette; runs
    of about 8 give palette RLE, and runs of hundreds plain RLE.
    """
    rng = np.random.default_rng(seed)
    palette = rng.integers(0, 256, size=(palette_size, 3), dtype=np.uint8)
    area = width * height
    runs = 2 * area // mean_run + 2
    lengths = rng.integers(1, 2 * mean_run, size=runs)
    colours = rng.integers(0, palette_size, size=runs)
    indices = np.resize(np.repeat(colours, lengths), area)
    return RGB888.pack_array(palette[indices.reshape(height, width)])


def zrle_kind(subencoding):
    """The name of one ZRLE tile subencoding byte."""
    if subencoding == 0:
        return "raw"
    if subencoding == 1:
        return "solid"
    if subencoding <= 16:
        return "packed-palette"
    if subencoding == 128:
        return "plain-rle"
    return "palette-rle"


class TestEncodingRoundTrip:
    @given(st.data(), codecs)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_exact(self, data, encoding):
        packed = data.draw(packed_arrays())
        enc_state = EncoderState()
        dec_state = DecoderState()
        payload = encode_rect(enc_state, packed, encoding)
        out = decode_rect(dec_state, Cursor(payload), packed.shape[1],
                          packed.shape[0], encoding)
        assert out.dtype == packed.dtype
        assert np.array_equal(out, packed)

    @given(st.data(),
           st.sampled_from([15, 16, 17, 31, 32, 33, 47, 48]),
           st.sampled_from([15, 16, 17, 31, 32, 33]))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_at_tile_boundaries(self, data, width, height):
        """The batched HEXTILE tiles must be exact on edge tiles, at every
        size straddling the 16-pixel grid."""
        seed = data.draw(st.integers(0, 2**31))
        palette_size = data.draw(st.integers(1, 5))
        rng = np.random.default_rng(seed)
        palette = rng.integers(0, 256, size=(palette_size, 3),
                               dtype=np.uint8)
        rgb = palette[rng.integers(0, palette_size, size=(height, width))]
        packed = RGB888.pack_array(rgb)
        payload = encode_rect(EncoderState(), packed, HEXTILE)
        out = decode_rect(DecoderState(), Cursor(payload), width, height,
                          HEXTILE)
        assert out.dtype == packed.dtype
        assert np.array_equal(out, packed)

    @given(st.data(),
           st.sampled_from([1, 7, 63, 64, 65, 127, 128, 130]),
           st.sampled_from([1, 63, 64, 65, 129]),
           st.sampled_from(ZRLE_PALETTES),
           st.sampled_from(ZRLE_RUNS),
           st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_zrle_roundtrip_at_tile_boundaries(self, data, width, height,
                                               palette_size, mean_run,
                                               seed):
        """Every ZRLE subencoding, at sizes straddling the 64-pixel grid
        (see ``zrle_pixels`` for which draw favours which subencoding)."""
        packed = zrle_pixels(width, height, palette_size, mean_run, seed)
        payload = encode_rect(EncoderState(), packed, ZRLE)
        out = decode_rect(DecoderState(), Cursor(payload), width, height,
                          ZRLE)
        assert out.dtype == packed.dtype
        assert np.array_equal(out, packed)

    def test_zrle_draws_reach_every_subencoding(self):
        """The round-trip above draws all five tile kinds: on one 64x64
        tile the palette and run sizes it samples pick each of them."""
        kinds = {zrle_kind(encode_zrle_tiles(
                     zrle_pixels(64, 64, palette_size, mean_run, 7))[0])
                 for palette_size in ZRLE_PALETTES for mean_run in ZRLE_RUNS}
        assert kinds == {"solid", "packed-palette", "plain-rle",
                         "palette-rle", "raw"}

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_hextile_never_catastrophically_larger(self, data):
        packed = data.draw(packed_arrays())
        state = EncoderState()
        raw = encode_rect(state, packed, RAW)
        hextile = encode_rect(state, packed, HEXTILE)
        n_tiles = ((packed.shape[0] + 15) // 16) * ((packed.shape[1] + 15) // 16)
        assert len(hextile) <= len(raw) + n_tiles


class TestEncodeCacheRoundTrip:
    """The content-keyed encode cache must be invisible on the wire."""

    @given(st.data(), codecs)
    @settings(max_examples=60, deadline=None)
    def test_cached_and_fresh_payloads_decode_identically(self, data,
                                                          encoding):
        packed = data.draw(packed_arrays())
        rgb = RGB888.unpack(packed)
        cached_state = EncoderState(cache=EncodeCache())
        fresh_state = EncoderState()
        assert fresh_state.cache is None
        first = encode_pixels(cached_state, rgb, encoding)
        second = encode_pixels(cached_state, rgb.copy(), encoding)
        fresh = encode_rect(fresh_state, packed, encoding)
        if encoding != ZRLE:  # a ZRLE payload rides the session's stream
            # second encode is a cache hit and byte-identical to both
            assert cached_state.cache.hits >= 1
            assert second == first == fresh
        height, width = packed.shape
        dec_state = DecoderState()
        for payload in (first, second):
            out = decode_rect(dec_state, Cursor(payload), width, height,
                              encoding)
            assert np.array_equal(out, packed)
        fresh_out = decode_rect(DecoderState(), Cursor(fresh), width,
                                height, encoding)
        assert np.array_equal(fresh_out, packed)

    @given(st.data(), st.sampled_from([RAW, HEXTILE]))
    @settings(max_examples=30, deadline=None)
    def test_cache_distinguishes_content(self, data, encoding):
        packed = data.draw(packed_arrays())
        rgb = RGB888.unpack(packed)
        state = EncoderState(cache=EncodeCache())
        encode_pixels(state, rgb, encoding)
        flipped = packed.copy()
        flipped[0, 0] = flipped[0, 0] ^ 1  # one-pixel change
        payload = encode_pixels(state, RGB888.unpack(flipped), encoding)
        out = decode_rect(DecoderState(), Cursor(payload),
                          packed.shape[1], packed.shape[0], encoding)
        assert np.array_equal(out, flipped)


client_messages = st.one_of(
    st.builds(KeyEvent, down=st.booleans(),
              keysym=st.integers(0x20, 0xFFFF)),
    st.builds(PointerEvent, buttons=st.integers(0, 255),
              x=st.integers(0, 65535), y=st.integers(0, 65535)),
    st.builds(
        FramebufferUpdateRequest,
        incremental=st.booleans(),
        rect=st.builds(Rect, x=st.integers(0, 1000), y=st.integers(0, 1000),
                       w=st.integers(0, 2000), h=st.integers(0, 2000)),
    ),
    st.builds(SetEncodings,
              encodings=st.tuples(st.sampled_from([RAW, HEXTILE, ZRLE]))),
)


class TestStreamDecoding:
    @given(st.data(), st.integers(1, 17))
    @settings(max_examples=40, deadline=None)
    def test_zrle_stream_split_point_invariance(self, data, chunk):
        """A sequence of ZRLE updates must decode identically no matter
        where the transport fragments the byte stream: the persistent
        inflater sees each compressed byte exactly once even when the
        message parser retries on NeedMore."""
        enc_state = EncoderState()
        frames = []
        stream = bytearray()
        for _ in range(data.draw(st.integers(1, 4))):
            packed = data.draw(packed_arrays())
            h, w = packed.shape
            update = FramebufferUpdate((RectUpdate(
                Rect(0, 0, w, h), ZRLE, RGB888.unpack(packed)),))
            stream.extend(update.encode(enc_state))
            frames.append(packed)
        decoder = ServerMessageDecoder(DecoderState(), 40, 40)
        decoded = []
        for i in range(0, len(stream), chunk):
            for message in decoder.feed(bytes(stream[i:i + chunk])):
                decoded.append(message.rects[0].payload)
        assert len(decoded) == len(frames)
        for out, packed in zip(decoded, frames):
            assert np.array_equal(out, packed)


    @given(st.lists(client_messages, max_size=12), st.integers(1, 17))
    @settings(max_examples=60, deadline=None)
    def test_any_fragmentation_reassembles(self, messages, chunk):
        stream = b"".join(m.encode() for m in messages)
        decoder = ClientMessageDecoder()
        out = []
        for i in range(0, len(stream), chunk):
            out.extend(decoder.feed(stream[i:i + chunk]))
        assert out == messages
        assert decoder.buffered_bytes == 0
