"""Unit tests for the framebuffer-update encodings."""

import numpy as np
import pytest

from repro.graphics import RGB332, RGB565, RGB888, Bitmap, Rect, draw
from repro.uip import (
    COMPRESSION_TIERS,
    COPYRECT,
    HEXTILE,
    RAW,
    RRE,
    ZLIB,
    ZRLE,
    DecoderState,
    EncoderState,
    decode_rect,
    encode_rect,
)
from repro.uip.encodings import (
    best_encoding,
    encode_copyrect,
    encode_zrle_tiles,
)
from repro.uip.wire import Cursor
from repro.util.errors import ProtocolError

from repro.graphics import PixelFormat

#: A big-endian wire format (e.g. a network-order embedded panel).
BE565 = PixelFormat(16, 16, True, 31, 63, 31, 11, 5, 0)

ALL_FORMATS = [RGB888, RGB565, RGB332, BE565]
PIXEL_CODECS = [RAW, RRE, HEXTILE, ZLIB, ZRLE]


def panel_bitmap(width=96, height=64):
    """A control-panel-like image: flat fills, bevels and text."""
    bmp = Bitmap(width, height, fill=(192, 192, 192))
    draw.bevel_box(bmp, Rect(8, 8, width - 16, 20), face=(160, 160, 200),
                   light=(255, 255, 255), shadow=(80, 80, 80))
    draw.bevel_box(bmp, Rect(8, 34, (width - 16) // 2, 20),
                   face=(200, 120, 120), light=(255, 255, 255),
                   shadow=(80, 80, 80))
    from repro.graphics import default_font
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


def roundtrip(bitmap, fmt, encoding):
    packed = fmt.pack_array(bitmap.pixels)
    enc_state = EncoderState(fmt)
    dec_state = DecoderState(fmt)
    payload = encode_rect(enc_state, packed, encoding)
    out = decode_rect(dec_state, Cursor(payload), bitmap.width,
                      bitmap.height, encoding)
    return packed, payload, out


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("encoding", PIXEL_CODECS)
    def test_panel_roundtrip(self, fmt, encoding):
        packed, _, out = roundtrip(panel_bitmap(), fmt, encoding)
        assert np.array_equal(out, packed)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    @pytest.mark.parametrize("encoding", PIXEL_CODECS)
    def test_noise_roundtrip(self, fmt, encoding):
        packed, _, out = roundtrip(noise_bitmap(), fmt, encoding)
        assert np.array_equal(out, packed)

    @pytest.mark.parametrize("encoding", PIXEL_CODECS)
    def test_single_pixel(self, encoding):
        bmp = Bitmap(1, 1, fill=(13, 57, 201))
        packed, _, out = roundtrip(bmp, RGB888, encoding)
        assert np.array_equal(out, packed)

    @pytest.mark.parametrize("encoding", PIXEL_CODECS)
    def test_non_tile_aligned_sizes(self, encoding):
        bmp = panel_bitmap(37, 23)
        packed, _, out = roundtrip(bmp, RGB565, encoding)
        assert np.array_equal(out, packed)

    @pytest.mark.parametrize("size", [(15, 15), (16, 16), (17, 17),
                                      (33, 16), (16, 33), (48, 31)])
    @pytest.mark.parametrize("encoding", [RRE, HEXTILE])
    def test_edge_tile_sizes(self, size, encoding):
        """Widths/heights straddling the 16-pixel tile grid."""
        width, height = size
        bmp = checkerboard(width, height, 5, (32, 32, 32), (220, 80, 10))
        bmp.fill_rect(Rect(width // 3, height // 3, width // 2, 3),
                      (0, 255, 0))
        packed, _, out = roundtrip(bmp, RGB888, encoding)
        assert np.array_equal(out, packed)

    @pytest.mark.parametrize("encoding", [RRE, HEXTILE])
    def test_big_endian_wire_format(self, encoding):
        packed, payload, out = roundtrip(panel_bitmap(50, 40), BE565,
                                         encoding)
        assert out.dtype == packed.dtype
        assert np.array_equal(out, packed)
        # also identical to what the same image costs in little endian
        _, le_payload, _ = roundtrip(panel_bitmap(50, 40), RGB565, encoding)
        assert len(payload) == len(le_payload)

    def test_flat_bitmap_rre_is_tiny(self):
        bmp = Bitmap(128, 128, fill=(5, 5, 5))
        _, payload, _ = roundtrip(bmp, RGB888, RRE)
        assert len(payload) == 4 + 4  # count + background pixel

    def test_checkerboard_roundtrip_hextile(self):
        bmp = checkerboard(64, 64, 1, (0, 0, 0), (255, 255, 255))
        packed, _, out = roundtrip(bmp, RGB888, HEXTILE)
        assert np.array_equal(out, packed)


class TestCompression:
    def test_panel_rre_beats_raw(self):
        bmp = panel_bitmap(256, 192)
        packed = RGB888.pack_array(bmp.pixels)
        state = EncoderState(RGB888)
        raw = encode_rect(state, packed, RAW)
        rre = encode_rect(state, packed, RRE)
        hextile = encode_rect(state, packed, HEXTILE)
        assert len(rre) < len(raw) / 5
        assert len(hextile) < len(raw) / 5

    def test_noise_hextile_falls_back_to_raw_size(self):
        bmp = noise_bitmap(64, 64)
        packed = RGB888.pack_array(bmp.pixels)
        state = EncoderState(RGB888)
        raw = encode_rect(state, packed, RAW)
        hextile = encode_rect(state, packed, HEXTILE)
        # per-tile 1-byte header overhead only
        assert len(hextile) <= len(raw) + (64 // 16) ** 2

    def test_zlib_persistent_stream_improves(self):
        # Incompressible noise: the first frame stays near raw size, but the
        # identical second frame hits the persistent dictionary window.
        bmp = noise_bitmap(48, 48)
        packed = RGB888.pack_array(bmp.pixels)
        enc_state = EncoderState(RGB888)
        first = encode_rect(enc_state, packed, ZLIB)
        second = encode_rect(enc_state, packed, ZLIB)
        assert len(second) < len(first) / 10
        # and both decode correctly through one persistent inflater
        dec_state = DecoderState(RGB888)
        out1 = decode_rect(dec_state, Cursor(first), 48, 48, ZLIB)
        out2 = decode_rect(dec_state, Cursor(second), 48, 48, ZLIB)
        assert np.array_equal(out1, packed)
        assert np.array_equal(out2, packed)

    def test_best_encoding_prefers_rre_on_flat(self):
        bmp = Bitmap(64, 64, fill=(1, 2, 3))
        state = EncoderState(RGB888)
        assert best_encoding(state, RGB888.pack_array(bmp.pixels)) == RRE

    def test_best_encoding_prefers_raw_on_noise(self):
        state = EncoderState(RGB888)
        packed = RGB888.pack_array(noise_bitmap(48, 48).pixels)
        assert best_encoding(state, packed) == RAW

    def test_best_encoding_trials_stateful_candidates(self):
        """ZLIB-family candidates are sized on stream clones, not refused."""
        state = EncoderState(RGB888)
        packed = RGB888.pack_array(Bitmap(4, 4).pixels)
        winner = best_encoding(state, packed, candidates=(RAW, ZLIB, ZRLE))
        assert winner in (RAW, ZLIB, ZRLE)

    def test_best_encoding_trial_then_encode_byte_identical(self):
        """The satellite-1 regression: a losing (or winning) trial must
        never advance the live zlib stream — encoding after a trial gives
        the exact bytes an untrialled stream would."""
        frames = [RGB888.pack_array(panel_bitmap(64, 48 + 16 * i).pixels)
                  for i in range(3)]
        trialled = EncoderState(RGB888, use_cache=False)
        control = EncoderState(RGB888, use_cache=False)
        for packed in frames:
            best_encoding(trialled, packed, candidates=(HEXTILE, ZLIB, ZRLE))
            assert (encode_rect(trialled, packed, ZRLE)
                    == encode_rect(control, packed, ZRLE))

    def test_best_encoding_cost_model_follows_bearer(self):
        """Same pixels, different bearers, different winners: the phone
        leg minimises wire bytes, the fast link minimises encode cost."""
        from repro.net.link import CELLULAR_PDC, LOOPBACK
        packed = RGB888.pack_array(panel_bitmap(128, 128).pixels)
        state = EncoderState(RGB888, use_cache=False, tier=2)
        phone = best_encoding(state, packed,
                              candidates=(ZRLE, ZLIB, HEXTILE, RAW),
                              profile=CELLULAR_PDC)
        assert phone == ZRLE  # smallest wire payload wins at 9600 bps
        # on loopback the wire is free; a pre-learned CPU price dominates
        costs = {ZRLE: 10.0, ZLIB: 10.0}
        fast = best_encoding(state, packed,
                             candidates=(HEXTILE, ZRLE, ZLIB, RAW),
                             profile=LOOPBACK, encode_costs=costs)
        assert fast in (HEXTILE, RAW)  # priced-out codecs lose the fast leg

    def test_best_encoding_measures_encode_costs(self):
        state = EncoderState(RGB888, use_cache=False)
        packed = RGB888.pack_array(panel_bitmap(64, 64).pixels)
        costs = {}
        best_encoding(state, packed, candidates=(RAW, HEXTILE),
                      encode_costs=costs)
        assert set(costs) == {RAW, HEXTILE}
        assert all(v >= 0.0 for v in costs.values())


class TestCopyRect:
    def test_roundtrip(self):
        payload = encode_copyrect(12, 34)
        assert decode_rect(DecoderState(RGB888), Cursor(payload),
                           10, 10, COPYRECT) == (12, 34)


class TestEncodeCache:
    def test_repeat_encode_hits(self):
        from repro.uip import EncodeCache
        packed = RGB888.pack_array(panel_bitmap().pixels)
        state = EncoderState(RGB888)
        first = encode_rect(state, packed, HEXTILE)
        second = encode_rect(state, packed.copy(), HEXTILE)
        assert first == second
        assert state.cache.hits == 1
        assert state.cache.misses == 1
        assert isinstance(state.cache, EncodeCache)

    def test_zlib_never_cached(self):
        packed = RGB888.pack_array(panel_bitmap().pixels)
        state = EncoderState(RGB888)
        encode_rect(state, packed, ZLIB)
        encode_rect(state, packed, ZLIB)
        assert len(state.cache) == 0
        assert state.cache.hits == 0

    def test_disable_cache(self):
        state = EncoderState(RGB888, use_cache=False)
        packed = RGB888.pack_array(panel_bitmap().pixels)
        assert encode_rect(state, packed, RRE) == encode_rect(
            state, packed, RRE)
        assert state.cache is None

    def test_entry_count_eviction(self):
        from repro.uip import EncodeCache
        state = EncoderState(RGB888, cache=EncodeCache(max_entries=2))
        frames = [RGB888.pack_array(Bitmap(8, 8, fill=(i, 0, 0)).pixels)
                  for i in range(3)]
        for packed in frames:
            encode_rect(state, packed, RRE)
        assert len(state.cache) == 2
        # oldest entry evicted: re-encoding frame 0 misses again
        misses = state.cache.misses
        encode_rect(state, frames[0], RRE)
        assert state.cache.misses == misses + 1

    def test_byte_budget_eviction(self):
        from repro.uip import EncodeCache
        cache = EncodeCache(max_entries=100, max_bytes=64)
        cache.put(("a",), b"x" * 40)
        cache.put(("b",), b"y" * 40)
        assert len(cache) == 1  # first entry evicted to fit the budget
        assert cache.stored_bytes == 40

    def test_oversized_payload_not_stored(self):
        from repro.uip import EncodeCache
        cache = EncodeCache(max_entries=4, max_bytes=16)
        cache.put(("big",), b"z" * 100)
        assert len(cache) == 0

    def test_shared_cache_across_states(self):
        from repro.uip import EncodeCache
        shared = EncodeCache()
        a = EncoderState(RGB888, cache=shared)
        b = EncoderState(RGB888, cache=shared)
        packed = RGB888.pack_array(panel_bitmap().pixels)
        encode_rect(a, packed, HEXTILE)
        encode_rect(b, packed, HEXTILE)
        assert shared.hits == 1 and shared.misses == 1

    def test_cache_respects_pixel_format(self):
        state = EncoderState(RGB565)
        packed = RGB565.pack_array(panel_bitmap().pixels)
        k565 = state.cache_key(packed, RRE)
        state.renegotiate(RGB332)
        assert state.cache_key(packed, RRE) != k565

    def test_trial_encode_not_stored(self):
        state = EncoderState(RGB888)
        packed = RGB888.pack_array(panel_bitmap().pixels)
        encode_rect(state, packed, RRE, trial=True)
        assert len(state.cache) == 0
        assert state.cache.misses == 0  # trials are stats-neutral

    def test_trial_zlib_uses_throwaway_clone(self):
        packed = RGB888.pack_array(panel_bitmap().pixels)
        trialled = EncoderState(RGB888)
        control = EncoderState(RGB888)
        trial = encode_rect(trialled, packed, ZLIB, trial=True)
        real = encode_rect(trialled, packed, ZLIB)
        assert trial == real  # the clone saw the same stream position
        assert real == encode_rect(control, packed, ZLIB)

    def test_trial_zrle_does_not_warm_cache(self):
        packed = RGB888.pack_array(panel_bitmap().pixels)
        state = EncoderState(RGB888)
        encode_rect(state, packed, ZRLE, trial=True)
        assert len(state.cache) == 0
        assert state.cache.misses == 0

    def test_best_encoding_caches_only_winner(self):
        state = EncoderState(RGB888)
        packed = RGB888.pack_array(panel_bitmap().pixels)
        winner = best_encoding(state, packed)
        assert len(state.cache) == 1  # losing candidates stayed out
        assert state.cache.misses == 0
        hits = state.cache.hits
        encode_rect(state, packed, winner)  # the real encode hits
        assert state.cache.hits == hits + 1

    def test_renegotiate_preserves_cache(self):
        packed888 = RGB888.pack_array(panel_bitmap().pixels)
        packed332 = RGB332.pack_array(panel_bitmap().pixels)
        state = EncoderState(RGB888)
        first = encode_rect(state, packed888, HEXTILE)
        state.renegotiate(RGB332)
        encode_rect(state, packed332, HEXTILE)
        state.renegotiate(RGB888)
        hits = state.cache.hits
        assert encode_rect(state, packed888, HEXTILE) == first
        assert state.cache.hits == hits + 1  # payload survived the switch

    def test_renegotiate_resets_zlib_stream(self):
        packed = RGB888.pack_array(panel_bitmap().pixels)
        state = EncoderState(RGB888)
        encode_rect(state, packed, ZLIB)
        state.renegotiate(RGB888)
        # a fresh decoder can parse the first post-renegotiation rect,
        # which only works if the deflate stream restarted
        payload = encode_rect(state, packed, ZLIB)
        out = decode_rect(DecoderState(RGB888), Cursor(payload),
                          packed.shape[1], packed.shape[0], ZLIB)
        assert np.array_equal(out, packed)

    @pytest.mark.parametrize("encoding", PIXEL_CODECS)
    def test_non_contiguous_view_encodes_like_a_copy(self, encoding):
        base = RGB888.pack_array(panel_bitmap(64, 64).pixels)
        view = base[::, 1:33]  # non-contiguous slice
        assert not view.flags.c_contiguous
        assert (encode_rect(EncoderState(RGB888), view, encoding)
                == encode_rect(EncoderState(RGB888), view.copy(), encoding))


class TestCompressionTiers:
    def test_invalid_tier_rejected(self):
        with pytest.raises(ProtocolError):
            EncoderState(RGB888, tier=7)

    def test_tier_sets_zlib_level_and_rle(self):
        for tier, (level, rle) in COMPRESSION_TIERS.items():
            state = EncoderState(RGB888, tier=tier)
            assert (state.level, state.rle) == (level, rle)

    def test_set_tier_before_stream_start_changes_level(self):
        packed = RGB888.pack_array(panel_bitmap().pixels)
        moved = EncoderState(RGB888, use_cache=False, tier=0)
        moved.set_tier(2)
        born = EncoderState(RGB888, use_cache=False, tier=2)
        assert encode_rect(moved, packed, ZRLE) == encode_rect(
            born, packed, ZRLE)

    def test_set_tier_mid_stream_keeps_level(self):
        """zlib cannot change level mid-stream; the deflater must survive
        an escalation untouched so the peer's inflater stays in sync."""
        packed = RGB888.pack_array(panel_bitmap().pixels)
        escalated = EncoderState(RGB888, use_cache=False, tier=1)
        control = EncoderState(RGB888, use_cache=False, tier=1)
        encode_rect(escalated, packed, ZRLE)
        encode_rect(control, packed, ZRLE)
        escalated.set_tier(2)
        second = encode_rect(escalated, packed, ZRLE)
        assert second == encode_rect(control, packed, ZRLE)
        # the escalated stream still decodes end to end
        dec = DecoderState(RGB888)
        h, w = packed.shape[0], packed.shape[1]
        fresh = EncoderState(RGB888, use_cache=False, tier=1)
        first = encode_rect(fresh, packed, ZRLE)
        fresh.set_tier(2)
        later = encode_rect(fresh, packed, ZRLE)
        assert np.array_equal(
            decode_rect(dec, Cursor(first), w, h, ZRLE), packed)
        assert np.array_equal(
            decode_rect(dec, Cursor(later), w, h, ZRLE), packed)

    def test_renegotiate_unpins_level(self):
        state = EncoderState(RGB888, use_cache=False, tier=1)
        packed = RGB888.pack_array(panel_bitmap().pixels)
        encode_rect(state, packed, ZRLE)
        state.set_tier(2)
        state.renegotiate(RGB888)  # stream restarts: new level may apply
        assert state.level == COMPRESSION_TIERS[2][0]

    def test_cache_key_includes_tier(self):
        from repro.uip.encodings import EncodeCache
        cache = EncodeCache()
        packed = RGB888.pack_array(panel_bitmap().pixels)
        low = EncoderState(RGB888, cache=cache, tier=0)
        high = EncoderState(RGB888, cache=cache, tier=2)
        encode_rect(low, packed, ZRLE)
        encode_rect(high, packed, ZRLE)
        # tier 0 (no RLE) and tier 2 (RLE) built different tile streams;
        # a shared key would have served tier 0's stream to tier 2
        assert len(cache) == 2

    def test_zrle_caches_tile_stream_not_payload(self):
        """Unlike ZLIB (never cached), ZRLE caches the position-independent
        tile stream: a second session on the same cache reuses it even
        though its deflate output differs."""
        from repro.uip.encodings import EncodeCache
        cache = EncodeCache()
        packed = RGB888.pack_array(panel_bitmap().pixels)
        first = EncoderState(RGB888, cache=cache)
        encode_rect(first, packed, ZRLE)
        assert len(cache) == 1
        hits = cache.hits
        second = EncoderState(RGB888, cache=cache)
        payload = encode_rect(second, packed, ZRLE)
        assert cache.hits == hits + 1
        out = decode_rect(DecoderState(RGB888), Cursor(payload),
                          packed.shape[1], packed.shape[0], ZRLE)
        assert np.array_equal(out, packed)

    def test_renegotiate_preserves_zrle_tile_stream(self):
        packed = RGB888.pack_array(panel_bitmap().pixels)
        state = EncoderState(RGB888)
        encode_rect(state, packed, ZRLE)
        state.renegotiate(RGB888)
        hits = state.cache.hits
        payload = encode_rect(state, packed, ZRLE)
        assert state.cache.hits == hits + 1  # tile stream survived
        out = decode_rect(DecoderState(RGB888), Cursor(payload),
                          packed.shape[1], packed.shape[0], ZRLE)
        assert np.array_equal(out, packed)

    def test_zrle_panel_much_smaller_than_hextile(self):
        packed = RGB888.pack_array(panel_bitmap(192, 192).pixels)
        state = EncoderState(RGB888, use_cache=False, tier=2)
        zrle = encode_rect(state, packed, ZRLE)
        hextile = encode_rect(EncoderState(RGB888, use_cache=False),
                              packed, HEXTILE)
        assert len(zrle) * 3 < len(hextile)

    def test_zrle_run_longer_than_255(self):
        bitmap = Bitmap(64, 10)
        bitmap.fill((10, 20, 30))
        packed = RGB888.pack_array(bitmap.pixels)
        packed[0, 0] = 0xFFFFFF  # break the solid-tile shortcut
        stream = encode_zrle_tiles(packed, RGB888, rle=True)
        state = EncoderState(RGB888, use_cache=False)
        payload = encode_rect(state, packed, ZRLE)
        out = decode_rect(DecoderState(RGB888), Cursor(payload), 64, 10, ZRLE)
        assert np.array_equal(out, packed)
        assert len(stream) < 64 * 10 * 3  # the long run actually compressed


class TestErrors:
    def test_unknown_encoding_encode(self):
        state = EncoderState(RGB888)
        with pytest.raises(ProtocolError):
            encode_rect(state, RGB888.pack_array(Bitmap(2, 2).pixels), 99)

    def test_unknown_encoding_decode(self):
        with pytest.raises(ProtocolError):
            decode_rect(DecoderState(RGB888), Cursor(b""), 2, 2, 99)

    def test_rre_subrect_out_of_bounds(self):
        from repro.uip.wire import Writer
        bad = (Writer().u32(1).raw(b"\x00" * 4)  # one subrect, bg
               .raw(b"\x01" * 4).u16(5).u16(5).u16(10).u16(10).getvalue())
        with pytest.raises(ProtocolError):
            decode_rect(DecoderState(RGB888), Cursor(bad), 8, 8, RRE)

    def test_non_2d_array_rejected(self):
        state = EncoderState(RGB888)
        with pytest.raises(ProtocolError):
            encode_rect(state, np.zeros((2, 2, 3)), RAW)
