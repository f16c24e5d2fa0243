"""E1 — thin-client encodings on control-panel frames.

Claim operationalised: the universal interaction protocol's encodings make
bitmap output events cheap enough for weak device links.  Expected shape:
HEXTILE and ZRLE beat RAW by >= 5x on panel frames; on noise HEXTILE
gracefully falls back to ~RAW size instead of exploding.

Rows: encoding x screen size; ``extra_info`` records payload bytes and the
compression ratio vs RAW.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import panel_frame
from repro.graphics import RGB888, Bitmap
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
from repro.uip.wire import Cursor

SCREENS = {
    "phone-128": (128, 128),
    "pda-320x240": (320, 240),
    "panel-480x360": (480, 360),
    "tv-720x480": (720, 480),
}

ENCODINGS = {"raw": RAW, "hextile": HEXTILE, "zrle": ZRLE}


@pytest.mark.parametrize("screen", SCREENS)
@pytest.mark.parametrize("codec", ENCODINGS)
def test_encode_panel(benchmark, screen, codec):
    width, height = SCREENS[screen]
    packed = RGB888.pack_array(panel_frame(width, height).pixels)
    encoding = ENCODINGS[codec]
    raw_size = packed.nbytes

    def run():
        # fresh state per iteration so ZRLE's stream history is identical
        return encode_rect(EncoderState(), packed, encoding)

    payload = benchmark(run)
    benchmark.extra_info["payload_bytes"] = len(payload)
    benchmark.extra_info["raw_bytes"] = raw_size
    benchmark.extra_info["ratio_vs_raw"] = round(raw_size / len(payload), 2)


@pytest.mark.parametrize("codec", ["hextile", "zrle"])
def test_decode_panel(benchmark, codec):
    width, height = SCREENS["pda-320x240"]
    packed = RGB888.pack_array(panel_frame(width, height).pixels)
    encoding = ENCODINGS[codec]
    payload = encode_rect(EncoderState(), packed, encoding)

    def run():
        out = decode_rect(DecoderState(), Cursor(payload), width,
                          height, encoding)
        return out

    out = benchmark(run)
    assert np.array_equal(out, packed)
    benchmark.extra_info["payload_bytes"] = len(payload)


def test_encode_noise_worst_case(benchmark):
    """HEXTILE on incompressible noise must not blow up beyond RAW+tiles."""
    rng = np.random.default_rng(7)
    noise = Bitmap.from_array(
        rng.integers(0, 256, size=(240, 320, 3), dtype=np.uint8))
    packed = RGB888.pack_array(noise.pixels)

    payload = benchmark(
        lambda: encode_rect(EncoderState(), packed, HEXTILE))
    n_tiles = ((240 + 15) // 16) * ((320 + 15) // 16)
    assert len(payload) <= packed.nbytes + n_tiles
    benchmark.extra_info["overhead_bytes"] = len(payload) - packed.nbytes


@pytest.mark.parametrize("codec", ["raw", "hextile"])
def test_encode_cache_warm_hit(benchmark, codec):
    """Re-encoding unchanged content costs one hash of its RGB bytes, not
    a pack and a full encode."""
    rgb = panel_frame(320, 240).pixels
    encoding = ENCODINGS[codec]
    state = EncoderState(cache=EncodeCache())
    cold = encode_pixels(state, rgb, encoding)

    payload = benchmark(lambda: encode_pixels(state, rgb, encoding))
    assert payload == cold
    assert state.cache.hits >= 1
    benchmark.extra_info["payload_bytes"] = len(payload)
    benchmark.extra_info["cache_hits"] = state.cache.hits


@pytest.mark.parametrize("sessions", [2, 4, 8])
@pytest.mark.parametrize("mode", ["shared-cache", "per-session"])
def test_multi_session_encode_fanout(benchmark, sessions, mode):
    """N same-config sessions encoding one damaged frame.

    With a shared cache the frame is packed and hextile-encoded once and
    served to the other N-1 sessions from content hash lookups;
    per-session states repeat the pack and the full encode N times.
    """
    rgb = panel_frame(320, 240).pixels

    def run():
        cache = EncodeCache() if mode == "shared-cache" else None
        states = [EncoderState(cache=cache) for _ in range(sessions)]
        return [encode_pixels(state, rgb, HEXTILE) for state in states]

    payloads = benchmark(run)
    assert all(p == payloads[0] for p in payloads)
    benchmark.extra_info["sessions"] = sessions
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["payload_bytes"] = len(payloads[0])


def test_zrle_second_frame_dictionary_gain(benchmark):
    """Persistent ZRLE stream: the repeated frame costs almost nothing."""
    packed = RGB888.pack_array(panel_frame(320, 240).pixels)

    def run():
        state = EncoderState()
        first = encode_rect(state, packed, ZRLE)
        second = encode_rect(state, packed, ZRLE)
        return first, second

    first, second = benchmark(run)
    benchmark.extra_info["first_bytes"] = len(first)
    benchmark.extra_info["second_bytes"] = len(second)
    assert len(second) < len(first)
