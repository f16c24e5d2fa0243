"""E9 — the vectorized encode core, frame differ, and ZRLE compression.

Claim operationalised: rebuilding HEXTILE around whole-array numpy
operations makes the hot encode loop run at numpy speed instead of
Python-loop speed, with the same bytes, and change-aware damage refinement
removes the encode entirely when repainted pixels did not change.

The *before* side is the seed's scalar implementation (per-tile
``np.unique``, per-row run generator), embedded below verbatim so the
comparison stays honest on any machine.  ``test_encode_core_speedup_and_
records`` writes BENCH_ENCODE_CORE.json with before/after timings for the
solid, panel-churn and noise workloads at 480x360 and 1280x720, the
frame differ's bytes-on-wire ablation for the unchanged-redraw workload,
ZRLE against HEXTILE over a churn sequence on the phone bearer, and the
encode cache's content key: the old digest (blake2b of the packed rect)
against the new (sha256 of the RGB view), with whether the CPU lists the
SHA extensions that decide which is faster.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time

import numpy as np
import pytest

from benchmarks.conftest import panel_frame
from repro.graphics import Bitmap, RGB888, default_font
from repro.net import CELLULAR_PDC, ETHERNET_100, make_pipe
from repro.proxy.upstream import UniIntClient
from repro.server import UniIntServer
from repro.toolkit import Column, Label, UIWindow
from repro.uip import (
    HEXTILE,
    ZRLE,
    EncoderState,
    encode_rect,
)
from repro.uip.encodings import (
    DEFLATE_LEVEL,
    _HEX_BG,
    _HEX_COLOURED,
    _HEX_FG,
    _HEX_RAW,
    _HEX_SUBRECTS,
    _TILE,
    _pixel_bytes,
    content_digest,
)
from repro.uip.wire import Writer
from repro.util import Scheduler
from repro.windows import DisplayServer

SIZES = {"480x360": (480, 360), "1280x720": (1280, 720)}


# -- the seed's scalar encoders (the "before" baseline) ----------------------


def _legacy_most_common(values):
    uniques, counts = np.unique(values, return_counts=True)
    return int(uniques[np.argmax(counts)])


def _legacy_value_runs(row, background):
    if len(row) == 0:
        return
    change = np.flatnonzero(row[1:] != row[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(row)]))
    for start, end in zip(starts, ends):
        value = int(row[start])
        if value != background:
            yield (int(start), int(end), value)


def _legacy_merged_subrects(packed, background):
    active = {}
    out = []
    height = packed.shape[0]
    for y in range(height):
        current = {}
        for start, end, value in _legacy_value_runs(packed[y], background):
            current[(start, end, value)] = True
        for key in list(active):
            if key not in current:
                y0, span = active.pop(key)
                out.append((key[0], y0, key[1] - key[0], span, key[2]))
        for key in current:
            if key in active:
                active[key][1] += 1
            else:
                active[key] = [y, 1]
    for key, (y0, span) in active.items():
        out.append((key[0], y0, key[1] - key[0], span, key[2]))
    out.sort(key=lambda r: (r[1], r[0]))
    return out


def _legacy_encode_hextile(packed):
    height, width = packed.shape
    ps = RGB888.bytes_per_pixel
    writer = Writer()
    prev_bg = None
    prev_fg = None
    for ty in range(0, height, _TILE):
        for tx in range(0, width, _TILE):
            tile = packed[ty:ty + _TILE, tx:tx + _TILE]
            th, tw = tile.shape
            raw_size = 1 + th * tw * ps
            uniques = np.unique(tile)
            if len(uniques) == 1:
                value = int(uniques[0])
                if value == prev_bg:
                    writer.u8(0)
                else:
                    writer.u8(_HEX_BG).raw(_pixel_bytes(value))
                    prev_bg = value
                continue
            background = _legacy_most_common(tile)
            subrects = _legacy_merged_subrects(tile, background)
            coloured = len(uniques) > 2
            subenc = _HEX_SUBRECTS
            body = Writer()
            if background != prev_bg:
                subenc |= _HEX_BG
                body.raw(_pixel_bytes(background))
            if coloured:
                subenc |= _HEX_COLOURED
            else:
                foreground = int(uniques[uniques != background][0])
                if foreground != prev_fg:
                    subenc |= _HEX_FG
                    body.raw(_pixel_bytes(foreground))
            body.u8(len(subrects))
            for x, y, w, h, value in subrects:
                if coloured:
                    body.raw(_pixel_bytes(value))
                body.u8((x << 4) | y)
                body.u8(((w - 1) << 4) | (h - 1))
            encoded = body.getvalue()
            if 1 + len(encoded) >= raw_size or len(subrects) > 255:
                writer.u8(_HEX_RAW)
                writer.raw(np.ascontiguousarray(tile).tobytes())
                prev_bg = None
                prev_fg = None
            else:
                writer.u8(subenc)
                writer.raw(encoded)
                prev_bg = background
                if not coloured:
                    prev_fg = foreground
    return writer.getvalue()


# -- workloads ---------------------------------------------------------------


def _workload(name: str, width: int, height: int) -> np.ndarray:
    if name == "solid":
        bmp = Bitmap(width, height, fill=(40, 90, 160))
    elif name == "panel-churn":
        bmp = panel_frame(width, height)
    elif name == "noise":
        rng = np.random.default_rng(11)
        bmp = Bitmap.from_array(rng.integers(
            0, 256, size=(height, width, 3), dtype=np.uint8))
    else:  # pragma: no cover - guarded by callers
        raise ValueError(name)
    return RGB888.pack_array(bmp.pixels)


def _best_of(fn, repeats: int = 3) -> float:
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


# -- per-codec microbenchmarks (pytest-benchmark rows) -----------------------


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("workload", ["solid", "panel-churn", "noise"])
@pytest.mark.parametrize("codec", ["hextile", "zrle"])
def test_encode_core(benchmark, size, workload, codec):
    width, height = SIZES[size]
    packed = _workload(workload, width, height)
    encoding = {"hextile": HEXTILE, "zrle": ZRLE}[codec]

    payload = benchmark(lambda: encode_rect(
        EncoderState(), packed, encoding))
    benchmark.extra_info["payload_bytes"] = len(payload)
    benchmark.extra_info["raw_bytes"] = packed.nbytes


# -- compression workload ----------------------------------------------------


def _churn_frames(width: int, height: int, rounds: int = 8) -> list:
    """A churning control panel: the panel frame with per-round captions.

    The persistent-stream codecs see a *sequence* here, as on a real
    session, so cross-frame zlib history counts toward their wire bytes.
    """
    frames = []
    font = default_font(1)
    row_h = max(20, height // 8)
    for n in range(rounds):
        bmp = panel_frame(width, height)
        y = 6
        while y + row_h < height - 6:
            font.draw(bmp, width // 2 + 8, y + (row_h - 11) // 2,
                      f"round {n} v{(n * 37 + y) % 997}", (10, 10, 10))
            y += row_h
        frames.append(RGB888.pack_array(bmp.pixels))
    return frames


def _sequence_cost(frames, encoding) -> tuple[int, float]:
    """(total wire bytes, best-of-3 encode seconds) over the sequence."""
    total = 0
    best = None
    for _ in range(3):
        state = EncoderState()
        run_total = 0
        start = time.perf_counter()
        for packed in frames:
            run_total += len(encode_rect(state, packed, encoding))
        elapsed = time.perf_counter() - start
        total = run_total
        best = elapsed if best is None else min(best, elapsed)
    return total, best


# -- the content key -----------------------------------------------------------


def _sha_ni() -> bool:
    """Whether the CPU lists the SHA extensions (Linux only)."""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            return any(line.startswith("flags") and " sha_ni" in line
                       for line in cpuinfo)
    except OSError:
        return False


def _content_key_row(repeats: int = 20) -> dict:
    """The encode cache's key over one 480x320 RGB rect of a panel frame:
    the old digest (blake2b-128 of the packed rect, after its pack) and
    the new one (``content_digest``, sha256 of the framebuffer view's own
    RGB bytes, which a hit never packs).  The full-width rect is one
    contiguous run of the frame, so sha256 reads it in place; ``strided``
    keys a 448x320 view inset 16 px, as most damage rects are, which
    ``content_digest`` first copies at 3 B/px."""
    frame = panel_frame(480, 360).pixels
    rgb, strided = frame[:320], frame[16:336, 16:464]
    packed = RGB888.pack_array(rgb)

    def old_digest():
        hashlib.blake2b(packed.data, digest_size=16).digest()

    def old_key(view):
        hashlib.blake2b(RGB888.pack_array(view).data,
                        digest_size=16).digest()

    def best_us(fn, *args):
        return min(_best_of(lambda: fn(*args))
                   for _ in range(repeats)) * 1e6

    row = {"rect": "480x320", "sha_ni": _sha_ni(),
           "strided_rect": "448x320 view at (16, 16) of a 480x360 frame"}
    for side, digest, key, data in (
            ("old", old_digest, old_key, packed),
            ("new", lambda: content_digest(rgb), content_digest, rgb)):
        digest_s = min(_best_of(digest) for _ in range(repeats))
        row[side] = {
            "bytes_per_pixel": data.nbytes // (480 * 320),
            "digest_mb_per_s": data.nbytes / digest_s / 1e6,
            "key_us": best_us(key, rgb),
            "strided_key_us": best_us(key, strided),
        }
    row["old"]["digest"] = "blake2b-128 of the packed rect"
    row["new"]["digest"] = "sha256 of the RGB view (content_digest)"
    for speedup, us in (("key_speedup", "key_us"),
                        ("strided_key_speedup", "strided_key_us")):
        row[speedup] = row["old"][us] / row["new"][us]
    return row


# -- the recorded before/after experiment ------------------------------------


def _unchanged_redraw_stack(tile_diff: bool):
    scheduler = Scheduler()
    window = UIWindow(480, 360)
    column = Column()
    labels = [column.add(Label(f"panel row {i}")) for i in range(12)]
    window.set_root(column)
    display = DisplayServer(window)
    server = UniIntServer(display, scheduler, tile_diff=tile_diff)
    pipe = make_pipe(scheduler, ETHERNET_100, name="viewer")
    server.accept(pipe.a)
    client = UniIntClient(pipe.b)
    scheduler.run_until_idle()
    return scheduler, display, labels, server, client


def _redraw_round(scheduler, labels) -> None:
    """Repaint every label with identical pixels (a blinking-clock tick)."""
    for label in labels:
        label.invalidate()
    scheduler.run_until_idle()


def test_encode_core_speedup_and_records(smoke, record_dir):
    """The vectorized HEXTILE encoder must beat the seed's scalar one >= 3x
    on panel churn with byte-identical payloads; the frame differ must cut
    unchanged-redraw wire bytes.  Results land in BENCH_ENCODE_CORE.json
    for the trajectory record."""
    results: dict = {"encoders": {}, "frame_differ": {}}
    # smoke (CI harness check): smallest size only, and no wall-clock
    # assertions below — timing floors on a noisy shared runner flake
    sizes = dict(list(SIZES.items())[:1]) if smoke else SIZES
    for size_name, (width, height) in sizes.items():
        for workload in ("solid", "panel-churn", "noise"):
            packed = _workload(workload, width, height)
            before_payload = _legacy_encode_hextile(packed)
            after_payload = encode_rect(EncoderState(), packed, HEXTILE)
            before_s = _best_of(lambda: _legacy_encode_hextile(packed))
            after_s = _best_of(lambda: encode_rect(
                EncoderState(), packed, HEXTILE))
            key = f"{workload}/{size_name}/hextile"
            results["encoders"][key] = {
                "before_s": before_s,
                "after_s": after_s,
                "speedup": before_s / after_s,
                "before_bytes": len(before_payload),
                "after_bytes": len(after_payload),
            }
            assert after_payload == before_payload, key
    if not smoke:
        for size_name in SIZES:
            row = results["encoders"][f"panel-churn/{size_name}/hextile"]
            assert row["speedup"] >= 3.0, (
                f"hextile speedup {row['speedup']:.2f}x < 3x "
                f"at {size_name}: {row}")

    # the unchanged-redraw workload: identical repaints through the server
    rounds = 5
    for mode, tile_diff in (("tile-diff", True), ("no-diff", False)):
        scheduler, display, labels, server, client = (
            _unchanged_redraw_stack(tile_diff))
        _redraw_round(scheduler, labels)  # warm-up
        received_before = client.endpoint.stats.bytes_received
        start = time.perf_counter()
        for _ in range(rounds):
            _redraw_round(scheduler, labels)
        elapsed = (time.perf_counter() - start) / rounds
        assert client.framebuffer == display.framebuffer
        results["frame_differ"][mode] = {
            "round_s": elapsed,
            "bytes_per_round": (client.endpoint.stats.bytes_received
                                - received_before) / rounds,
            "tiles_dropped": server.diff_tiles_dropped,
        }
    with_diff = results["frame_differ"]["tile-diff"]
    without = results["frame_differ"]["no-diff"]
    assert with_diff["bytes_per_round"] < without["bytes_per_round"]
    assert with_diff["tiles_dropped"] > 0

    # the compression experiment: an 8-frame churn sequence over the
    # phone bearer, hextile vs zrle through persistent session state
    frames = _churn_frames(480, 360, rounds=3 if smoke else 8)
    hex_bytes, hex_s = _sequence_cost(frames, HEXTILE)
    zrle_bytes, zrle_s = _sequence_cost(frames, ZRLE)
    results["compression"] = {
        "panel-churn/480x360/cellular-pdc": {
            "frames": len(frames),
            "zlib_level": DEFLATE_LEVEL,
            "hextile_bytes": hex_bytes,
            "zrle_bytes": zrle_bytes,
            "wire_reduction": hex_bytes / zrle_bytes,
            "hextile_encode_s": hex_s,
            "zrle_encode_s": zrle_s,
            "encode_cost_ratio": zrle_s / hex_s,
            "hextile_bearer_s": CELLULAR_PDC.transmission_time(hex_bytes),
            "zrle_bearer_s": CELLULAR_PDC.transmission_time(zrle_bytes),
        },
    }
    row = results["compression"]["panel-churn/480x360/cellular-pdc"]
    assert row["wire_reduction"] >= 5.0, row  # bytes are deterministic
    if not smoke:
        assert row["encode_cost_ratio"] <= 1.2, row

    row = results["content_key"] = _content_key_row()
    assert (row["old"]["bytes_per_pixel"],
            row["new"]["bytes_per_pixel"]) == (4, 3), row
    assert min(row[side]["digest_mb_per_s"]
               for side in ("old", "new")) > 0, row

    # written in smoke mode too (tiny workloads, still every key, under
    # benchmarks/.smoke/): the bench-smoke CI job asserts the compression
    # and content-key rows are present
    out_path = record_dir / "BENCH_ENCODE_CORE.json"
    out_path.write_text(json.dumps({
        "experiment": "vectorized encode core vs seed scalar encoders; "
                      "tile-grid frame differ ablation; zrle vs hextile "
                      "wire bytes on the phone bearer; the encode cache's "
                      "content key, old digest vs new",
        "pixel_format": "rgb888",
        "workloads": ["solid", "panel-churn", "noise",
                      "unchanged-redraw (480x360, 12-label panel)",
                      "churn sequence (480x360, phone bearer)",
                      "content key (480x320 panel rect)"],
        "timing": "best of 3",
        "smoke": bool(smoke),
        **results,
    }, indent=2) + "\n")
