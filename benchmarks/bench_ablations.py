"""Ablations — quantifying the design choices of the README's pipeline.

A1  incremental damage-tracked updates   vs full-frame refreshes
A2  fixed HEXTILE                        vs fixed ZRLE
A3  Floyd-Steinberg vs ordered vs hard threshold on 1-bit screens
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import panel_frame
from repro.graphics import ops
from repro.net import ETHERNET_100, make_pipe
from repro.proxy import UniIntProxy
from repro.server import UniIntServer
from repro.toolkit import Column, Label, ToggleButton, UIWindow
from repro.uip import HEXTILE, ZRLE
from repro.util import Scheduler
from repro.windows import DisplayServer


def _stack(encodings=None, tile_diff=True):
    scheduler = Scheduler()
    window = UIWindow(480, 360)
    col = Column()
    label = col.add(Label("status: ----"))
    label.widget_id = "status"
    for i in range(6):
        col.add(ToggleButton(f"Load {i}"))
    window.set_root(col)
    server = UniIntServer(DisplayServer(window), scheduler,
                          tile_diff=tile_diff)
    proxy = UniIntProxy(scheduler)
    pipe = make_pipe(scheduler, ETHERNET_100)
    server.accept(pipe.a)
    kwargs = {} if encodings is None else {"encodings": encodings}
    session = proxy.connect(pipe.b, **kwargs)
    scheduler.run_until_idle()
    return scheduler, window, session


def _label_workload(scheduler, window, session, steps=20):
    """Twenty small UI changes; returns upstream bytes consumed."""
    before = session.upstream.endpoint.stats.bytes_received
    label = window.root.find("status")
    for i in range(steps):
        label.text = f"status: {i:04d}"
        scheduler.run_until_idle()
    return session.upstream.endpoint.stats.bytes_received - before


class TestA1IncrementalVsFullFrame:
    def test_incremental_updates(self, benchmark):
        def run():
            scheduler, window, session = _stack()
            return _label_workload(scheduler, window, session)

        bytes_used = benchmark.pedantic(run, rounds=3, iterations=1)
        benchmark.extra_info["upstream_bytes"] = bytes_used

    @staticmethod
    def _full_frame_workload(tile_diff):
        scheduler, window, session = _stack(tile_diff=tile_diff)
        before = session.upstream.endpoint.stats.bytes_received
        label = window.root.find("status")
        for i in range(20):
            label.text = f"status: {i:04d}"
            window.damage.add(window.bitmap.bounds)  # the ablation
            scheduler.run_until_idle()
        return session.upstream.endpoint.stats.bytes_received - before

    def test_full_frame_refreshes(self, benchmark):
        """Ablated: damage the whole window on every change.

        The frame differ is disabled here — it refines full-frame damage
        straight back to the changed tiles, which would hide the very
        cost this ablation quantifies (see the test below for that).
        """
        bytes_used = benchmark.pedantic(
            lambda: self._full_frame_workload(tile_diff=False),
            rounds=3, iterations=1)
        benchmark.extra_info["upstream_bytes"] = bytes_used
        # sanity: full-frame costs at least 5x the incremental bytes
        scheduler, window, session = _stack()
        incremental = _label_workload(scheduler, window, session)
        assert bytes_used > 5 * incremental
        benchmark.extra_info["vs_incremental"] = round(
            bytes_used / incremental, 1)

    def test_tile_differ_neutralises_full_frame_damage(self, benchmark):
        """With the frame differ on, full-frame damage costs the same
        bytes as properly incremental damage — over-reporting apps get
        the damage-tracked price anyway."""
        bytes_used = benchmark.pedantic(
            lambda: self._full_frame_workload(tile_diff=True),
            rounds=3, iterations=1)
        scheduler, window, session = _stack()
        incremental = _label_workload(scheduler, window, session)
        assert bytes_used <= incremental * 1.05
        benchmark.extra_info["upstream_bytes"] = bytes_used
        benchmark.extra_info["vs_incremental"] = round(
            bytes_used / incremental, 2)


class TestA2FixedEncoding:
    """The two encodings a client leads with: HEXTILE on the home LAN,
    ZRLE on a slow bearer."""

    @pytest.mark.parametrize("mode", ["fixed-hextile", "fixed-zrle"])
    def test_encoding_mode_bytes(self, benchmark, mode):
        encodings = {
            "fixed-hextile": (HEXTILE,),
            "fixed-zrle": (ZRLE,),
        }[mode]

        def run():
            scheduler, window, session = _stack(encodings=encodings)
            return _label_workload(scheduler, window, session)

        bytes_used = benchmark.pedantic(run, rounds=3, iterations=1)
        benchmark.extra_info["upstream_bytes"] = bytes_used


class TestA3DitherChoice:
    def _gray(self):
        return ops.to_grayscale(panel_frame(320, 240))

    def test_floyd_steinberg(self, benchmark):
        gray = self._gray()
        out = benchmark(lambda: ops.floyd_steinberg(gray, 2))
        benchmark.extra_info["mean_abs_error"] = round(
            self._block_error(gray, out), 2)

    def test_ordered_dither(self, benchmark):
        gray = self._gray()
        out = benchmark(lambda: ops.ordered_dither(gray, 2))
        benchmark.extra_info["mean_abs_error"] = round(
            self._block_error(gray, out), 2)

    def test_hard_threshold(self, benchmark):
        gray = self._gray()
        out = benchmark(lambda: ops.quantize_levels(gray, 2))
        benchmark.extra_info["mean_abs_error"] = round(
            self._block_error(gray, out), 2)

    @staticmethod
    def _block_error(source: np.ndarray, dithered: np.ndarray) -> float:
        """Mean |8x8-block-mean difference| — a perceptual-ish metric."""
        h, w = source.shape
        hb, wb = h // 8 * 8, w // 8 * 8
        s = source[:hb, :wb].reshape(hb // 8, 8, wb // 8, 8).mean((1, 3))
        d = dithered[:hb, :wb].reshape(hb // 8, 8, wb // 8, 8).mean((1, 3))
        return float(np.abs(s - d).mean())

