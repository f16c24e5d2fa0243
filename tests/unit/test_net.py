"""Unit tests for link profiles, pipes and framing."""

import pytest

from repro.net import (
    CELLULAR_PDC,
    ETHERNET_100,
    LOOPBACK,
    WIFI_11B,
    FrameAssembler,
    LinkProfile,
    encode_frame,
    make_pipe,
)
from repro.util import Scheduler, TransportClosed


class TestLinkProfile:
    def test_transmission_time(self):
        link = LinkProfile("t", latency_s=0.0, bandwidth_bps=8000)
        assert link.transmission_time(1000) == pytest.approx(1.0)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            LinkProfile("bad", latency_s=0, bandwidth_bps=1, jitter_s=-0.1)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LinkProfile("bad", latency_s=-1, bandwidth_bps=1)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            LinkProfile("bad", latency_s=0, bandwidth_bps=0)

    def test_rejects_bad_loss(self):
        with pytest.raises(ValueError):
            LinkProfile("bad", latency_s=0, bandwidth_bps=1, loss=1.0)

    def test_presets_are_ordered_by_speed(self):
        assert CELLULAR_PDC.bandwidth_bps < WIFI_11B.bandwidth_bps
        assert WIFI_11B.bandwidth_bps < ETHERNET_100.bandwidth_bps
        assert ETHERNET_100.bandwidth_bps < LOOPBACK.bandwidth_bps


class TestPipe:
    def test_roundtrip(self):
        sched = Scheduler()
        pipe = make_pipe(sched)
        got = []
        pipe.b.on_receive = got.append
        pipe.a.send(b"hello")
        sched.run_until_idle()
        assert got == [b"hello"]

    def test_duplex(self):
        sched = Scheduler()
        pipe = make_pipe(sched)
        got_a, got_b = [], []
        pipe.a.on_receive = got_a.append
        pipe.b.on_receive = got_b.append
        pipe.a.send(b"to-b")
        pipe.b.send(b"to-a")
        sched.run_until_idle()
        assert got_b == [b"to-b"]
        assert got_a == [b"to-a"]

    def test_latency_respected(self):
        sched = Scheduler()
        link = LinkProfile("slow", latency_s=0.5, bandwidth_bps=1e9)
        pipe = make_pipe(sched, link)
        arrivals = []
        pipe.b.on_receive = lambda data: arrivals.append(sched.now())
        pipe.a.send(b"x")
        sched.run_until_idle()
        assert arrivals[0] == pytest.approx(0.5, abs=1e-3)

    def test_bandwidth_serialisation_delay(self):
        sched = Scheduler()
        link = LinkProfile("thin", latency_s=0.0, bandwidth_bps=8000)
        pipe = make_pipe(sched, link)
        arrivals = []
        pipe.b.on_receive = lambda data: arrivals.append(sched.now())
        pipe.a.send(b"\x00" * 1000)  # 1 second of serialisation
        pipe.a.send(b"\x00" * 1000)  # queued behind the first
        sched.run_until_idle()
        assert arrivals[0] == pytest.approx(1.0)
        assert arrivals[1] == pytest.approx(2.0)

    def test_fifo_order_with_jitter(self):
        sched = Scheduler()
        link = LinkProfile("jittery", latency_s=0.01, bandwidth_bps=1e9,
                           jitter_s=0.05)
        pipe = make_pipe(sched, link, seed=42)
        got = []
        pipe.b.on_receive = got.append
        for i in range(20):
            pipe.a.send(bytes([i]))
        sched.run_until_idle()
        assert got == [bytes([i]) for i in range(20)]

    def test_loss_drops_messages_deterministically(self):
        sched = Scheduler()
        link = LinkProfile("lossy", latency_s=0.0, bandwidth_bps=1e9, loss=0.5)
        pipe = make_pipe(sched, link, seed=7)
        got = []
        pipe.b.on_receive = got.append
        for i in range(100):
            pipe.a.send(bytes([i]))
        sched.run_until_idle()
        assert 20 < len(got) < 80
        assert pipe.a.stats.messages_dropped == 100 - len(got)
        # Determinism: same seed, same delivery set.
        sched2 = Scheduler()
        pipe2 = make_pipe(sched2, link, seed=7)
        got2 = []
        pipe2.b.on_receive = got2.append
        for i in range(100):
            pipe2.a.send(bytes([i]))
        sched2.run_until_idle()
        assert got2 == got

    def test_send_after_close_raises(self):
        sched = Scheduler()
        pipe = make_pipe(sched)
        pipe.close()
        with pytest.raises(TransportClosed):
            pipe.a.send(b"x")

    def test_close_notifies_peer(self):
        sched = Scheduler()
        pipe = make_pipe(sched)
        closed = []
        pipe.b.on_close = lambda: closed.append(True)
        pipe.a.close()
        sched.run_until_idle()
        assert closed == [True]

    def test_a_second_close_or_abort_notifies_no_one(self):
        sched = Scheduler()
        pipe = make_pipe(sched)
        closed = []
        pipe.a.on_close = lambda: closed.append("a")
        pipe.b.on_close = lambda: closed.append("b")
        pipe.a.abort()
        sched.run_until_idle()
        pipe.a.abort()
        pipe.a.close()
        sched.run_until_idle()
        assert sorted(closed) == ["a", "b"]

    def test_data_buffered_until_callback_set(self):
        sched = Scheduler()
        pipe = make_pipe(sched)
        pipe.a.send(b"early")
        sched.run_until_idle()
        got = []
        pipe.b.on_receive = got.append
        assert got == [b"early"]

    def test_stats_counters(self):
        sched = Scheduler()
        pipe = make_pipe(sched)
        pipe.b.on_receive = lambda data: None
        pipe.a.send(b"12345")
        sched.run_until_idle()
        assert pipe.a.stats.bytes_sent == 5
        assert pipe.b.stats.bytes_received == 5
        assert pipe.b.stats.bytes_sent == 0

    def test_non_bytes_payload_rejected(self):
        sched = Scheduler()
        pipe = make_pipe(sched)
        with pytest.raises(TypeError):
            pipe.a.send("not bytes")  # type: ignore[arg-type]


class TestFraming:
    def test_roundtrip_single(self):
        frames = []
        asm = FrameAssembler(on_frame=frames.append)
        asm.feed(encode_frame(b"payload"))
        assert frames == [b"payload"]

    def test_split_across_chunks(self):
        frames = []
        asm = FrameAssembler(on_frame=frames.append)
        data = encode_frame(b"abcdef")
        for i in range(len(data)):
            asm.feed(data[i:i + 1])
        assert frames == [b"abcdef"]

    def test_multiple_frames_per_chunk(self):
        asm = FrameAssembler()
        out = asm.feed(encode_frame(b"a") + encode_frame(b"bb") +
                       encode_frame(b"ccc"))
        assert out == [b"a", b"bb", b"ccc"]

    def test_empty_frame(self):
        asm = FrameAssembler()
        assert asm.feed(encode_frame(b"")) == [b""]

    def test_buffered_bytes_reported(self):
        asm = FrameAssembler()
        data = encode_frame(b"abcdef")
        asm.feed(data[:5])
        assert asm.buffered_bytes == 5

    def test_oversize_frame_rejected(self):
        from repro.net.framing import MAX_FRAME_SIZE
        from repro.util.errors import TransportError
        asm = FrameAssembler()
        bad_header = (MAX_FRAME_SIZE + 1).to_bytes(4, "big")
        with pytest.raises(TransportError):
            asm.feed(bad_header)

    def test_over_pipe(self):
        sched = Scheduler()
        pipe = make_pipe(sched)
        frames = []
        asm = FrameAssembler(on_frame=frames.append)
        pipe.b.on_receive = asm.feed
        pipe.a.send(encode_frame(b"one"))
        pipe.a.send(encode_frame(b"two"))
        sched.run_until_idle()
        assert frames == [b"one", b"two"]
