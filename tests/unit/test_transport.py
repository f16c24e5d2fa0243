"""Unit tests: Transport credit flow control, vectored sends, sockets."""

import pytest

from repro.net import (
    CELLULAR_PDC,
    ETHERNET_100,
    LOOPBACK,
    LinkProfile,
    Transport,
    credit_watermarks,
    encode_frame,
    frame_chunks,
    make_pipe,
)
from repro.net.transport import MIN_CREDIT, as_chunks
from repro.uip.wire import Writer
from repro.util import Scheduler, TransportClosed


class TestAsChunks:
    def test_bytes_passthrough(self):
        payload = b"hello"
        chunks, total = as_chunks(payload)
        assert chunks == [b"hello"] and total == 5
        assert chunks[0] is payload  # zero-copy for immutable input

    def test_mutable_inputs_are_copied(self):
        buf = bytearray(b"abc")
        chunks, _ = as_chunks(buf)
        buf[0] = ord("z")
        assert chunks[0] == b"abc"

    def test_chunk_list(self):
        chunks, total = as_chunks([b"ab", memoryview(b"cd"), bytearray(b"e")])
        assert chunks == [b"ab", b"cd", b"e"] and total == 5

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            as_chunks(42)
        with pytest.raises(TypeError):
            as_chunks([b"ok", "not bytes"])


class TestCreditWatermarks:
    def test_floor_on_slow_links(self):
        high, low = credit_watermarks(CELLULAR_PDC)
        assert high == MIN_CREDIT and low == MIN_CREDIT // 2

    def test_scales_with_bdp(self):
        fat = LinkProfile("fat", latency_s=0.1, bandwidth_bps=1e9)
        high, low = credit_watermarks(fat)
        assert high == int(2 * (1e9 / 8) * 0.2)
        assert low == high // 2

    def test_all_presets_have_sane_hysteresis(self):
        for profile in (LOOPBACK, ETHERNET_100, CELLULAR_PDC):
            high, low = credit_watermarks(profile)
            assert 0 < low < high


class TestPipeCredit:
    def test_queued_bytes_track_in_flight_data(self):
        sched = Scheduler()
        pipe = make_pipe(sched, CELLULAR_PDC)
        pipe.b.on_receive = lambda data: None
        pipe.a.send(b"\x00" * 1000)
        assert pipe.a.queued_bytes == 1000
        assert pipe.a.stats.peak_queued_bytes == 1000
        sched.run_until_idle()
        assert pipe.a.queued_bytes == 0
        assert pipe.a.stats.peak_queued_bytes == 1000

    def test_stats_reset_starts_a_fresh_measurement(self):
        sched = Scheduler()
        pipe = make_pipe(sched, CELLULAR_PDC)
        pipe.b.on_receive = lambda data: None
        pipe.a.send(b"\x00" * 1000)
        sched.run_until_idle()
        pipe.a.stats.reset()
        pipe.b.stats.reset()
        assert pipe.a.stats == type(pipe.a.stats)()
        pipe.a.send(b"\x00" * 300)
        assert pipe.a.stats.peak_queued_bytes == 300
        sched.run_until_idle()
        assert pipe.a.stats.bytes_sent == 300
        assert pipe.b.stats.bytes_received == 300

    def test_writable_goes_false_at_high_watermark(self):
        sched = Scheduler()
        pipe = make_pipe(sched, CELLULAR_PDC)
        assert pipe.a.writable
        pipe.a.send(b"\x00" * pipe.a.credit_limit)
        assert not pipe.a.writable
        sched.run_until_idle()
        assert pipe.a.writable

    def test_on_writable_fires_below_low_watermark(self):
        sched = Scheduler()
        pipe = make_pipe(sched, CELLULAR_PDC)
        fired = []
        pipe.a.on_writable = lambda: fired.append(sched.now())
        # two sends: credit stays saturated until the first delivery drops
        # the backlog to half the limit (= the low watermark)
        pipe.a.send(b"\x00" * pipe.a.credit_limit)
        pipe.a.send(b"\x00" * (pipe.a.credit_limit // 2))
        sched.run_until_idle()
        assert len(fired) == 1

    def test_no_spurious_writable_when_never_saturated(self):
        sched = Scheduler()
        pipe = make_pipe(sched, ETHERNET_100)
        fired = []
        pipe.a.on_writable = lambda: fired.append(1)
        pipe.a.send(b"tiny")
        sched.run_until_idle()
        assert fired == []

    def test_lost_messages_do_not_leak_credit(self):
        sched = Scheduler()
        lossy = LinkProfile("lossy", latency_s=0.0, bandwidth_bps=1e9,
                            loss=0.5)
        pipe = make_pipe(sched, lossy, seed=7)
        for _ in range(50):
            pipe.a.send(b"\x00" * 100)
        sched.run_until_idle()
        assert pipe.a.queued_bytes == 0
        assert pipe.a.stats.messages_dropped > 0


class TestPipeVectoredSend:
    def test_chunk_list_arrives_in_order(self):
        sched = Scheduler()
        pipe = make_pipe(sched)
        got = []
        pipe.b.on_receive = got.append
        pipe.a.send([b"ab", b"cd", b"ef"])
        sched.run_until_idle()
        assert b"".join(got) == b"abcdef"
        assert pipe.b.stats.bytes_received == 6

    def test_chunked_send_times_match_flat_send(self):
        link = LinkProfile("thin", latency_s=0.0, bandwidth_bps=8000)
        arrivals = {}
        for mode, payload in (("flat", b"\x00" * 1000),
                              ("chunks", [b"\x00" * 500] * 2)):
            sched = Scheduler()
            pipe = make_pipe(sched, link)
            pipe.b.on_receive = lambda d, m=mode: arrivals.setdefault(
                m, sched.now())
            pipe.a.send(payload)
            sched.run_until_idle()
        assert arrivals["flat"] == pytest.approx(arrivals["chunks"])

    def test_buffered_chunks_flush_to_late_callback(self):
        sched = Scheduler()
        pipe = make_pipe(sched)
        pipe.a.send([b"one", b"two"])
        sched.run_until_idle()
        got = []
        pipe.b.on_receive = got.append
        assert b"".join(got) == b"onetwo"

    def test_empty_chunk_list_is_a_noop_message(self):
        sched = Scheduler()
        pipe = make_pipe(sched)
        got = []
        pipe.b.on_receive = got.append
        pipe.a.send([])
        sched.run_until_idle()
        assert got == []
        assert pipe.b.stats.bytes_received == 0


class TestSocketTransport:
    def test_roundtrip(self, reactor, socket_pair):
        pair = socket_pair()
        got = []
        pair.b.on_receive = got.append
        pair.a.send(b"hello")
        reactor.run_until_idle()
        assert b"".join(got) == b"hello"
        assert pair.b.stats.bytes_received == 5

    def test_vectored_send(self, reactor, socket_pair):
        pair = socket_pair()
        got = []
        pair.b.on_receive = got.append
        pair.a.send([b"ab", b"cd", b"ef"])
        reactor.run_until_idle()
        assert b"".join(got) == b"abcdef"

    def test_duplex(self, reactor, socket_pair):
        pair = socket_pair()
        got_a, got_b = [], []
        pair.a.on_receive = got_a.append
        pair.b.on_receive = got_b.append
        pair.a.send(b"to-b")
        pair.b.send(b"to-a")
        reactor.run_until_idle()
        assert b"".join(got_b) == b"to-b"
        assert b"".join(got_a) == b"to-a"

    def test_large_transfer_exceeding_kernel_buffer(self, reactor,
                                                    socket_pair):
        pair = socket_pair()
        blob = bytes(range(256)) * 8192  # 2 MiB, forces outbox spill
        got = []
        pair.b.on_receive = got.append
        pair.a.send(blob)
        reactor.run_until_idle()
        assert b"".join(got) == blob
        assert pair.a.queued_bytes == 0

    def test_credit_released_as_peer_reads(self, reactor, socket_pair):
        pair = socket_pair(CELLULAR_PDC)
        pair.b.on_receive = lambda data: None
        pair.a.send(b"\x00" * (pair.a.credit_limit + 100))
        assert not pair.a.writable
        reactor.run_until_idle()
        assert pair.a.queued_bytes == 0
        assert pair.a.writable

    def test_close_flushes_then_signals_peer(self, reactor, socket_pair):
        pair = socket_pair()
        got, closed = [], []
        pair.b.on_receive = got.append
        pair.b.on_close = lambda: closed.append(True)
        pair.a.send(b"last words")
        pair.a.close()
        reactor.run_until_idle()
        assert b"".join(got) == b"last words"
        assert closed == [True]
        assert not pair.b.is_open

    def test_close_flushes_outbox_backlog(self, reactor, socket_pair):
        # a payload far beyond the kernel socket buffer spills into the
        # userspace outbox; close() must still deliver every byte and
        # only then EOF the peer
        pair = socket_pair()
        blob = bytes(range(256)) * 4096  # 1 MiB
        got, closed = [], []
        pair.b.on_receive = got.append
        pair.b.on_close = lambda: closed.append(True)
        pair.a.send(blob)
        pair.a.close()
        reactor.run_until_idle()
        assert b"".join(got) == blob
        assert closed == [True]
        assert pair.a.queued_bytes == 0

    def test_peer_hard_close_releases_credit_and_closes(self, reactor,
                                                        socket_pair):
        # the peer's socket dies outright (reset, not graceful EOF):
        # the sender must get all its credit back and learn it is closed,
        # not wedge forever waiting for a drain that cannot happen
        pair = socket_pair(CELLULAR_PDC)
        closed = []
        pair.a.on_close = lambda: closed.append(True)
        pair.a.send(b"\x00" * (pair.a.credit_limit * 100))
        assert not pair.a.writable
        pair.b._release()  # hard reset, no SHUT_WR handshake
        pair.a.send(b"more")  # next write hits EPIPE
        reactor.run_until_idle()
        assert pair.a.queued_bytes == 0
        assert not pair.a.is_open
        assert closed == [True]

    def test_send_after_close_raises(self, reactor, socket_pair):
        pair = socket_pair()
        pair.a.close()
        with pytest.raises(TransportClosed):
            pair.a.send(b"nope")

    def test_is_a_transport(self, reactor, socket_pair):
        pair = socket_pair()
        assert isinstance(pair.a, Transport)
        pair.a.close()
        reactor.run_until_idle()


class TestSocketPumpFixes:
    """Regression suite for the socket-transport pump bugfix sweep."""

    def test_blocked_outbox_has_continuation_armed_at_stall_time(
            self, reactor, socket_pair):
        # sendmsg hit EAGAIN with bytes left in the outbox: the flush
        # continuation must already be armed at that instant, not
        # depend on some unrelated later send coming along
        pair = socket_pair()
        blob = b"x" * (2 * 1024 * 1024)
        got = []
        pair.b.on_receive = got.append
        pair.a.send(blob)
        assert pair.a._outbox, "payload must exceed the kernel buffer"
        assert pair.a._handle.want_write
        reactor.run_until_idle()
        assert not pair.a._outbox
        assert not pair.a._handle.want_write, "disarmed once drained"
        assert b"".join(got) == blob

    def test_raising_receive_callback_does_not_stall_peer_flush(
            self, reactor, socket_pair):
        # the sender's flush waits on EPOLLOUT, not on the receiver, so a
        # UI callback blowing up cannot strand the sender's outbox:
        # recovery is just turning the reactor again
        pair = socket_pair()
        blob = b"y" * (2 * 1024 * 1024)
        calls = []

        def explode(data):
            calls.append(bytes(data))
            raise RuntimeError("ui fell over")

        pair.b.on_receive = explode
        pair.a.send(blob)
        with pytest.raises(RuntimeError):
            pair.b._pump_recv()  # the read dispatch, minus containment
        assert pair.a._handle.want_write
        pair.b.on_receive = lambda data: calls.append(bytes(data))
        reactor.run_until_idle()
        assert not pair.a._outbox
        assert b"".join(calls) == blob
        assert pair.a.queued_bytes == 0

    def test_recv_pump_yields_at_byte_budget(self, reactor, socket_pair):
        # an unbounded drain would hand one busy link the whole turn;
        # the pump must stop at RECV_BUDGET and leave the remainder to
        # the level-triggered poll
        pair = socket_pair()
        pair.b.RECV_BUDGET = 8192
        pair.b.on_receive = lambda data: None
        pair.a.send(b"z" * 65536)
        pair.b._pump_recv()
        assert pair.b.stats.bytes_received <= 8192
        reactor.run_until_idle()
        assert pair.b.stats.bytes_received == 65536

    def test_recv_budget_interleaves_other_events(self, reactor, socket_pair):
        # while one link drains a big transfer in budgeted slices, an
        # event scheduled by the first slice still gets to run before
        # the drain finishes
        pair = socket_pair()
        sched = pair.b._scheduler
        pair.b.RECV_BUDGET = 4096
        order = []

        def on_chunk(data):
            if not order:
                sched.call_soon(lambda: order.append("other"))
            order.append("chunk")

        pair.b.on_receive = on_chunk
        pair.a.send(b"w" * 65536)
        reactor.run_until_idle()
        assert "other" in order
        assert order.index("other") < len(order) - 1, \
            "the budgeted drain must not monopolise the turn"

    def test_empty_socket_sends_deliver_nothing(self, reactor, socket_pair):
        pair = socket_pair()
        got = []
        pair.b.on_receive = got.append
        pair.a.send([])
        pair.a.send([b"", b""])
        pair.a.send(b"x")
        reactor.run_until_idle()
        assert b"".join(got) == b"x"
        assert pair.b.stats.bytes_received == 1
        assert pair.a.queued_bytes == 0

    def test_graceful_eof_with_queued_credit_releases_it(self, reactor,
                                                         socket_pair):
        # the peer EOFs while this side still has charged credit (bytes
        # queued toward the peer that can now never drain): the credit
        # must come back, like the hard-reset path already guaranteed
        pair = socket_pair(CELLULAR_PDC)
        pair.a.on_receive = lambda data: None
        pair.b.on_receive = lambda data: None
        pair.b.send(b"\x00" * (pair.b.credit_limit * 50))  # b -> a backlog
        assert not pair.b.writable
        pair.a.close()   # a EOFs; b's pump sees it with credit charged
        reactor.run_until_idle()
        assert not pair.b.is_open
        assert pair.b.queued_bytes == 0
        assert pair.b.writable

    def test_closed_half_releases_its_fd_once_the_peer_eofs(self, reactor,
                                                            socket_pair):
        # a graceful close keeps the fd until the remote's EOF comes back,
        # then both halves leave the reactor and close their fds
        pair = socket_pair()
        pair.a.close()
        reactor.run_until_idle()
        assert not pair.b.is_open
        assert pair.a._sock.fileno() == -1
        assert pair.b._sock.fileno() == -1
        assert reactor.handle_count == 0


class TestFrameChunks:
    def test_matches_encode_frame(self):
        payload = b"payload bytes"
        assert b"".join(frame_chunks(payload)) == encode_frame(payload)

    def test_chunk_list_payload_not_joined(self):
        part_a, part_b = b"aaaa", b"bbb"
        chunks = frame_chunks([part_a, part_b])
        assert chunks[1] is part_a and chunks[2] is part_b
        assert b"".join(chunks) == encode_frame(part_a + part_b)

    def test_oversized_rejected(self):
        from repro.net.framing import MAX_FRAME_SIZE
        from repro.util.errors import TransportError
        with pytest.raises(TransportError):
            frame_chunks([b"\x00" * (MAX_FRAME_SIZE // 2 + 1)] * 2)


class TestWriterChunks:
    def test_chunks_join_to_getvalue(self):
        writer = Writer().u8(7).u16(300).raw(b"xyz").pad(2)
        assert b"".join(writer.chunks()) == writer.getvalue()
