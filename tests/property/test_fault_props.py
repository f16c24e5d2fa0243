"""Property tests: transport/decoder contracts hold under injected faults.

The split-point-invariance properties in ``test_transport_props`` prove
the decoders against arbitrary *benign* re-segmentation.  These push the
same contracts through the fault-injection harness: a hostile kernel
(random EINTR/partial writes via the shared :class:`HostileSocket` shim)
stacked with *scheduled* faults (:class:`FaultySocket` one-shot errnos,
seeded partial writes) must still deliver every byte in order, and the
frame/decoder layers above must reproduce exactly the sent messages —
the kernel-level faults are just another re-segmentation.  Frame-level
faults (:class:`FaultyTransport` drop/duplicate/delay) on a framed leg
must never corrupt framing: every received frame is a sent frame.
"""

import errno
import random
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphics import RGB888, Rect
from repro.net import (
    FaultPlan,
    FaultyTransport,
    LOOPBACK,
    inject_socket_faults,
    make_pipe,
)
from repro.net.framing import FrameAssembler, encode_frame
from repro.uip import (
    DecoderState,
    EncoderState,
    HEXTILE,
    RAW,
    ServerMessageDecoder,
    ZRLE,
)
from repro.uip.messages import FramebufferUpdate, RectUpdate
from repro.util import Scheduler

from tests.helpers import HostileSocket, socket_pair_on_reactor


@contextmanager
def hostile_faulted_pair(seed, offsets):
    """A reactor and a socket transport pair on it: both sides get the
    hostile kernel *and* a scheduled fault plan.  Both are torn down when
    the ``with`` block ends."""
    with socket_pair_on_reactor() as (reactor, pair):
        rng = random.Random(seed)
        pair.a._sock = HostileSocket(pair.a._sock, rng)
        pair.b._sock = HostileSocket(pair.b._sock, rng)
        plan = FaultPlan(seed=seed, partial=0.5)
        for offset in offsets:
            plan.errno_at(offset, errno.EINTR)
            plan.errno_at(offset, errno.EINTR, side="recv")
        inject_socket_faults(pair.a, plan)
        inject_socket_faults(pair.b, plan)
        yield reactor, pair


@given(payloads=st.lists(st.binary(min_size=0, max_size=5000),
                         min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1),
       offsets=st.lists(st.integers(0, 20_000), max_size=4))
@settings(max_examples=25, deadline=None)
def test_framed_stream_survives_stacked_kernel_faults(payloads, seed,
                                                      offsets):
    with hostile_faulted_pair(seed, offsets) as (reactor, pair):
        assembler = FrameAssembler()
        got = []
        pair.b.on_receive = lambda data: got.extend(
            assembler.feed(bytes(data)))
        for payload in payloads:
            pair.a.send(encode_frame(payload))
        reactor.run_until_idle()
        assert got == payloads
        assert assembler.buffered_bytes == 0
        assert pair.a.queued_bytes == 0, "all credit must come back"


@st.composite
def update_streams(draw):
    """[FramebufferUpdate] of small pixel rects."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    messages = []
    for _ in range(draw(st.integers(1, 4))):
        rects = []
        for _ in range(draw(st.integers(1, 3))):
            w, h = draw(st.integers(1, 10)), draw(st.integers(1, 10))
            x, y = draw(st.integers(0, 30)), draw(st.integers(0, 30))
            rgb = rng.integers(0, 4, size=(h, w, 3)).astype(np.uint8)
            encoding = draw(st.sampled_from([RAW, HEXTILE, ZRLE]))
            rects.append(RectUpdate(Rect(x, y, w, h), encoding, rgb))
        messages.append(FramebufferUpdate(tuple(rects)))
    return messages


def _rects_equal(got, sent):
    """A decoded rect (packed) against the rect that was sent (RGB)."""
    if got.rect != sent.rect or got.encoding != sent.encoding:
        return False
    return np.array_equal(got.payload, RGB888.pack_array(sent.payload))


@given(stream=update_streams(),
       seed=st.integers(0, 2**32 - 1),
       offsets=st.lists(st.integers(0, 50_000), max_size=3))
@settings(max_examples=20, deadline=None)
def test_uip_stream_decodes_identically_under_kernel_faults(stream, seed,
                                                            offsets):
    """Kernel faults are just another re-segmentation of the UIP byte
    stream: the server decoder must yield exactly the sent updates."""
    messages = stream
    encoder = EncoderState()
    decoder = ServerMessageDecoder(DecoderState(), 40, 40)
    decoded = []
    with hostile_faulted_pair(seed, offsets) as (reactor, pair):
        pair.b.on_receive = lambda data: decoded.extend(
            decoder.feed(bytes(data)))
        for message in messages:
            pair.a.send(message.encode(encoder))
        reactor.run_until_idle()
    assert len(decoded) == len(messages)
    for got, want in zip(decoded, messages):
        assert len(got.rects) == len(want.rects)
        assert all(_rects_equal(g, w)
                   for g, w in zip(got.rects, want.rects))
    assert decoder.buffered_bytes == 0


@given(payloads=st.lists(st.binary(min_size=0, max_size=300),
                         min_size=1, max_size=20),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_frame_faults_never_corrupt_framing(payloads, seed):
    """Drop/duplicate/delay on a framed leg: every frame that arrives is
    a frame that was sent (whole, uncorrupted), the assembler ends
    aligned, and the counters explain the arithmetic exactly."""
    plan = FaultPlan(seed=seed, drop=0.25, duplicate=0.25, delay=0.25,
                     delay_s=0.01)
    sched = Scheduler()
    pair = make_pipe(sched, LOOPBACK, name="leg")
    faulty = FaultyTransport(pair.a, plan, sched)
    assembler = FrameAssembler()
    got = []
    pair.b.on_receive = lambda data: got.extend(assembler.feed(bytes(data)))
    # tag payloads so identical binaries stay distinguishable
    tagged = [i.to_bytes(4, "big") + p for i, p in enumerate(payloads)]
    for frame in tagged:
        faulty.send(encode_frame(frame))
    sched.run_until_idle()
    sent = set(tagged)
    assert all(frame in sent for frame in got)
    assert len(got) == (len(tagged) - faulty.frames_dropped
                        + faulty.frames_duplicated)
    assert assembler.buffered_bytes == 0


@given(payload=st.binary(min_size=2, max_size=400),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_truncation_yields_no_phantom_frames(payload, seed):
    """A truncated frame models corruption: the assembler may buffer the
    torso forever, but it must never hallucinate a complete frame."""
    plan = FaultPlan(seed=seed, truncate=1.0)
    sched = Scheduler()
    pair = make_pipe(sched, LOOPBACK, name="leg")
    faulty = FaultyTransport(pair.a, plan, sched)
    assembler = FrameAssembler()
    got = []
    pair.b.on_receive = lambda data: got.extend(assembler.feed(bytes(data)))
    faulty.send(encode_frame(payload))
    sched.run_until_idle()
    assert got == []
    assert faulty.frames_truncated == 1
