"""Property tests: framing/decoder split-point invariance and robustness.

A byte stream has no message boundaries: a transport may deliver any
re-segmentation of the sent bytes (the scatter-gather wire path actively
exploits this — one logical update arrives as several chunks).  These
properties pin the contract that makes that safe: feeding *any* partition
of a stream into :class:`FrameAssembler`, :class:`ClientMessageDecoder`
or :class:`ServerMessageDecoder` yields exactly the same messages, and a
poisoned length prefix fails loudly without corrupting decoder state.

The hostile-kernel properties at the end drive a real
:class:`SocketTransport` pair through a syscall shim that injects EINTR
and partial writes at random points, pinning the pump loops' liveness:
every byte arrives in order, framed-message counters stay in parity, and
all credit comes back — no matter where the kernel "fails".
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.graphics import RGB888, Rect
from repro.net.framing import MAX_FRAME_SIZE, FrameAssembler, encode_frame
from repro.uip import (
    Bell,
    ClientMessageDecoder,
    DecoderState,
    EncoderState,
    FramebufferUpdateRequest,
    HEXTILE,
    KeyEvent,
    Ping,
    PointerEvent,
    Pong,
    RAW,
    ServerMessageDecoder,
    SetEncodings,
    ZRLE,
)
from repro.uip.messages import FramebufferUpdate, RectUpdate
from repro.util.errors import TransportError

from tests.helpers import (
    HostileSocket,
    partition,
    socket_pair_on_reactor,
    split_points,
)


# -- FrameAssembler ----------------------------------------------------------


frame_payloads = st.lists(st.binary(min_size=0, max_size=200), min_size=1,
                          max_size=8)


@given(payloads=frame_payloads, data=st.data())
@settings(max_examples=60, deadline=None)
def test_frame_assembler_split_point_invariant(payloads, data):
    stream = b"".join(encode_frame(p) for p in payloads)
    cuts = data.draw(split_points(len(stream)))
    assembler = FrameAssembler()
    frames = []
    for chunk in partition(stream, cuts):
        frames.extend(assembler.feed(chunk))
    assert frames == payloads
    assert assembler.buffered_bytes == 0


@given(payloads=frame_payloads)
@settings(max_examples=30, deadline=None)
def test_frame_assembler_byte_at_a_time(payloads):
    stream = b"".join(encode_frame(p) for p in payloads)
    assembler = FrameAssembler()
    frames = []
    for i in range(len(stream)):
        frames.extend(assembler.feed(stream[i:i + 1]))
    assert frames == payloads


def test_oversized_frame_raises_without_corrupting_buffer():
    import struct
    assembler = FrameAssembler()
    # a good frame followed by a poisoned header
    good = encode_frame(b"fine")
    poison = struct.pack(">I", MAX_FRAME_SIZE + 1) + b"junk"
    assert assembler.feed(good) == [b"fine"]
    before = assembler.buffered_bytes
    with pytest.raises(TransportError):
        assembler.feed(poison)
    # nothing was consumed: state is stable and the error reproduces
    assert assembler.buffered_bytes == before + len(poison)
    with pytest.raises(TransportError):
        assembler.feed(b"")
    assert assembler.buffered_bytes == before + len(poison)


# -- client message stream -----------------------------------------------------


client_messages = st.lists(
    st.one_of(
        st.builds(KeyEvent, st.booleans(), st.integers(0, 2**32 - 1)),
        st.builds(PointerEvent, st.integers(0, 255),
                  st.integers(0, 65535), st.integers(0, 65535)),
        st.builds(Ping, st.integers(0, 2**32 - 1)),
        st.builds(
            FramebufferUpdateRequest, st.booleans(),
            st.builds(Rect, st.integers(0, 100), st.integers(0, 100),
                      st.integers(1, 100), st.integers(1, 100))),
        st.builds(SetEncodings,
                  st.lists(st.sampled_from([RAW, HEXTILE, ZRLE]),
                           min_size=1, max_size=4).map(tuple)),
    ),
    min_size=1, max_size=10,
)


@given(messages=client_messages, data=st.data())
@settings(max_examples=60, deadline=None)
def test_client_decoder_split_point_invariant(messages, data):
    stream = b"".join(m.encode() for m in messages)
    cuts = data.draw(split_points(len(stream)))
    decoder = ClientMessageDecoder()
    decoded = []
    for chunk in partition(stream, cuts):
        decoded.extend(decoder.feed(chunk))
    assert decoded == messages
    assert decoder.buffered_bytes == 0


@given(messages=client_messages)
@settings(max_examples=20, deadline=None)
def test_client_decoder_byte_at_a_time_matches_whole_feed(messages):
    stream = b"".join(m.encode() for m in messages)
    whole = ClientMessageDecoder().feed(stream)
    trickle = ClientMessageDecoder()
    dribbled = []
    for i in range(len(stream)):
        dribbled.extend(trickle.feed(stream[i:i + 1]))
    assert dribbled == whole == messages


# -- server message stream ------------------------------------------------------


@st.composite
def server_streams(draw):
    """[messages] with pixel-rect framebuffer updates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    messages = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["update", "bell", "pong"]))
        if kind == "bell":
            messages.append(Bell())
        elif kind == "pong":
            messages.append(Pong(draw(st.integers(0, 2**32 - 1))))
        else:
            rects = []
            for _ in range(draw(st.integers(1, 3))):
                w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
                x, y = draw(st.integers(0, 40)), draw(st.integers(0, 40))
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


@given(stream=server_streams(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_server_decoder_split_point_invariant(stream, data):
    messages = stream
    encoder = EncoderState()
    wire = b"".join(m.encode(encoder) if isinstance(m, FramebufferUpdate)
                    else m.encode() for m in messages)
    cuts = data.draw(split_points(len(wire)))
    decoder = ServerMessageDecoder(DecoderState(), 52, 52)
    decoded = []
    for chunk in partition(wire, cuts):
        decoded.extend(decoder.feed(chunk))
    assert len(decoded) == len(messages)
    for got, want in zip(decoded, messages):
        if isinstance(want, FramebufferUpdate):
            assert isinstance(got, FramebufferUpdate)
            assert len(got.rects) == len(want.rects)
            assert all(_rects_equal(g, w)
                       for g, w in zip(got.rects, want.rects))
        else:
            assert got == want
    assert decoder.buffered_bytes == 0


# -- hostile-kernel socket pumps ---------------------------------------------
# (the HostileSocket shim lives in tests/helpers/hostile.py so the
# fault-injection property suite can drive the same hostile kernel)


@given(messages=st.lists(st.binary(min_size=0, max_size=200_000),
                         min_size=1, max_size=10),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_socket_pumps_survive_eintr_and_partial_writes(messages, seed):
    import random

    with socket_pair_on_reactor() as (reactor, pair):
        rng = random.Random(seed)
        pair.a._sock = HostileSocket(pair.a._sock, rng)
        pair.b._sock = HostileSocket(pair.b._sock, rng)
        got = []
        pair.b.on_receive = lambda data: got.append(bytes(data))
        for message in messages:
            pair.a.send(message)
        reactor.run_until_idle()
        assert b"".join(got) == b"".join(messages)
        assert not pair.a._outbox
        assert pair.a.queued_bytes == 0, "all credit must come back"


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_hostile_kernel_duplex_big_transfer(seed):
    import random

    with socket_pair_on_reactor() as (reactor, pair):
        rng = random.Random(seed)
        pair.a._sock = HostileSocket(pair.a._sock, rng)
        pair.b._sock = HostileSocket(pair.b._sock, rng)
        blob_ab = bytes(range(256)) * 2048  # 512 KiB each way
        blob_ba = bytes(reversed(range(256))) * 2048
        got_a, got_b = [], []
        pair.a.on_receive = lambda data: got_a.append(bytes(data))
        pair.b.on_receive = lambda data: got_b.append(bytes(data))
        pair.a.send(blob_ab)
        pair.b.send(blob_ba)
        reactor.run_until_idle()
        assert b"".join(got_b) == blob_ab
        assert b"".join(got_a) == blob_ba
        assert pair.a.queued_bytes == 0 and pair.b.queued_bytes == 0


@given(stream=server_streams())
@settings(max_examples=20, deadline=None)
def test_server_decoder_chunked_encode_matches_flat(stream):
    """The scatter-gather chunk list decodes identically to the flat
    encode — wire compatibility of the vectored send path."""
    messages = stream
    flat_enc, chunk_enc = EncoderState(), EncoderState()
    flat_dec = ServerMessageDecoder(DecoderState(), 52, 52)
    chunk_dec = ServerMessageDecoder(DecoderState(), 52, 52)
    for message in messages:
        if isinstance(message, FramebufferUpdate):
            flat_wire = message.encode(flat_enc)
            chunks = message.encode_chunks(chunk_enc)
            assert b"".join(chunks) == flat_wire
            flat_out = flat_dec.feed(flat_wire)
            chunk_out = []
            for chunk in chunks:  # deliver chunk-by-chunk, as pipes do
                chunk_out.extend(chunk_dec.feed(chunk))
            assert len(flat_out) == len(chunk_out) == 1
            assert all(_rects_equal(c, sent) and _rects_equal(f, sent)
                       for c, f, sent in zip(chunk_out[0].rects,
                                             flat_out[0].rects,
                                             message.rects))
