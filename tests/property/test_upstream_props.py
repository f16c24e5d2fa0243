"""Property: the client's dirty rect covers every pixel an update changed.

The proxy hands its output plug-in the one rect ``UniIntClient.on_update``
reports, and the plug-in rescales only that footprint.  Over random
updates of RAW and HEXTILE rects, every mirror pixel that differs from
the pre-update mirror must lie inside that rect, and the rect must lie
inside the framebuffer.  An update that changes nothing may stay
silent.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphics import Rect
from repro.net import make_pipe
from repro.proxy.upstream import UniIntClient
from repro.uip import (
    HEXTILE,
    RAW,
    EncoderState,
    FramebufferUpdate,
    RectUpdate,
)
from repro.uip.handshake import ServerHandshake
from repro.util import Scheduler

WIDTH, HEIGHT = 40, 32
#: A few flat colours, so HEXTILE tiles carry real subrects.
PALETTE = np.array([(0, 0, 0), (200, 30, 30), (30, 200, 30), (250, 250, 250)],
                   dtype=np.uint8)


def connect():
    """A handshaken client whose server end only speaks when told to."""
    scheduler = Scheduler()
    pipe = make_pipe(scheduler)
    handshake = ServerHandshake(WIDTH, HEIGHT, "props")

    def on_bytes(data):
        if not handshake.done:
            handshake.feed(data)
            if out := handshake.outgoing():
                pipe.a.send(out)

    pipe.a.on_receive = on_bytes
    pipe.a.send(handshake.outgoing())
    client = UniIntClient(pipe.b)
    scheduler.run_until_idle()
    assert client.ready
    return scheduler, pipe.a, client


def draw_rect(data):
    x = data.draw(st.integers(0, WIDTH - 1))
    y = data.draw(st.integers(0, HEIGHT - 1))
    return Rect(x, y, data.draw(st.integers(1, WIDTH - x)),
                data.draw(st.integers(1, HEIGHT - y)))


def draw_update(data, rng):
    """1-4 rect updates, each RAW or HEXTILE."""
    rects = []
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from((RAW, HEXTILE)))
        rect = draw_rect(data)
        pixels = PALETTE[rng.integers(0, len(PALETTE), (rect.h, rect.w))]
        rects.append(RectUpdate(rect, kind, pixels))
    return FramebufferUpdate(tuple(rects))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_dirty_rect_covers_every_changed_pixel(data, seed):
    rng = np.random.default_rng(seed)
    scheduler, server_end, client = connect()
    encoder = EncoderState()
    # paint the whole frame first, so a rect of palette pixels may
    # leave some of them unchanged
    paint = PALETTE[rng.integers(0, len(PALETTE), (HEIGHT, WIDTH))]
    server_end.send(FramebufferUpdate((RectUpdate(
        client.framebuffer.bounds, RAW, paint),)).encode(encoder))
    scheduler.run_until_idle()
    reported = []
    client.on_update = reported.append
    for _ in range(data.draw(st.integers(1, 6))):
        before = client.framebuffer.pixels.copy()
        update = draw_update(data, rng)
        reported.clear()
        server_end.send(update.encode(encoder))
        scheduler.run_until_idle()
        bounds = client.framebuffer.bounds
        changed = (client.framebuffer.pixels != before).any(axis=2)
        if not reported:
            assert not changed.any()
            continue
        (dirty,) = reported
        assert not dirty.is_empty
        assert bounds.contains_rect(dirty)
        outside = changed.copy()
        outside[dirty.y:dirty.y2, dirty.x:dirty.x2] = False
        assert not outside.any(), (dirty, np.argwhere(outside)[:4])
