"""Integration: the server encodes with the client's first offered encoding.

A panel whose labels churn is watched over the paper's 9600 bps cellular
bearer, with backpressure on.  A client that offers ZRLE first receives
ZRLE rects and keeps an exact mirror; one that offers HEXTILE first, on
the same churn, receives only HEXTILE.
"""

import numpy as np

from repro.net import CELLULAR_PDC, make_pipe
from repro.proxy.upstream import DEFAULT_ENCODINGS, UniIntClient
from repro.server import UniIntServer
from repro.toolkit import Column, Label, UIWindow
from repro.uip import HEXTILE, RAW, ZRLE
from repro.util import Scheduler
from repro.windows import DisplayServer
from tests.helpers import received_encodings


def churn_stack(encodings, *, width=320, height=240, rows=10):
    scheduler = Scheduler()
    window = UIWindow(width, height)
    column = Column()
    labels = [column.add(Label(f"row {i}")) for i in range(rows)]
    window.set_root(column)
    display = DisplayServer(window)
    server = UniIntServer(display, scheduler, backpressure=True)
    pipe = make_pipe(scheduler, CELLULAR_PDC, name="phone-link")
    session = server.accept(pipe.a)
    client = UniIntClient(pipe.b, encodings=encodings)
    seen = received_encodings(client)
    scheduler.run_until_idle()
    return scheduler, labels, session, client, seen


def drive_churn(scheduler, labels, client, seconds=8.0,
                poll_every=0.05, churn_every=0.1):
    deadline = scheduler.now() + seconds

    def poll():
        if client.ready:
            client.request_update(True)
        if scheduler.now() + poll_every <= deadline:
            scheduler.call_later(poll_every, poll)

    rounds = {"n": 0}

    def churn():
        rounds["n"] += 1
        for i, label in enumerate(labels):
            label.text = f"round {rounds['n']} v{(rounds['n'] * 37 + i) % 997}"
        if scheduler.now() + churn_every <= deadline:
            scheduler.call_later(churn_every, churn)

    scheduler.call_later(poll_every, poll)
    scheduler.call_later(churn_every, churn)
    scheduler.run_for(seconds)
    scheduler.run_until_idle()


def assert_mirror_exact(session, client):
    assert np.array_equal(client.framebuffer.pixels,
                          session.surface.display.framebuffer.pixels)


class TestClientOrderOnThePhoneBearer:
    def test_zrle_first_client_gets_zrle_and_an_exact_mirror(self):
        scheduler, labels, session, client, seen = churn_stack(
            (ZRLE, HEXTILE, RAW))
        drive_churn(scheduler, labels, client)
        assert session.updates_coalesced > 0  # the link really fell behind
        assert set(seen) == {ZRLE}
        assert_mirror_exact(session, client)

    def test_hextile_first_client_gets_only_hextile(self):
        assert DEFAULT_ENCODINGS[0] == HEXTILE
        scheduler, labels, session, client, seen = churn_stack(
            DEFAULT_ENCODINGS)
        drive_churn(scheduler, labels, client)
        assert session.updates_coalesced > 0
        assert set(seen) == {HEXTILE}
        assert_mirror_exact(session, client)
