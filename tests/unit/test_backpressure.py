"""Unit tests: credit backpressure and slow-client update coalescing.

The slow-device scenario: a panel churning at UI speed serves a client
behind a 9600 bps cellular bearer.  Without flow control every churn tick
queues another full update behind the link and the client drowns in stale
frames; with credit backpressure the session folds new damage into its
pending region and the client receives one merged, freshest update per
link drain.
"""

import pytest

from repro.devices import CellPhone
from repro.net import CELLULAR_PDC, ETHERNET_100, make_pipe
from repro.proxy import UniIntProxy
from repro.proxy.upstream import UniIntClient
from repro.server import UniIntServer
from repro.toolkit import Column, Label, UIWindow
from repro.util import Scheduler
from repro.windows import DisplayServer


def phone_stack(backpressure: bool):
    scheduler = Scheduler()
    window = UIWindow(480, 360)
    column = Column()
    labels = [column.add(Label(f"row {i}")) for i in range(12)]
    window.set_root(column)
    display = DisplayServer(window)
    server = UniIntServer(display, scheduler, backpressure=backpressure)
    pipe = make_pipe(scheduler, CELLULAR_PDC, name="phone-link")
    session = server.accept(pipe.a)
    client = UniIntClient(pipe.b)
    scheduler.run_until_idle()
    return scheduler, labels, server, session, client


def drive_churn(scheduler, labels, client, seconds=12.0,
                poll_every=0.05, churn_every=0.1):
    """Panel churn plus an eager polling viewer (pipelined requests).

    Both drivers stop at the deadline, so a later ``run_until_idle`` can
    drain the link and converge.
    """
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


class TestServerSessionBackpressure:
    def test_queue_bounded_by_credit(self):
        scheduler, labels, server, session, client = phone_stack(True)
        drive_churn(scheduler, labels, client)
        endpoint = session.endpoint
        # bounded: never more than the credit limit plus one update deep
        assert endpoint.stats.peak_queued_bytes < 4 * endpoint.credit_limit
        assert session.updates_coalesced > 0
        assert session.bytes_suppressed > 0

    def test_without_backpressure_queue_grows_unbounded(self):
        scheduler, labels, server, session, client = phone_stack(False)
        drive_churn(scheduler, labels, client)
        endpoint = session.endpoint
        assert endpoint.stats.peak_queued_bytes > 10 * endpoint.credit_limit
        assert session.updates_coalesced == 0

    def test_coalesced_updates_deliver_fresh_content(self):
        scheduler, labels, server, session, client = phone_stack(True)
        drive_churn(scheduler, labels, client)
        # stop churning, let the link fully drain: the mirror must converge
        # on the *latest* content even though most updates were withheld
        scheduler.run_until_idle()
        assert client.framebuffer == server.display.framebuffer

    def test_backpressure_sends_fewer_but_equivalent_updates(self):
        results = {}
        for flag in (False, True):
            scheduler, labels, server, session, client = phone_stack(flag)
            drive_churn(scheduler, labels, client)
            scheduler.run_until_idle()
            assert client.framebuffer == server.display.framebuffer
            results[flag] = session.updates_sent
        assert results[True] < results[False]

    def test_fast_link_never_coalesces(self):
        scheduler = Scheduler()
        window = UIWindow(480, 360)
        column = Column()
        labels = [column.add(Label(f"row {i}")) for i in range(12)]
        window.set_root(column)
        display = DisplayServer(window)
        server = UniIntServer(display, scheduler, backpressure=True)
        pipe = make_pipe(scheduler, ETHERNET_100, name="lan-link")
        session = server.accept(pipe.a)
        client = UniIntClient(pipe.b)
        scheduler.run_until_idle()
        for round_no in range(20):
            for i, label in enumerate(labels):
                label.text = f"round {round_no} value {i}"
            scheduler.run_until_idle()
        assert session.updates_coalesced == 0
        assert client.framebuffer == display.framebuffer


class TestProxyPushBackpressure:
    def _stack(self):
        # server + proxy over Ethernet, with a cellular phone as the
        # output device: the slow bearer is the *device* link
        scheduler = Scheduler()
        window = UIWindow(160, 120)
        column = Column()
        label = column.add(Label("tick"))
        window.set_root(column)
        display = DisplayServer(window)
        server = UniIntServer(display, scheduler)
        proxy = UniIntProxy(scheduler)
        pipe = make_pipe(scheduler, ETHERNET_100, name="server-link")
        server.accept(pipe.a)
        session = proxy.connect(pipe.b)
        phone = CellPhone("keitai", scheduler)
        phone.connect(proxy)
        scheduler.run_until_idle()
        proxy.select_output("keitai")
        scheduler.run_until_idle()
        return scheduler, label, session

    def _churn(self, scheduler, label, ticks=80, step=0.05):
        for tick in range(ticks):
            label.text = f"tick {tick}"
            scheduler.run_for(step)

    def test_device_push_coalesces_on_saturated_bearer(self):
        scheduler, label, session = self._stack()
        self._churn(scheduler, label)
        device_ep = session.output_binding.endpoint
        assert session.updates_coalesced > 0
        assert device_ep.stats.peak_queued_bytes < 4 * device_ep.credit_limit
        # draining the link flushes the deferred damage as one fresh frame
        scheduler.run_until_idle()
        assert session._deferred_push.is_empty
