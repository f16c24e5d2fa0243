"""Shared fixtures: a reactor, and the sockets riding it, released at
teardown.

A socket transport closed gracefully keeps its fd until the peer's EOF
comes back, so teardown closes everything a test handed to ``closing``,
turns the reactor until every closed socket has reaped its peer's EOF,
and only then closes the reactor.  Running a suite under ``python -X dev
-W error::ResourceWarning`` checks that no fd is left for the garbage
collector.
"""

import pytest

from repro.net import LOOPBACK, Reactor, make_socket_transport_pair
from repro.util import Scheduler


@pytest.fixture
def reactor():
    reactor = Reactor()
    yield reactor
    reactor.close()


@pytest.fixture
def closing(reactor):
    """``closing(thing)`` returns ``thing`` and closes it at teardown
    (transports, listeners), last opened first."""
    opened = []

    def close_at_teardown(thing):
        opened.append(thing)
        return thing

    yield close_at_teardown
    for thing in reversed(opened):
        thing.close()
    reactor.run_until_idle()


@pytest.fixture
def socket_pair(reactor, closing):
    """``socket_pair(profile)``: a socketpair transport on ``reactor``,
    both halves closed at teardown."""

    def make(profile=LOOPBACK):
        member = reactor.add_scheduler(Scheduler(), "link")
        pair = make_socket_transport_pair(member, profile)
        closing(pair.a)
        closing(pair.b)
        return pair

    return make
