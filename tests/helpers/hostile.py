"""Reusable hostile-environment shims for property tests.

:class:`HostileSocket` is the hypothesis-driven syscall shim the
transport property suite pioneered: it wraps a real socket and injects
EINTR and partial writes at RNG-chosen points, pinning the pump loops'
liveness no matter where the kernel "fails".  The fault-injection
property suite reuses it alongside the deterministic, schedule-driven
:class:`repro.net.faults.FaultySocket`.

``split_points`` / ``partition`` are the stream re-segmentation
primitives for split-point-invariance properties: a byte stream has no
message boundaries, so any partition of it must decode identically.

``socket_pair_on_reactor`` gives each example its own socket pair and
releases its fds when the example ends.
"""

from contextlib import contextmanager

from hypothesis import strategies as st

from repro.net import Reactor, make_socket_transport_pair
from repro.util import Scheduler


def split_points(data_len):
    """Strategy: sorted cut positions partitioning a byte stream."""
    return st.lists(st.integers(0, data_len), max_size=12).map(sorted)


def partition(data, cuts):
    """Split ``data`` at the given sorted cut offsets."""
    chunks = []
    last = 0
    for cut in [*cuts, len(data)]:
        chunks.append(data[last:cut])
        last = cut
    return chunks


class HostileSocket:
    """Syscall shim: injects EINTR and partial writes around a real socket.

    ``sendmsg`` may raise :class:`InterruptedError` or truncate the iovec
    to an arbitrary byte prefix before handing it to the kernel; ``recv``
    may raise :class:`InterruptedError`.  Everything else passes through.
    """

    def __init__(self, real, rng):
        self._real = real
        self._rng = rng

    def sendmsg(self, iov):
        roll = self._rng.random()
        if roll < 0.25:
            raise InterruptedError(4, "sendmsg interrupted")
        total = sum(len(c) for c in iov)
        if roll < 0.6 and total > 1:
            cap = self._rng.randrange(1, total)
            clipped, left = [], cap
            for chunk in iov:
                part = chunk[:left]
                clipped.append(part)
                left -= len(part)
                if left == 0:
                    break
            return self._real.sendmsg(clipped)
        return self._real.sendmsg(iov)

    def recv(self, n):
        if self._rng.random() < 0.25:
            raise InterruptedError(4, "recv interrupted")
        return self._real.recv(n)

    def __getattr__(self, name):
        return getattr(self._real, name)


@contextmanager
def socket_pair_on_reactor():
    """A fresh reactor and a socketpair transport on it, torn down on exit.

    Hypothesis examples cannot share pytest's function-scoped fixtures, so
    each example opens its own pair here.  On exit both halves are closed
    and the reactor turns until each closed socket has reaped its peer's
    EOF before it is closed, as the ``closing`` fixture does, so no fd is
    left for the garbage collector.
    """
    reactor = Reactor()
    pair = make_socket_transport_pair(reactor.add_scheduler(Scheduler()))
    try:
        yield reactor, pair
    finally:
        pair.a.close()
        pair.b.close()
        reactor.run_until_idle()
        reactor.close()
