"""Scheduled duplex byte pipes: the simulated Transport implementation.

:func:`make_pipe` returns two :class:`Endpoint` halves of a duplex channel.
Bytes written to one half arrive at the other after the link-profile delay,
in FIFO order (a later send never overtakes an earlier one, even with
jitter).  Delivery happens as scheduler events, so nothing moves until the
simulation runs.

:class:`Endpoint` implements the :class:`~repro.net.transport.Transport`
interface: sends accept chunk lists (scatter-gather — the chunks cross the
simulated wire without ever being concatenated), and bytes scheduled but
not yet delivered count against the transport's credit, driving the
:attr:`~repro.net.transport.Transport.writable` backpressure signal.

Endpoints carry byte counters used by the bandwidth experiments (E7).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.net.link import LOOPBACK, LinkProfile
from repro.net.transport import Transport
from repro.util.errors import TransportClosed
from repro.util.scheduler import Scheduler


class Endpoint(Transport):
    """One half of a duplex pipe.

    Attributes:
        on_receive: callback ``(data: bytes) -> None`` invoked at delivery
            time.  If unset when data arrives, the data is buffered and
            flushed to the callback once it is assigned.  A chunk-list
            send is delivered as one scheduler event but one callback per
            chunk — exactly how a real byte stream may re-segment, which
            the stream decoders are split-point invariant to.
        on_close: optional callback invoked once when the peer closes.
        on_writable: optional callback invoked when the scheduled-but-
            undelivered backlog drains below the credit low watermark.
    """

    def __init__(self, scheduler: Scheduler, profile: LinkProfile, name: str,
                 rng: random.Random) -> None:
        super().__init__(profile, name)
        self._scheduler = scheduler
        self._rng = rng
        self._peer: Optional["Endpoint"] = None
        self._link_free_at = 0.0
        self._last_arrival = 0.0
        # Scheduled-but-undelivered transmissions, so abort() can yank
        # them off the wire (a reset loses in-flight data, close doesn't).
        self._in_flight: dict[int, object] = {}
        self._next_flight = 0

    # -- wiring -------------------------------------------------------------

    def _attach(self, peer: "Endpoint") -> None:
        self._peer = peer

    # -- sending ------------------------------------------------------------

    def _write(self, chunks: list[bytes], total: int) -> None:
        """Schedule delivery of the chunks after the link delay."""
        if self._peer is None:
            raise TransportClosed(f"endpoint {self.name} has no peer")
        if self._profile.sample_loss(self._rng):
            self.stats.messages_dropped += 1
            return
        now = self._scheduler.now()
        start = max(now, self._link_free_at)
        tx_done = start + self._profile.transmission_time(total)
        self._link_free_at = tx_done
        arrival = tx_done + self._profile.latency_s
        arrival += self._profile.sample_jitter(self._rng)
        # FIFO guarantee: never deliver before an earlier message.
        arrival = max(arrival, self._last_arrival)
        self._last_arrival = arrival
        self._credit_charge(total)
        flight = self._next_flight
        self._next_flight += 1
        self._in_flight[flight] = self._scheduler.call_at(
            arrival, self._deliver, chunks, total, flight)

    def _deliver(self, chunks: list[bytes], total: int,
                 flight: int) -> None:
        self._in_flight.pop(flight, None)
        peer = self._peer
        if peer is not None and peer._open:
            peer.stats.bytes_received += total
            for chunk in chunks:
                peer._dispatch(chunk)
        # Credit returns even when the peer vanished mid-flight: the bytes
        # have left this sender's queue either way.
        self._credit_release(total)

    # -- closing ------------------------------------------------------------

    def abort(self) -> None:
        """Reset the whole pipe: both halves die *now*, in-flight data is
        lost in both directions, and all charged credit comes back.

        This is the simulated-link equivalent of a TCP RST — the recovery
        machinery (session and device-leg redial) sees the same
        abrupt ``on_close`` a kernel reset would produce.
        """
        for half in (self, self._peer):
            if half is None or not half._open:
                continue
            half._open = False
            for event in half._in_flight.values():
                event.cancel()
            half._in_flight.clear()
            half._credit_release(half._queued)
            if half.on_close is not None:
                half._scheduler.call_soon(half.on_close)

    def close(self) -> None:
        """Close this half; the peer learns of it after in-flight data.

        TCP-like semantics: bytes already "on the wire" toward the peer
        still arrive (a final status message survives an immediate close);
        the peer's ``on_close`` fires only after the last of them.  Data in
        flight *toward* the closing side is discarded.
        """
        if not self._open:
            return
        self._open = False
        if self.on_close is not None:
            self._scheduler.call_soon(self.on_close)
        peer = self._peer
        if peer is not None and peer._open:
            when = max(self._scheduler.now(), self._last_arrival)
            self._scheduler.call_at(when, self._close_peer)

    def _close_peer(self) -> None:
        peer = self._peer
        if peer is None or not peer._open:
            return
        peer._open = False
        if peer.on_close is not None:
            peer.on_close()


@dataclass
class Pipe:
    """A duplex channel: two attached endpoints plus the shared profile."""

    a: Endpoint
    b: Endpoint
    profile: LinkProfile = field(default=LOOPBACK)

    def close(self) -> None:
        self.a.close()


def make_pipe(
    scheduler: Scheduler,
    profile: LinkProfile = LOOPBACK,
    name: str = "pipe",
    seed: int = 0,
) -> Pipe:
    """Create a duplex pipe; both directions share one link profile.

    ``seed`` controls jitter/loss sampling so traces are reproducible.
    """
    rng = random.Random((name, seed).__repr__())
    a = Endpoint(scheduler, profile, f"{name}.a", rng)
    b = Endpoint(scheduler, profile, f"{name}.b", rng)
    a._attach(b)
    b._attach(a)
    return Pipe(a=a, b=b, profile=profile)
