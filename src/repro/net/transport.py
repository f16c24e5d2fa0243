"""The Transport abstraction: byte channels with credit-based flow control.

Everything above this layer (UIP sessions, the proxy, device links) talks
to a :class:`Transport`: an ordered, reliable-unless-lossy byte channel
with

* **scatter-gather sends** — :meth:`Transport.send` accepts a single
  bytes-like *or* a list of chunks (sendmsg-style vectored writes), so a
  frame assembled as parts is never concatenated just to cross the wire;
* **credit-based flow control** — each transport derives a high/low
  watermark pair from its :class:`~repro.net.link.LinkProfile`'s
  bandwidth-delay product.  Bytes accepted but not yet drained count
  against the credit; :attr:`Transport.writable` goes false at the high
  watermark and the :attr:`Transport.on_writable` callback fires once the
  backlog drains below the low watermark.  Senders that honour the signal
  (the UniInt server sessions, the proxy's device push path) coalesce
  their pending work instead of queueing stale payloads.

Two implementations exist:

* :class:`~repro.net.pipe.Endpoint` — the virtual-time simulated pipe
  (:func:`~repro.net.pipe.make_pipe`), where "queued" means scheduled but
  not yet delivered on the virtual clock;
* :class:`SocketTransport` — a real kernel byte stream, either an
  in-process ``socket.socketpair`` (:func:`make_socket_transport_pair`)
  or a TCP connection, pumped by I/O readiness on a
  :class:`~repro.net.reactor.Reactor`.  Writes use ``sendmsg`` with the
  chunk list as the iovec; "queued" means written-but-not-yet-read-by-
  the-peer (plus any userspace outbox backlog when the kernel buffer is
  full).
"""

from __future__ import annotations

import socket
import struct
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.net.link import LOOPBACK, LinkProfile
from repro.util.errors import TransportClosed, TransportError
from repro.util.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.reactor import Reactor, ReactorMember

#: What :meth:`Transport.send` accepts: one bytes-like or a chunk list.
Payload = Union[bytes, bytearray, memoryview, Sequence[bytes]]

#: Credit floor: even a 9600 bps cellular link may hold one small update.
MIN_CREDIT = 4096


@dataclass
class TransportStats:
    """Per-transport traffic counters: bytes each way, the messages a
    lossy link dropped, and the deepest the send queue got."""

    bytes_sent: int = 0
    bytes_received: int = 0
    messages_dropped: int = 0
    #: High-water mark of :attr:`Transport.queued_bytes` over the
    #: transport's lifetime — the backpressure experiments' key number.
    peak_queued_bytes: int = 0

    def reset(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_dropped = 0
        self.peak_queued_bytes = 0


def as_chunks(data: Payload) -> tuple[list[bytes], int]:
    """Normalise a payload into immutable chunks plus the total length.

    Mutable buffers (``bytearray``/``memoryview``) are copied once here:
    delivery is deferred, so the sender must be free to reuse them.
    ``bytes`` chunks pass through untouched, so payloads served from an
    encode cache are never copied.
    """
    if isinstance(data, bytes):
        return [data], len(data)
    if isinstance(data, (bytearray, memoryview)):
        chunk = bytes(data)
        return [chunk], len(chunk)
    if isinstance(data, (list, tuple)):
        chunks: list[bytes] = []
        total = 0
        for part in data:
            if not isinstance(part, (bytes, bytearray, memoryview)):
                raise TypeError(
                    f"payload chunk must be bytes-like, got {type(part)!r}")
            part = part if isinstance(part, bytes) else bytes(part)
            chunks.append(part)
            total += len(part)
        return chunks, total
    raise TypeError(f"payload must be bytes-like or a chunk list, "
                    f"got {type(data)!r}")


#: A link's RTT is taken as at least this when sizing credit: a fast LAN
#: with a microsecond RTT must still absorb one frame burst (~a
#: scheduling quantum of line rate) without stalling the sender.
MIN_CREDIT_RTT_S = 0.010


def credit_watermarks(profile: LinkProfile) -> tuple[int, int]:
    """(high, low) credit watermarks for a link.

    The high watermark is twice the link's bandwidth-delay product —
    round trip (floored at :data:`MIN_CREDIT_RTT_S`) plus jitter — and
    never below :data:`MIN_CREDIT`: enough in-flight data to keep the
    link busy and let a fast link swallow a whole frame burst, little
    enough that a slow link's queued update is never more than ~one RTT
    stale.  The low watermark is half the high, giving the writable
    signal hysteresis.
    """
    rtt = max(2.0 * profile.latency_s + profile.jitter_s, MIN_CREDIT_RTT_S)
    bdp = profile.bandwidth_bps / 8.0 * rtt
    high = max(MIN_CREDIT, int(2.0 * bdp))
    return high, max(1, high // 2)


class Transport:
    """Base class: credit accounting plus receive-side buffering.

    Subclasses implement :meth:`_write` (queue normalised chunks for
    delivery), :meth:`close`, and keep :attr:`is_open` truthful; they call
    :meth:`_credit_charge` when bytes enter their queue and
    :meth:`_credit_release` when the peer has them.
    """

    def __init__(self, profile: LinkProfile, name: str) -> None:
        self._profile = profile
        self.name = name
        self.stats = TransportStats()
        self._open = True
        self._queued = 0
        self._high_water, self._low_water = credit_watermarks(profile)
        self._saturated = False
        self._rx_pending: list[bytes] = []
        self._on_receive: Optional[Callable[[bytes], None]] = None
        #: Invoked once when the peer closes (after in-flight data).
        self.on_close: Optional[Callable[[], None]] = None
        #: Invoked when the send queue drains below the low watermark
        #: after having saturated the high one.
        self.on_writable: Optional[Callable[[], None]] = None

    # -- interface ----------------------------------------------------------

    @property
    def is_open(self) -> bool:
        return self._open

    def send(self, data: Payload) -> None:
        """Queue ``data`` (one bytes-like or a chunk list) for the peer."""
        if not self._open:
            raise TransportClosed(f"transport {self.name} is closed")
        chunks, total = as_chunks(data)
        self.stats.bytes_sent += total
        self._write(chunks, total)

    def close(self) -> None:
        raise NotImplementedError

    def abort(self) -> None:
        """Hard-kill the channel, RST-style: in-flight data is lost.

        Unlike :meth:`close` (graceful: queued bytes still reach the peer)
        an abort models a connection reset — whatever was queued dies with
        the channel and all charged credit returns immediately, so an
        upstream backpressure-honouring sender is never wedged on bytes
        that can no longer drain.  The fault injector's ``rst`` rides this.
        """
        raise NotImplementedError

    def _write(self, chunks: list[bytes], total: int) -> None:
        raise NotImplementedError

    # -- credit-based flow control -------------------------------------------

    @property
    def queued_bytes(self) -> int:
        """Bytes accepted by :meth:`send` but not yet with the peer."""
        return self._queued

    @property
    def credit_limit(self) -> int:
        """The high watermark: :attr:`writable` is false at/above it."""
        return self._high_water

    @property
    def writable(self) -> bool:
        """True while the transport will accept more data without queueing
        past its credit.  Sends are never *refused* — a send while
        unwritable simply deepens the queue — so flow control is
        cooperative: well-behaved senders check and coalesce instead."""
        return self._queued < self._high_water

    def _credit_charge(self, nbytes: int) -> None:
        self._queued += nbytes
        if self._queued > self.stats.peak_queued_bytes:
            self.stats.peak_queued_bytes = self._queued
        if self._queued >= self._high_water:
            self._saturated = True

    def _credit_release(self, nbytes: int) -> None:
        self._queued -= nbytes
        if self._queued < 0:  # pragma: no cover - accounting bug guard
            self._queued = 0
        if (self._saturated and self._queued <= self._low_water):
            self._saturated = False
            if self.on_writable is not None and self._open:
                self.on_writable()

    # -- receive-side buffering -----------------------------------------------

    @property
    def on_receive(self) -> Optional[Callable[[bytes], None]]:
        return self._on_receive

    @on_receive.setter
    def on_receive(self, callback: Optional[Callable[[bytes], None]]) -> None:
        self._on_receive = callback
        if callback is not None and self._rx_pending:
            pending, self._rx_pending = self._rx_pending, []
            for chunk in pending:
                callback(chunk)

    def _dispatch(self, chunk: bytes) -> None:
        """Hand one received chunk to the callback (or buffer it)."""
        if self._on_receive is not None:
            self._on_receive(chunk)
        else:
            self._rx_pending.append(chunk)


class SocketTransport(Transport):
    """One end of a real kernel byte stream (socketpair or TCP).

    Every socket rides a :class:`~repro.net.reactor.Reactor`: the
    constructor registers it, and its pumps run on I/O readiness, so the
    virtual-time stack drives real sockets without threads.  A send
    writes what the kernel buffer takes (via ``sendmsg`` with the chunk
    list as the iovec) and parks the rest in a userspace outbox.  Read
    interest is permanent while open; write interest is armed exactly
    while the outbox is non-empty (or a connect is still in flight) and
    disarmed once drained, so a full kernel buffer is an EPOLLOUT wait,
    never a stall.  Both are level-triggered: a pump that stops early
    (EINTR, EAGAIN, a spent receive budget) is polled again next turn.

    Unlike the simulated pipe there is no link timing model — bytes move
    at whatever pace the reactor turns — but the credit watermarks still
    come from the declared :class:`LinkProfile`, so backpressure
    behaviour matches a real deployment of that bearer.  With an
    in-process peer, credit covers written-but-not-yet-read-by-the-peer
    bytes; without one (a real TCP link) the kernel socket buffer *is*
    the wire, so credit covers the userspace outbox and is released as
    the kernel accepts bytes.
    """

    #: Cap on iovec entries per sendmsg call (IOV_MAX is much larger, but
    #: short batches keep partial-write bookkeeping cheap).
    _MAX_IOV = 64

    #: Bytes one receive pump turn may process before yielding.  Under a
    #: many-home fleet an unbounded drain would hand one busy link the
    #: whole turn; capping it lets every other member's events interleave.
    RECV_BUDGET = 4 * 65536

    def __init__(self, scheduler: Scheduler, sock: socket.socket,
                 profile: LinkProfile = LOOPBACK,
                 name: str = "socket", *,
                 reactor: "Reactor",
                 member: Optional["ReactorMember"] = None,
                 connecting: bool = False) -> None:
        """Register ``sock`` with ``reactor``, attributing callback errors
        to ``member`` for per-home containment.  ``scheduler`` runs the
        deferred ``on_close`` callbacks."""
        super().__init__(profile, name)
        sock.setblocking(False)
        self._scheduler = scheduler
        self._sock = sock
        self._peer: Optional["SocketTransport"] = None
        self._outbox: deque[memoryview] = deque()
        self._wr_shutdown = False
        #: Non-blocking connect still in flight (TCP client legs): sends
        #: wait in the outbox until EPOLLOUT confirms the connect.
        self._connecting = connecting
        self._handle = reactor.register(
            sock, on_readable=self._pump_recv,
            on_writable=self._on_io_writable, member=member)
        if connecting:
            self._handle.set_write_interest(True)

    def _attach(self, peer: "SocketTransport") -> None:
        self._peer = peer

    @property
    def local_port(self) -> int:
        """The port this end's TCP socket is bound to: for a client leg,
        the peer port its listener's accept reports."""
        return self._sock.getsockname()[1]

    def _release(self) -> None:
        """Leave the reactor and close the fd (idempotent)."""
        self._handle.unregister()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def _on_io_writable(self) -> None:
        if self._connecting:
            error = self._sock.getsockopt(socket.SOL_SOCKET,
                                          socket.SO_ERROR)
            if error:
                self._on_reset()
                return
            self._connecting = False
        self._pump_send()

    # -- sending ------------------------------------------------------------

    def _write(self, chunks: list[bytes], total: int) -> None:
        self._credit_charge(total)
        self._outbox.extend(memoryview(c) for c in chunks if len(c))
        self._pump_send()

    def _pump_send(self) -> None:
        if self._connecting:
            # nowhere to write yet: bytes wait in the outbox, and the
            # write interest armed at construction re-enters here once
            # the connect completes
            return
        accepted = 0
        while self._outbox:
            iov = []
            for chunk in self._outbox:
                iov.append(chunk)
                if len(iov) >= self._MAX_IOV:
                    break
            try:
                sent = self._sock.sendmsg(iov)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._on_reset()
                return
            accepted += sent
            while sent and self._outbox:
                head = self._outbox[0]
                if sent >= len(head):
                    sent -= len(head)
                    self._outbox.popleft()
                else:
                    self._outbox[0] = head[sent:]
                    sent = 0
        if accepted and self._peer is None:
            # no in-process peer will ever acknowledge these bytes: once
            # the kernel accepts them they have left our queue (the TCP
            # socket buffer is the wire)
            self._credit_release(accepted)
        # write interest tracks the outbox: a flush cut short by a full
        # buffer, EAGAIN or EINTR resumes on EPOLLOUT, never waiting for
        # an unrelated write to come along
        self._handle.set_write_interest(bool(self._outbox))
        if not self._outbox and self._wr_shutdown:
            try:
                self._sock.shutdown(socket.SHUT_WR)
            except OSError:  # pragma: no cover - already reset
                pass

    # -- receiving ------------------------------------------------------------

    def _pump_recv(self) -> None:
        if not self._open:
            self._reap_eof()
            return
        budget = self.RECV_BUDGET
        while budget > 0:
            try:
                data = self._sock.recv(min(65536, budget))
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                data = b""
            if not data:
                self._on_eof()
                return
            budget -= len(data)
            self.stats.bytes_received += len(data)
            if self._peer is not None:
                self._peer._credit_release(len(data))
            self._dispatch(data)
        # bytes left by EINTR or a spent budget stay readable: the
        # level-triggered poll resumes the drain next turn, after every
        # other link has had its go

    def _reap_eof(self) -> None:
        """Closed-side drain: discard the remote's last bytes and release
        the fd once its EOF arrives."""
        while True:
            try:
                data = self._sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                data = b""
            if not data:
                self._release()
                return

    def _on_eof(self) -> None:
        if not self._open:
            return
        self._open = False
        # whatever we still owed the peer (outbox or kernel in-flight)
        # dies with this close: return the charged credit so an upstream
        # backpressure-honouring sender is not wedged forever
        self._outbox.clear()
        self._credit_release(self._queued)
        self._release()
        if self.on_close is not None:
            self.on_close()

    def _on_reset(self) -> None:
        """The peer's socket is gone (hard close, EPIPE/ECONNRESET).

        In-flight data is lost and nothing will ever drain it: return
        *all* charged credit (not just the userspace outbox — bytes in
        the kernel buffer are equally undeliverable) and close this side,
        otherwise a backpressure-honouring sender would wait forever on
        credit that cannot come back.  The peer learns of the reset from
        its own readiness poll.
        """
        self._outbox.clear()
        was_open = self._open
        self._open = False
        self._credit_release(self._queued)
        self._release()
        if was_open and self.on_close is not None:
            self._scheduler.call_soon(self.on_close)

    # -- closing ------------------------------------------------------------

    def abort(self) -> None:
        """RST this end: drop the outbox, kill the socket, free credit.

        The peer observes a genuine connection reset (or EOF) from the
        kernel — exactly what a crashed client or yanked cable produces —
        so every recovery path downstream exercises the same code as a
        real-world reset.
        """
        if not self._open:
            return
        # SO_LINGER(0) turns close() into a TCP RST on connected sockets;
        # on a socketpair the peer simply sees EOF, which is equally fatal
        # for a framed session mid-message.
        try:
            self._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0))
        except OSError:  # pragma: no cover - platform without SO_LINGER
            pass
        self._on_reset()

    def close(self) -> None:
        """Close this half; outbox bytes still reach the peer first.

        Mirrors :meth:`Endpoint.close`'s TCP-like semantics: data already
        queued toward the peer is flushed, then the write side shuts down
        so the peer's pump sees EOF and fires its ``on_close``.  The fd
        stays registered until the remote's EOF arrives back (so the
        final flush is never cut short by a reset), then is released.
        """
        if not self._open:
            return
        self._open = False
        self._wr_shutdown = True
        if self.on_close is not None:
            self._scheduler.call_soon(self.on_close)
        if self._outbox:
            # flush what the kernel takes now; EPOLLOUT delivers the
            # rest, and _pump_send issues SHUT_WR once the outbox empties
            self._pump_send()
        else:
            try:
                self._sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass


@dataclass
class SocketPair:
    """Both ends of one in-process socketpair transport."""

    a: SocketTransport
    b: SocketTransport

    def close(self) -> None:
        self.a.close()


def make_socket_transport_pair(
    member: "ReactorMember",
    profile: LinkProfile = LOOPBACK,
    name: str = "socket",
) -> SocketPair:
    """An in-process duplex byte stream over a real ``socketpair``.

    Both halves register with ``member``'s reactor and serve its
    scheduler, so a fault in either half's callbacks is that member's
    fault.  Stands in for :func:`~repro.net.pipe.make_pipe` wherever the
    stack needs proving against genuine kernel byte streams (arbitrary
    chunk re-segmentation, EOF-based close) rather than the simulator's
    message-boundary-preserving delivery.
    """
    try:
        sock_a, sock_b = socket.socketpair()
    except OSError as error:  # pragma: no cover - platform without AF_UNIX
        raise TransportError(f"cannot create socketpair: {error}") from error
    a = SocketTransport(member.scheduler, sock_a, profile, f"{name}.a",
                        reactor=member.reactor, member=member)
    b = SocketTransport(member.scheduler, sock_b, profile, f"{name}.b",
                        reactor=member.reactor, member=member)
    a._attach(b)
    b._attach(a)
    return SocketPair(a=a, b=b)
