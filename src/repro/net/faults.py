"""Deterministic fault injection for the transport stack.

PR 6 proved the socket pumps against a hand-rolled "hostile kernel" shim
that lived inside one property test.  This module ships that idea as a
first-class subsystem, usable from tests, benchmarks, and chaos drills:

* :class:`FaultPlan` — a seeded, declarative schedule of misbehaviour:
  frame-level fault rates (drop / duplicate / delay / truncate) and exact
  byte offsets at which syscalls fail with a chosen errno.
* :class:`FaultyTransport` — wraps any :class:`~repro.net.transport.
  Transport` and applies the plan's frame faults to ``send``; can also
  stall the link for T virtual seconds (frames queue, then flush in
  order).
* :class:`FaultySocket` — wraps a real socket so a
  :class:`~repro.net.transport.SocketTransport` experiences EINTR /
  EAGAIN / ECONNRESET / partial writes exactly where the plan says.
* :class:`FaultInjector` — reactor-level faults: RST a live transport,
  partition a whole home (every network fd it owns goes deaf while its
  device legs stay live; its clock keeps running), crash a home inside
  its own event loop.

Everything is driven by explicit seeds and virtual-time schedulers, so a
chaos run replays byte-for-byte: the same plan against the same fleet
produces the same fault sequence, the same recoveries, the same bench
numbers.

A word on what is safe to inject where: frame drops/duplicates/delays
assume the wrapped channel carries *self-delimiting* frames (the framed
device legs, where every send is one length-prefixed message).  On a
device leg, wrap the device side (``pair.a``), so the faults hit the
device -> proxy events, each of which stands alone.  The proxy -> device
direction carries boxes that build on the screen the device already
shows: a dropped or reordered box leaves stale pixels until something
repaints them, so frame faults stay off that direction.  The raw UIP
byte stream is not self-delimiting — dropping bytes from it desyncs
the decoder permanently, which is exactly what ``truncate`` is for when
corruption-robustness is the point.  Syscall faults (:class:`FaultySocket`)
are always safe: they model the kernel, not the wire, and the pumps must
mask them.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.net.transport import Payload, SocketTransport, Transport, as_chunks
from repro.util.errors import TransportError
from repro.util.scheduler import Scheduler

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultySocket",
    "FaultyTransport",
    "inject_socket_faults",
]


@dataclass
class FaultPlan:
    """A declarative, seeded schedule of transport misbehaviour.

    Frame-level rates are *exclusive* probabilities (one roll per frame
    decides its fate), so ``drop + truncate + duplicate + delay`` must not
    exceed 1.0.  Syscall injections are exact one-shots: "the send syscall
    covering byte offset 4096 fails with EINTR".

    One plan may arm many wrappers; each wrapper derives its own RNG
    stream from ``(plan.seed, wrapper name)`` and consumes its own copy of
    the syscall schedule, so wrappers never perturb each other and a
    wrapper's fault sequence is a pure function of the plan and its name.
    """

    seed: int = 0
    #: Probability a frame silently vanishes.
    drop: float = 0.0
    #: Probability a frame is sent twice back-to-back.
    duplicate: float = 0.0
    #: Probability a frame is held for :attr:`delay_s` before sending.
    delay: float = 0.0
    #: Virtual seconds a delayed frame is held.
    delay_s: float = 0.05
    #: Probability a frame is cut to a strict prefix (corruption model).
    truncate: float = 0.0
    #: Probability a ``sendmsg`` accepts only a prefix of the iovec
    #: (partial write — the pumps must resume from the split point).
    partial: float = 0.0
    #: One-shot syscall failures: (side, byte offset, errno).  ``side`` is
    #: ``"send"`` or ``"recv"``; the offset counts cumulative bytes moved
    #: through the wrapped socket in that direction.
    syscall_faults: List[Tuple[str, int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        total = self.drop + self.duplicate + self.delay + self.truncate
        if total > 1.0:
            raise TransportError(
                f"frame fault rates sum to {total}; they are exclusive "
                "outcomes of one roll and must sum to <= 1.0")
        for rate in (self.drop, self.duplicate, self.delay, self.truncate,
                     self.partial):
            if not 0.0 <= rate <= 1.0:
                raise TransportError(f"fault rate {rate} outside [0, 1]")

    def errno_at(self, offset: int, err: int,
                 side: str = "send") -> "FaultPlan":
        """Schedule the syscall covering byte ``offset`` (cumulative, per
        direction) to fail once with ``err``.  Returns ``self`` so plans
        read as builder chains."""
        if side not in ("send", "recv"):
            raise TransportError(f"side must be 'send' or 'recv', "
                                 f"got {side!r}")
        self.syscall_faults.append((side, offset, err))
        return self

    def rng_for(self, name: str) -> random.Random:
        """The wrapper-private RNG stream for ``name``."""
        return random.Random(repr((self.seed, name)))

    def fate(self, rng: random.Random) -> str:
        """One frame's outcome from exactly one draw of ``rng``.

        Returns ``"drop"``, ``"truncate"``, ``"duplicate"``, ``"delay"``
        (the exclusive rate slices of [0, 1), in that order) or
        ``"pass"``.
        """
        roll = rng.random()
        for outcome in ("drop", "truncate", "duplicate", "delay"):
            rate = getattr(self, outcome)
            if roll < rate:
                return outcome
            roll -= rate
        return "pass"


class FaultyTransport:
    """A :class:`Transport` wrapper that applies a plan's frame faults.

    Pure delegation, not inheritance: credit accounting, stats, and
    callbacks all live in the wrapped transport (wrapping must not
    double-count), this class only intercepts ``send``.  It therefore
    quacks like a Transport everywhere the stack cares — ``on_receive`` /
    ``on_close`` / ``on_writable`` assignments pass straight through.

    ``stall(T)`` models a frozen link: frames queue here (not in the
    transport) and flush in order when the stall lifts — one-shot timers
    only, so reactor ``run_until_idle`` still terminates.
    """

    def __init__(self, inner: Transport, plan: FaultPlan,
                 scheduler: Scheduler, name: Optional[str] = None) -> None:
        self.inner = inner
        self.plan = plan
        self._scheduler = scheduler
        self.fault_name = name if name is not None else inner.name
        self._rng = plan.rng_for(self.fault_name)
        self._stalled = False
        self._stall_buffer: list = []
        # chaos accounting (bench_resilience reads these)
        self.frames_dropped = 0
        self.frames_duplicated = 0
        self.frames_delayed = 0
        self.frames_truncated = 0
        self.frames_stalled = 0
        self.frames_passed = 0

    # -- the faulted send path ----------------------------------------------

    def send(self, data: Payload) -> None:
        if self._stalled:
            chunks, _ = as_chunks(data)
            self._stall_buffer.append(chunks)
            self.frames_stalled += 1
            return
        chunks, total = as_chunks(data)
        fate = self.plan.fate(self._rng)
        if fate == "drop":
            self.frames_dropped += 1
        elif fate == "truncate" and total > 1:
            cut = self._rng.randrange(1, total)
            kept: list[bytes] = []
            for chunk in chunks:
                if cut <= 0:
                    break
                kept.append(chunk[:cut])
                cut -= len(chunk)
            self.frames_truncated += 1
            self.inner.send(kept)
        elif fate == "duplicate":
            self.frames_duplicated += 1
            self.inner.send(chunks)
            self.inner.send(chunks)
        elif fate == "delay":
            self.frames_delayed += 1
            self._scheduler.call_later(self.plan.delay_s, self._send_late,
                                       chunks)
        else:  # passes, as does a frame too short to cut
            self.frames_passed += 1
            self.inner.send(chunks)

    def _send_late(self, chunks: list) -> None:
        if self.inner.is_open:
            self.inner.send(chunks)

    # -- stalls ---------------------------------------------------------------

    @property
    def stalled(self) -> bool:
        return self._stalled

    def stall(self, duration_s: Optional[float] = None) -> None:
        """Freeze the link: sends queue here until :meth:`unstall` (or for
        ``duration_s`` virtual seconds if given)."""
        self._stalled = True
        if duration_s is not None:
            self._scheduler.call_later(duration_s, self.unstall)

    def unstall(self) -> None:
        if not self._stalled:
            return
        self._stalled = False
        buffered, self._stall_buffer = self._stall_buffer, []
        for chunks in buffered:
            if self.inner.is_open:
                self.inner.send(chunks)

    # -- transparent delegation ----------------------------------------------

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def is_open(self) -> bool:
        return self.inner.is_open

    @property
    def writable(self) -> bool:
        return self.inner.writable

    @property
    def queued_bytes(self) -> int:
        return self.inner.queued_bytes

    @property
    def credit_limit(self) -> int:
        return self.inner.credit_limit

    @property
    def stats(self):
        return self.inner.stats

    @property
    def on_receive(self):
        return self.inner.on_receive

    @on_receive.setter
    def on_receive(self, callback) -> None:
        self.inner.on_receive = callback

    @property
    def on_close(self):
        return self.inner.on_close

    @on_close.setter
    def on_close(self, callback) -> None:
        self.inner.on_close = callback

    @property
    def on_writable(self):
        return self.inner.on_writable

    @on_writable.setter
    def on_writable(self, callback) -> None:
        self.inner.on_writable = callback

    def close(self) -> None:
        self.inner.close()

    def abort(self) -> None:
        self.inner.abort()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultyTransport {self.fault_name!r} over {self.inner!r} "
                f"dropped={self.frames_dropped} stalled={self._stalled}>")


class FaultySocket:
    """A socket wrapper that fails syscalls exactly where the plan says.

    Wraps a real socket object; ``sendmsg``/``recv`` consult the plan's
    one-shot syscall schedule (by cumulative byte offset, per direction)
    and the seeded partial-write rate.  Everything else passes through
    via ``__getattr__``, so a :class:`SocketTransport` can't tell the
    difference — which is the point: the pumps must mask EINTR, resume
    partial writes from the split point, and surface ECONNRESET as a
    clean ``on_close``.
    """

    def __init__(self, sock, plan: FaultPlan, name: str = "sock") -> None:
        self._sock = sock
        self._plan = plan
        self._rng = plan.rng_for(name)
        # private copy: one plan may arm many sockets independently
        self._send_faults = sorted(
            [(off, err) for side, off, err in plan.syscall_faults
             if side == "send"])
        self._recv_faults = sorted(
            [(off, err) for side, off, err in plan.syscall_faults
             if side == "recv"])
        self.sent_bytes = 0
        self.received_bytes = 0
        self.faults_fired = 0

    def _maybe_fail(self, faults: list, offset: int) -> None:
        if faults and faults[0][0] <= offset:
            _, err = faults.pop(0)
            self.faults_fired += 1
            # OSError's errno-based __new__ picks the right subclass:
            # EINTR -> InterruptedError, EAGAIN -> BlockingIOError,
            # ECONNRESET -> ConnectionResetError, ...
            raise OSError(err, os.strerror(err))

    def sendmsg(self, buffers):
        self._maybe_fail(self._send_faults, self.sent_bytes)
        buffers = list(buffers)
        if self._plan.partial and self._rng.random() < self._plan.partial:
            total = sum(len(b) for b in buffers)
            if total > 1:
                cap = self._rng.randrange(1, total)
                clipped: list = []
                for buf in buffers:
                    if cap <= 0:
                        break
                    clipped.append(buf[:cap])
                    cap -= len(buf)
                buffers = clipped
        sent = self._sock.sendmsg(buffers)
        self.sent_bytes += sent
        return sent

    def recv(self, nbytes, *args):
        self._maybe_fail(self._recv_faults, self.received_bytes)
        data = self._sock.recv(nbytes, *args)
        self.received_bytes += len(data)
        return data

    def __getattr__(self, attr):
        return getattr(self._sock, attr)


def inject_socket_faults(transport: SocketTransport, plan: FaultPlan,
                         name: Optional[str] = None) -> FaultySocket:
    """Arm a live :class:`SocketTransport` with the plan's syscall faults.

    Swaps the transport's socket for a :class:`FaultySocket` wrapper in
    place and returns the wrapper (for its fault counters).  Do this
    before traffic flows — offsets count from the moment of injection.
    """
    wrapped = FaultySocket(transport._sock, plan,
                           name if name is not None else transport.name)
    transport._sock = wrapped  # type: ignore[assignment]
    return wrapped


class FaultInjector:
    """Reactor-level faults: resets, link stalls, partitions, crashes.

    Stateless beyond an action log — each method takes its target
    explicitly, so one injector can torment a whole fleet.  Timed
    un-faults (heal after T, unstall after T) are one-shot events on the
    *target's own* scheduler: they replay deterministically in virtual
    time and never keep an idle reactor spinning.
    """

    def __init__(self) -> None:
        #: (action, target name) trail, in injection order.
        self.log: list[Tuple[str, str]] = []

    # -- transport-level ------------------------------------------------------

    def rst(self, transport) -> None:
        """Hard-reset a live transport (``abort``): in-flight data dies,
        both sides observe a connection reset / abrupt close."""
        self.log.append(("rst", getattr(transport, "name", "?")))
        transport.abort()

    def stall_link(self, faulty: FaultyTransport, seconds: float) -> None:
        """Freeze a wrapped link for ``seconds`` of its virtual time."""
        self.log.append(("stall", faulty.fault_name))
        faulty.stall(seconds)

    # -- member-level ---------------------------------------------------------

    def partition(self, reactor, member, seconds: Optional[float] = None,
                  scheduler: Optional[Scheduler] = None) -> None:
        """Cut a reactor member off the network (see
        :meth:`~repro.net.reactor.Reactor.partition_member`); heal after
        ``seconds`` on the member's own clock if given."""
        self.log.append(("partition", member.name))
        reactor.partition_member(member)
        if seconds is not None:
            clock = scheduler if scheduler is not None else member.scheduler
            clock.call_later(seconds, self.heal, reactor, member)

    def heal(self, reactor, member) -> None:
        self.log.append(("heal", member.name))
        reactor.heal_member(member)

    def crash(self, scheduler: Scheduler, reason: str = "injected crash",
              exc_type: type = RuntimeError) -> None:
        """Detonate inside the target's own event loop: the next slice of
        its scheduler raises, which is what quarantine containment (and
        fleet supervision above it) are built to absorb."""
        self.log.append(("crash", reason))

        def _boom() -> None:
            raise exc_type(reason)

        scheduler.call_soon(_boom)

    # -- home-level conveniences ----------------------------------------------

    def partition_home(self, home, seconds: Optional[float] = None) -> None:
        """Partition a :class:`~repro.home.Home` (TCP mode) by member."""
        self.partition(home.reactor, home.reactor_member, seconds,
                       scheduler=home.scheduler)

    def crash_home(self, home, reason: str = "injected crash") -> None:
        self.crash(home.scheduler, reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultInjector actions={len(self.log)}>"
