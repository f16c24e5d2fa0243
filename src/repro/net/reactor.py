"""The fleet reactor: ``selectors`` I/O readiness grafted onto the
virtual-time :class:`~repro.util.scheduler.Scheduler`.

One process, many homes.  Every :class:`Home` keeps its own deterministic
scheduler and virtual clock; the :class:`Reactor` multiplexes all of them
over one ``selectors.DefaultSelector`` (epoll on Linux) together with
every real non-blocking socket in the stack: the TCP legs that carry UIP
sessions and the in-process socketpairs that carry device legs.  A
reactor *turn* is:

1. **Scheduler slice** — every registered :class:`ReactorMember` fires up
   to its *event budget* of events already due on its own clock
   (:meth:`Scheduler.run_ready`).  The budget is the fairness mechanism:
   a home stuck in a self-perpetuating event storm burns its budget and
   yields, it cannot monopolise the turn.
2. **Readiness poll** — ``select()`` with timeout 0 while any member has
   pending events, blocking only when every scheduler is drained (the
   pure I/O wait the ROADMAP item asks for: the reactor sleeps in
   ``select`` exactly when the schedulers are idle).
3. **Clock advance** — when nothing is due *and* no fd is ready, each
   member's virtual clock jumps to its own next timed event, so link
   simulations and timers keep their virtual-time semantics at full
   machine speed instead of sleeping wall-clock.

Per-member **error containment**: an exception escaping a member's event
or socket callback quarantines that member — its events stop firing, its
handles are unregistered, the error is recorded — and the turn goes on.
One crashing home cannot take the fleet down (see
:mod:`repro.fleet`).

:class:`TcpListener` and :func:`connect_tcp` are the two ends of the real
TCP control plane: a listening socket per home whose accepted connections
become reactor-registered :class:`~repro.net.transport.SocketTransport`
instances, and non-blocking client connects for the proxies.
"""

from __future__ import annotations

import selectors
import socket
import time
import traceback
from typing import Callable, Optional

from repro.net.link import ETHERNET_100, LinkProfile
from repro.net.transport import SocketTransport
from repro.util.errors import ReactorError, TransportError
from repro.util.scheduler import Scheduler

#: Address family of in-process socketpairs: such fds never cross a
#: network, so a partition leaves them live.
_LOCAL_FAMILY = getattr(socket, "AF_UNIX", None)

#: Default per-member event budget per reactor turn.  Small enough that a
#: runaway home yields the turn quickly, large enough that a healthy
#: home's damage->composite->encode->send cascade completes in one slice.
DEFAULT_EVENT_BUDGET = 256


class ReactorMember:
    """One scheduler driven by the reactor, with isolation bookkeeping.

    A member is usually one :class:`~repro.home.Home`.  It carries the
    per-turn event budget, the quarantine flag, and the error trail; the
    reactor attributes socket callbacks to a member so a fault anywhere in
    that home's stack — event or I/O — lands on the same record.
    """

    def __init__(self, reactor: "Reactor", scheduler: Scheduler, name: str,
                 budget: int,
                 on_error: Optional[Callable[[BaseException], None]]) -> None:
        self.reactor = reactor
        self.scheduler = scheduler
        self.name = name
        self.budget = budget
        self.on_error = on_error
        #: Quarantined: events no longer fire, handles are unregistered.
        self.failed = False
        #: Wall-clock (``time.time``) moment of quarantine, None if healthy.
        self.failed_at: Optional[float] = None
        #: Every exception this member's events/callbacks raised.
        self.errors: list[BaseException] = []
        #: Formatted traceback for each entry in :attr:`errors`.
        self.tracebacks: list[str] = []
        #: Handles quarantine unregistered; their owner must still close
        #: them (see :meth:`repro.home.Home.close`).
        self.dropped: list[IOHandle] = []
        self.events_fired = 0

    @property
    def last_error(self) -> Optional[BaseException]:
        return self.errors[-1] if self.errors else None

    @property
    def last_traceback(self) -> Optional[str]:
        return self.tracebacks[-1] if self.tracebacks else None

    @property
    def partitioned(self) -> bool:
        return self.reactor.is_partitioned(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.failed:
            cause = type(self.last_error).__name__ if self.errors else "?"
            state = f"QUARANTINED({cause}) at={self.failed_at}"
        elif self.partitioned:
            state = "PARTITIONED"
        else:
            state = "ok"
        return (f"<ReactorMember {self.name!r} {state} "
                f"fired={self.events_fired}>")


class IOHandle:
    """One registered file object with mutable readiness interest.

    Interest starts as read-only (when an ``on_readable`` callback exists);
    transports arm write interest while their outbox is non-empty and
    disarm it once drained, which is what turns a full kernel buffer from
    a stall into a plain EPOLLOUT wait.
    """

    def __init__(self, reactor: "Reactor", fileobj, on_readable, on_writable,
                 member: Optional[ReactorMember]) -> None:
        self.reactor = reactor
        self.fileobj = fileobj
        self.on_readable = on_readable
        self.on_writable = on_writable
        self.member = member
        self._events = selectors.EVENT_READ if on_readable is not None else 0
        self.closed = False
        #: Suspended: interest bits are remembered but the fd is withdrawn
        #: from the selector (fault injection: a partitioned home's sockets
        #: stay open, the kernel queues, nothing is dispatched).
        self.suspended = False
        #: A network fd, which partitions cut.  An in-process socketpair
        #: (a device's bearer leg) has no network to be cut from.
        self.networked = getattr(fileobj, "family", None) != _LOCAL_FAMILY

    @property
    def events(self) -> int:
        return self._events

    @property
    def want_write(self) -> bool:
        return bool(self._events & selectors.EVENT_WRITE)

    def set_write_interest(self, want: bool) -> None:
        """Arm/disarm EPOLLOUT for this fd (idempotent)."""
        self._set(selectors.EVENT_WRITE, want)

    def _set(self, bit: int, want: bool) -> None:
        if self.closed:
            return
        events = (self._events | bit) if want else (self._events & ~bit)
        if events == self._events:
            return
        self._events = events
        if not self.suspended:
            self.reactor._modify(self)

    def suspend(self) -> None:
        """Withdraw the fd from the selector without losing interest bits.

        While suspended, ``set_*_interest`` updates are remembered but not
        applied; :meth:`resume` re-registers with whatever interest the
        owner holds by then.  This is the partition primitive: the socket
        stays open (the kernel keeps queueing), the application goes deaf.
        """
        if self.closed or self.suspended:
            return
        self.suspended = True
        self.reactor._withdraw(self)

    def resume(self) -> None:
        if self.closed or not self.suspended:
            return
        self.suspended = False
        self.reactor._modify(self)

    def unregister(self) -> None:
        """Remove this fd from the reactor (idempotent); never closes it."""
        if not self.closed:
            self.closed = True
            self.reactor._unregister(self)


class Reactor:
    """A ``selectors``-based event loop over many virtual-time schedulers.

    See the module docstring for turn anatomy.  The reactor never owns the
    sockets it polls — transports and listeners register and unregister
    themselves — but :meth:`close` tears down the selector for tests.
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._members: list[ReactorMember] = []
        self._handles: dict[int, IOHandle] = {}
        self._partitioned: set[int] = set()  # id(member)
        # reactor-wide diagnostics (bench_fleet reads these)
        self.turns = 0
        self.errors: list[tuple[Optional[str], BaseException]] = []
        self._closed = False

    # -- membership ----------------------------------------------------------

    def add_scheduler(self, scheduler: Scheduler, name: str = "member",
                      budget: int = DEFAULT_EVENT_BUDGET,
                      on_error: Optional[Callable[[BaseException], None]]
                      = None) -> ReactorMember:
        """Drive ``scheduler`` from this reactor's turns.

        ``budget`` caps events fired per turn (fairness); ``on_error`` is
        invoked (after quarantine) with any exception the member raises.
        """
        if budget < 1:
            raise ReactorError(f"event budget must be >= 1, got {budget}")
        for member in self._members:
            if member.scheduler is scheduler:
                raise ReactorError("scheduler is already a reactor member")
        member = ReactorMember(self, scheduler, name, budget, on_error)
        self._members.append(member)
        return member

    def remove_scheduler(self, member: ReactorMember) -> None:
        """Forget a member; its registered handles are unregistered too."""
        if member in self._members:
            self._members.remove(member)
        self._partitioned.discard(id(member))
        self._drop_member_handles(member)

    @property
    def failed_members(self) -> tuple[ReactorMember, ...]:
        return tuple(m for m in self._members if m.failed)

    # -- fd registration -----------------------------------------------------

    def register(self, fileobj, on_readable=None, on_writable=None,
                 member: Optional[ReactorMember] = None) -> IOHandle:
        """Watch ``fileobj`` for readiness; returns its :class:`IOHandle`.

        ``member`` attributes callback errors to that member's quarantine
        accounting (one home's socket fault is that home's fault).
        """
        if self._closed:
            raise ReactorError("reactor is closed")
        fd = fileobj.fileno()
        if fd in self._handles:
            raise ReactorError(f"fd {fd} is already registered")
        handle = IOHandle(self, fileobj, on_readable, on_writable, member)
        self._handles[fd] = handle
        if (member is not None and id(member) in self._partitioned
                and handle.networked):
            # fds born inside a partition are deaf until it heals: a
            # reconnect dialled across the cut must not sneak through.
            handle.suspended = True
        elif handle.events:
            self._selector.register(fileobj, handle.events, handle)
        return handle

    def _modify(self, handle: IOHandle) -> None:
        fd = handle.fileobj.fileno()
        registered = self._selector.get_map() or {}
        if fd in registered:
            if handle.events:
                self._selector.modify(handle.fileobj, handle.events, handle)
            else:
                self._selector.unregister(handle.fileobj)
        elif handle.events:
            self._selector.register(handle.fileobj, handle.events, handle)

    def _withdraw(self, handle: IOHandle) -> None:
        """Drop a handle from the selector, keeping it registered."""
        try:
            self._selector.unregister(handle.fileobj)
        except (KeyError, ValueError, OSError):
            pass  # zero-interest handles are not in the selector

    def _unregister(self, handle: IOHandle) -> None:
        fd = None
        for key, known in list(self._handles.items()):
            if known is handle:
                fd = key
                break
        if fd is None:
            return
        del self._handles[fd]
        try:
            self._selector.unregister(handle.fileobj)
        except (KeyError, ValueError, OSError):
            pass  # zero-interest handles are not in the selector

    def handles_of(self, member: ReactorMember) -> tuple[IOHandle, ...]:
        """Every registered handle attributed to ``member`` (teardown and
        diagnostics: a home hard-closes exactly its own fds this way)."""
        return tuple(h for h in self._handles.values()
                     if h.member is member)

    def _drop_member_handles(self, member: ReactorMember) -> None:
        for handle in self.handles_of(member):
            handle.unregister()

    @property
    def handle_count(self) -> int:
        return len(self._handles)

    # -- partitioning (fault injection) --------------------------------------

    def partition_member(self, member: ReactorMember) -> None:
        """Cut a member off the network: every network handle it owns (and
        any it opens until :meth:`heal_member`) is suspended.  Its
        scheduler keeps running — timers fire, heartbeats time out — but
        no byte crosses the cut in either direction at the application
        layer.  In-process socketpairs stay live: a device keeps talking
        to its proxy, which is how the proxy notices the dead upstream."""
        self._partitioned.add(id(member))
        for handle in self.handles_of(member):
            if handle.networked:
                handle.suspend()

    def heal_member(self, member: ReactorMember) -> None:
        """Undo :meth:`partition_member`; queued kernel bytes dispatch on
        the next turn."""
        self._partitioned.discard(id(member))
        for handle in self.handles_of(member):
            handle.resume()

    def is_partitioned(self, member: ReactorMember) -> bool:
        return id(member) in self._partitioned

    # -- error containment ---------------------------------------------------

    def _contain(self, member: Optional[ReactorMember],
                 error: BaseException) -> None:
        """Quarantine the faulty member (or handle) and record the error."""
        self.errors.append((member.name if member else None, error))
        if member is not None:
            member.failed = True
            if member.failed_at is None:
                member.failed_at = time.time()
            member.errors.append(error)
            member.tracebacks.append("".join(traceback.format_exception(
                type(error), error, error.__traceback__)))
            member.dropped.extend(self.handles_of(member))
            self._drop_member_handles(member)
            if member.on_error is not None:
                member.on_error(error)

    # -- the turn ------------------------------------------------------------

    def _live_members(self) -> list[ReactorMember]:
        return [m for m in self._members if not m.failed]

    def turn(self, block_s: float = 0.0) -> bool:
        """One reactor turn; returns True when any work happened.

        ``block_s`` bounds how long ``select()`` may sleep when every
        scheduler is drained (pure I/O wait); it is 0 whenever any member
        still has pending events, so the schedulers never starve behind
        the poll.
        """
        if self._closed:
            raise ReactorError("reactor is closed")
        self.turns += 1
        worked = False
        members = self._live_members()
        # per-turn work attribution: a member whose own events and fds
        # were silent this turn may fast-forward its clock in step 3,
        # even while a sibling storms (global gating would let one busy
        # tenant freeze every other home's virtual time)
        turn_work = {id(m): 0 for m in members}
        # 1. scheduler slice: budgeted due events per member, contained
        for member in members:
            try:
                fired = member.scheduler.run_ready(member.budget)
            except Exception as error:
                self._contain(member, error)
                worked = True
                continue
            member.events_fired += fired
            turn_work[id(member)] = fired
            worked = worked or fired > 0
        # 2. readiness poll: never sleep while schedulers hold work
        pending = any(m.scheduler.pending_count() > 0
                      for m in self._live_members())
        timeout = 0.0 if (worked or pending) else block_s
        if self._handles:
            ready = self._selector.select(timeout)
        else:
            ready = []
        for key, mask in ready:
            handle: IOHandle = key.data
            if handle.closed:
                continue
            worked = True
            if handle.member is not None and id(handle.member) in turn_work:
                turn_work[id(handle.member)] += 1
            try:
                if mask & selectors.EVENT_WRITE and handle.on_writable:
                    handle.on_writable()
                if (mask & selectors.EVENT_READ and handle.on_readable
                        and not handle.closed):
                    handle.on_readable()
            except Exception as error:
                if handle.member is not None:
                    self._contain(handle.member, error)
                else:
                    # orphan handle: record and stop polling it so a hot
                    # error cannot spin the loop
                    self.errors.append((None, error))
                    handle.unregister()
        # 3. clock advance: a member whose events and fds were both
        # silent this turn fast-forwards its own virtual clock to its
        # next timed event.  Per-member, not global: a storming sibling
        # must not freeze this home's timers.  A member that just took
        # an I/O dispatch skips the jump — its callbacks' consequences
        # (which may cancel those timers) get to land first.
        for member in self._live_members():
            if turn_work.get(id(member), 1) != 0:
                continue
            when = member.scheduler.next_event_time()
            if when is not None and when > member.scheduler.now():
                member.scheduler.clock.advance_to(when)
                worked = True
        return worked

    # -- driving -------------------------------------------------------------

    def run_until_idle(self, max_turns: int = 1_000_000,
                       grace_s: float = 0.001, confirm: int = 2) -> int:
        """Turn until every scheduler is drained and no fd goes ready.

        Real sockets make quiescence racy (loopback bytes can sit in the
        kernel between two polls), so idleness must be *confirmed*:
        ``confirm`` consecutive turns with zero work, each allowing
        ``select`` up to ``grace_s`` to surface a late arrival.  Returns
        the number of turns taken.
        """
        idle_streak = 0
        for turn_no in range(max_turns):
            if self.turn(block_s=grace_s):
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak >= confirm:
                    return turn_no + 1
        raise ReactorError(
            f"run_until_idle exceeded {max_turns} turns; "
            "likely a self-perpetuating event loop in a member "
            "(quarantine only guards *raising* members)")

    def run_until(self, predicate: Callable[[], bool],
                  timeout_s: Optional[float] = 5.0,
                  max_turns: int = 1_000_000) -> bool:
        """Turn until ``predicate()`` holds; False on timeout.

        ``timeout_s`` is wall-clock (monotonic) — this is the primitive
        that waits for real TCP handshakes and accepts to land.
        """
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        for _ in range(max_turns):
            if predicate():
                return True
            self.turn(block_s=0.001)
            if deadline is not None and time.monotonic() > deadline:
                return predicate()
        raise ReactorError(f"run_until exceeded {max_turns} turns")

    def close(self) -> None:
        """Tear down: unregister every handle and close the selector.

        Registered sockets are *not* closed — their owners (transports,
        listeners) keep that responsibility.
        """
        if self._closed:
            return
        self._closed = True
        for handle in list(self._handles.values()):
            handle.unregister()
        self._selector.close()
        self._members.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        failed = [m.name for m in self._members if m.failed]
        tail = f" quarantined={failed}" if failed else ""
        return (f"<Reactor members={len(self._members)} "
                f"handles={len(self._handles)} turns={self.turns}{tail}>")


class TcpListener:
    """A real listening TCP socket whose accepts arrive as reactor events.

    ``on_accept(conn, addr)`` receives each accepted connection as an
    already-non-blocking, TCP_NODELAY socket; wrapping it in a
    :class:`~repro.net.transport.SocketTransport` (and registering that
    with the reactor) is the caller's move — see
    :meth:`repro.server.uniint_server.UniIntServer.listen`.
    """

    def __init__(self, reactor: Reactor,
                 on_accept: Callable[[socket.socket, tuple], None],
                 host: str = "127.0.0.1", port: int = 0,
                 backlog: int = 128,
                 member: Optional[ReactorMember] = None) -> None:
        self.reactor = reactor
        self.on_accept = on_accept
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen(backlog)
            sock.setblocking(False)
        except OSError as error:
            sock.close()
            raise TransportError(f"cannot listen on {host}:{port}: "
                                 f"{error}") from error
        self._sock = sock
        self.address: tuple[str, int] = sock.getsockname()
        self.accepted = 0
        self._handle = reactor.register(sock, on_readable=self._on_readable,
                                        member=member)

    @property
    def port(self) -> int:
        return self.address[1]

    def _on_readable(self) -> None:
        while True:
            try:
                conn, addr = self._sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed under us
            conn.setblocking(False)
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - platform quirk
                pass
            self.accepted += 1
            try:
                self.on_accept(conn, addr)
            except BaseException:
                # the callback never took ownership: close the socket so a
                # raising acceptor can't leak fds, then let the reactor's
                # containment see the error
                conn.close()
                raise

    def close(self) -> None:
        self._handle.unregister()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TcpListener {self.address[0]}:{self.port}>"


def connect_tcp(reactor: Reactor, scheduler: Scheduler,
                address: tuple[str, int],
                profile: LinkProfile = ETHERNET_100,
                name: str = "tcp-client",
                member: Optional[ReactorMember] = None) -> SocketTransport:
    """Open a non-blocking TCP client transport through the reactor.

    Returns a reactor-registered :class:`SocketTransport` immediately; the
    connect completes asynchronously (EPOLLOUT), and any bytes sent
    meanwhile wait in the transport's outbox.  Drive the reactor to make
    progress.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setblocking(False)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.connect(address)
    except (BlockingIOError, InterruptedError):
        pass  # connect in progress: EPOLLOUT will say when
    except OSError as error:
        sock.close()
        raise TransportError(
            f"cannot connect to {address}: {error}") from error
    return SocketTransport(scheduler, sock, profile, name, reactor=reactor,
                           member=member, connecting=True)
