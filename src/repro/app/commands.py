"""The command spine: every actuation is one tracked, timeout-guarded job.

The paper's central claim — any interaction device drives any appliance
through one uniform control path — demands that actuations be first-class
objects rather than scattered fire-and-forget callbacks.  This module
reifies them:

* :class:`Command` — one actuation (seid, opcode, payload, origin) with a
  lifecycle state machine::

      QUEUED -> INFLIGHT -> DONE | FAILED | TIMED_OUT
        \\-> SUPERSEDED   (replaced while waiting behind an inflight write)

  Every command reaches exactly one terminal state; callers poll
  ``command.state`` or hook ``command.on_done``.

* :class:`CommandLog` — a per-home ring buffer journalling the most
  recent commands plus monotonic counters (total submitted, per-terminal-
  state, per-origin), so ``tools/report.py`` can render what the home has
  been told to do and how it went.

* :class:`CommandSpine` — the single dispatch point.  It mints commands,
  sends them through the owning software element with a messaging-layer
  timeout guard, and coalesces redundant same-opcode *writes*: while a
  ``*.set`` write to one (seid, opcode) lane is inflight, newer writes
  wait in a depth-1 slot and replace each other (last-write-wins; the
  replaced command terminates SUPERSEDED).  Non-idempotent opcodes
  (``*.toggle``, ``timer.add``, button verbs …) bypass coalescing and
  keep today's wire behavior exactly.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.havi.element import SoftwareElement
from repro.havi.messaging import HaviMessage
from repro.havi.seid import SEID
from repro.util.errors import ReproError

#: Default inflight deadline: generous against the sub-millisecond bus
#: latency, tight enough that a wedged appliance surfaces within a beat.
DEFAULT_TIMEOUT_S = 2.0

#: Recognised origins (informational; the spine accepts any string so new
#: modalities do not need a code change here).
ORIGINS = ("widget", "ddi", "voice", "gesture", "api", "app")


class CommandError(ReproError):
    """Command lifecycle misuse (e.g. finishing a terminal command)."""


class CommandState(enum.Enum):
    QUEUED = "queued"
    INFLIGHT = "inflight"
    DONE = "done"
    FAILED = "failed"
    TIMED_OUT = "timed_out"
    SUPERSEDED = "superseded"


TERMINAL_STATES = frozenset({
    CommandState.DONE,
    CommandState.FAILED,
    CommandState.TIMED_OUT,
    CommandState.SUPERSEDED,
})

DoneListener = Callable[["Command"], None]


class Command:
    """One tracked actuation job."""

    __slots__ = (
        "command_id", "seid", "opcode", "payload", "origin", "state",
        "status", "detail", "result", "transaction", "superseded_by",
        "created_s", "sent_s", "finished_s", "_done_listeners",
    )

    def __init__(self, command_id: int, seid: SEID, opcode: str,
                 payload: dict, origin: str, now: float) -> None:
        self.command_id = command_id
        self.seid = seid
        self.opcode = opcode
        self.payload = payload
        self.origin = origin
        self.state = CommandState.QUEUED
        #: Reply status ("SUCCESS", FCM error code, "ETIMEOUT", …).
        self.status: str = ""
        self.detail: str = ""
        #: Reply payload for DONE commands.
        self.result: Optional[dict] = None
        self.transaction: int = 0
        self.superseded_by: Optional[int] = None
        self.created_s = now
        self.sent_s: Optional[float] = None
        self.finished_s: Optional[float] = None
        self._done_listeners: list[DoneListener] = []

    # -- inspection ---------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def ok(self) -> bool:
        return self.state is CommandState.DONE

    @property
    def latency_s(self) -> Optional[float]:
        """Send-to-terminal virtual seconds (None until finished/sent)."""
        if self.finished_s is None or self.sent_s is None:
            return None
        return self.finished_s - self.sent_s

    def on_done(self, listener: DoneListener) -> "Command":
        """Run ``listener(command)`` at the terminal transition (or now,
        if the command already finished).  Returns self for chaining."""
        if self.done:
            listener(self)
        else:
            self._done_listeners.append(listener)
        return self

    def describe(self) -> dict:
        """A journal row (plain data, ready for the report renderer)."""
        return {
            "id": self.command_id,
            "seid": str(self.seid),
            "opcode": self.opcode,
            "origin": self.origin,
            "state": self.state.value,
            "status": self.status,
            "detail": self.detail,
            "latency_s": self.latency_s,
        }

    # -- transitions (spine-internal) ---------------------------------------

    def _mark_inflight(self, now: float, transaction: int) -> None:
        if self.state is not CommandState.QUEUED:
            raise CommandError(
                f"command {self.command_id} sent twice ({self.state})")
        self.state = CommandState.INFLIGHT
        self.sent_s = now
        self.transaction = transaction

    def _finish(self, state: CommandState, now: float, status: str = "",
                detail: str = "", result: Optional[dict] = None) -> None:
        if self.done:
            raise CommandError(
                f"command {self.command_id} already terminal ({self.state})")
        if state not in TERMINAL_STATES:
            raise CommandError(f"{state} is not a terminal state")
        self.state = state
        self.status = status
        self.detail = detail
        self.result = result
        self.finished_s = now
        listeners, self._done_listeners = self._done_listeners, []
        for listener in listeners:
            listener(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Command #{self.command_id} {self.opcode} -> {self.seid} "
                f"[{self.origin}] {self.state.value}>")


class CommandLog:
    """Per-home command journal: ring buffer + monotonic counters."""

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._ring: deque[Command] = deque(maxlen=capacity)
        self._next_id = 1
        self.submitted = 0
        self.terminal: dict[str, int] = {
            state.value: 0 for state in TERMINAL_STATES}
        self.by_origin: dict[str, int] = {}

    def allocate_id(self) -> int:
        command_id, self._next_id = self._next_id, self._next_id + 1
        return command_id

    def record(self, command: Command) -> None:
        self._ring.append(command)
        self.submitted += 1
        self.by_origin[command.origin] = \
            self.by_origin.get(command.origin, 0) + 1
        command.on_done(self._note_terminal)

    def _note_terminal(self, command: Command) -> None:
        self.terminal[command.state.value] += 1

    # -- queries ------------------------------------------------------------

    def open_commands(self) -> list[Command]:
        return [c for c in self._ring if not c.done]

    def stats(self) -> dict:
        return {
            "submitted": self.submitted,
            "in_ring": len(self._ring),
            "terminal": dict(self.terminal),
            "by_origin": dict(self.by_origin),
        }

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterable[Command]:
        return iter(self._ring)


@dataclass
class _Lane:
    """One (seid, opcode) coalescing lane: at most one inflight write and
    one waiting replacement."""

    inflight: Command
    queued: Optional[tuple[Command, Optional[Callable], Optional[float]]] \
        = None


def coalescible(opcode: str) -> bool:
    """Idempotent set-style writes coalesce; everything else must not
    (``timer.add`` twice means *add twice*, ``door.toggle`` twice means
    toggle back)."""
    return opcode.endswith(".set")


class CommandSpine:
    """The single dispatch point turning actuations into tracked jobs.

    One spine per requesting software element (an application, a DDI
    controller); all spines in a home usually share the home's
    :class:`CommandLog`.
    """

    def __init__(self, element: SoftwareElement,
                 log: Optional[CommandLog] = None,
                 timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        self.element = element
        self.log = log if log is not None else CommandLog()
        self.timeout_s = timeout_s
        self._lanes: dict[tuple[SEID, str], _Lane] = {}
        self._scheduler = element.messaging.scheduler
        self.dispatched = 0
        self.coalesced = 0

    # -- public API ---------------------------------------------------------

    def submit(self, seid: SEID, opcode: str, payload: dict | None = None,
               *, origin: str = "api",
               on_reply: Optional[Callable[[HaviMessage], None]] = None,
               timeout_s: Optional[float] = None) -> Command:
        """Mint a :class:`Command` and dispatch (or coalesce) it.

        Whether it coalesces follows from the opcode (see
        :func:`coalescible`).  ``on_reply`` fires with the raw RESPONSE
        for DONE/FAILED/TIMED_OUT commands — never for SUPERSEDED ones,
        which are never sent.
        """
        now = self._scheduler.now()
        command = Command(self.log.allocate_id(), seid, opcode,
                          dict(payload) if payload else {}, origin, now)
        self.log.record(command)
        wants_lane = coalescible(opcode)
        if wants_lane:
            lane = self._lanes.get((seid, opcode))
            if lane is not None:
                if lane.queued is not None:
                    waiting = lane.queued[0]
                    waiting.superseded_by = command.command_id
                    waiting._finish(
                        CommandState.SUPERSEDED, now, status="ESUPERSEDED",
                        detail=f"replaced by command {command.command_id}")
                    self.coalesced += 1
                lane.queued = (command, on_reply, timeout_s)
                return command
        self._dispatch(command, on_reply, timeout_s, tracked=wants_lane)
        return command

    # -- per-handle views ---------------------------------------------------

    def inflight_for(self, seid: SEID) -> list[Command]:
        """Commands currently occupying lanes for one FCM (the per-handle
        inflight table)."""
        out = []
        for (lane_seid, _), lane in self._lanes.items():
            if lane_seid != seid:
                continue
            out.append(lane.inflight)
            if lane.queued is not None:
                out.append(lane.queued[0])
        return out

    @property
    def inflight_count(self) -> int:
        return sum(1 + (lane.queued is not None)
                   for lane in self._lanes.values())

    # -- dispatch machinery -------------------------------------------------

    def _dispatch(self, command: Command, on_reply, timeout_s,
                  tracked: bool) -> None:
        if tracked:
            self._lanes[(command.seid, command.opcode)] = _Lane(command)
        self.dispatched += 1

        def handle_reply(message: HaviMessage) -> None:
            self._complete(command, message, on_reply, tracked)

        transaction = self.element.send_request(
            command.seid, command.opcode, command.payload,
            on_reply=handle_reply,
            timeout_s=self.timeout_s if timeout_s is None else timeout_s)
        command._mark_inflight(self._scheduler.now(), transaction)

    def _complete(self, command: Command, message: HaviMessage,
                  on_reply, tracked: bool) -> None:
        now = self._scheduler.now()
        # free the lane (and launch the waiting replacement) before any
        # listener runs, so re-submissions from callbacks queue FIFO
        # behind the already-waiting write rather than jumping it
        if tracked:
            lane = self._lanes.pop((command.seid, command.opcode), None)
            if lane is not None and lane.queued is not None:
                next_command, next_reply, next_timeout = lane.queued
                self._dispatch(next_command, next_reply, next_timeout,
                               tracked=True)
        if message.status == "SUCCESS":
            # the reply payload is ours once delivered: no copy needed
            command._finish(CommandState.DONE, now, status="SUCCESS",
                            result=message.payload)
        elif message.status == "ETIMEOUT":
            command._finish(CommandState.TIMED_OUT, now, status="ETIMEOUT",
                            detail=str(message.payload.get("detail", "")))
        else:
            command._finish(CommandState.FAILED, now, status=message.status,
                            detail=str(message.payload.get("detail", "")))
        if on_reply is not None:
            on_reply(message)
