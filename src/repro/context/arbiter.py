"""Device ownership arbitration for multi-user homes.

One home, several residents, a finite pool of interaction devices: the
:class:`DeviceArbiter` guarantees every device is driven by at most one
user's session at a time while keeping selection *situational* — whoever
needs a device most, holds it.

Rules (deterministic, explainable like the rest of the policy layer):

* a free device goes to whichever user's selection asks for it first;
* a held device is only taken by *preemption*: the challenger's score for
  the device (in their situation, for the role they want) must be strictly
  greater than the incumbent's current score for it — ties keep the
  incumbent, so two users on the same sofa do not flap a panel between
  them;
* a preempted user is *released* immediately (their session deselects the
  device on the spot, so two sessions never push frames to one screen) and
  re-selects on the next scheduler tick, falling back to their next-best
  device;
* whenever a user's reselect lets devices go, every other user gets a
  reselect scheduled — a panel freed by someone leaving the room is picked
  up by whoever is still there.

Preemption's strict-improvement rule makes cascades terminate: with
situations fixed, each handoff strictly raises the holding score of the
contested device, so a device changes hands at most once per user per
situation change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.context.policy import VIABILITY_FLOOR, ScoredDevice
from repro.util.errors import ContextError
from repro.util.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.context.manager import ContextManager


@dataclass(frozen=True)
class HandoffRecord:
    """One arbitrated ownership change, for traces and tests."""

    time: float
    device_id: str
    from_user: Optional[str]
    to_user: str
    preempted: bool


class DeviceArbiter:
    """At-most-one-user-per-device ownership with score-based preemption."""

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self._managers: dict[str, "ContextManager"] = {}
        #: device_id -> user_id currently holding it.
        self.holders: dict[str, str] = {}
        self._reselect_pending: set[str] = set()
        self.preemptions = 0
        self.handoffs: list[HandoffRecord] = []

    # -- membership ---------------------------------------------------------

    def register(self, manager: "ContextManager") -> None:
        if manager.user_id in self._managers:
            raise ContextError(
                f"user {manager.user_id!r} already registered")
        self._managers[manager.user_id] = manager

    def unregister(self, user_id: str) -> None:
        self._managers.pop(user_id, None)
        self._reselect_pending.discard(user_id)
        released = [d for d, u in self.holders.items() if u == user_id]
        for device_id in released:
            del self.holders[device_id]
        if released:
            self._wake_others(user_id)

    # -- arbitration --------------------------------------------------------

    def arbitrate(self, manager: "ContextManager",
                  devices) -> tuple[Optional[str], Optional[str]]:
        """Pick (input, output) for one user, honouring ownership.

        Walks the policy's ranking best-first, skipping devices held by a
        user this one cannot outscore; claims the winners (preempting
        where the strict-improvement rule allows) and releases anything
        this user held but no longer wants.
        """
        situation = manager.situation
        ranked_inputs = manager.policy.rank_inputs(devices, situation)
        ranked_outputs = manager.policy.rank_outputs(devices, situation)
        input_id = self._pick(manager.user_id, ranked_inputs)
        output_id = self._pick(manager.user_id, ranked_outputs)
        self._commit(manager.user_id, input_id, output_id)
        return input_id, output_id

    def _pick(self, user_id: str,
              ranked: list[ScoredDevice]) -> Optional[str]:
        for candidate in ranked:
            if candidate.score <= VIABILITY_FLOOR:
                return None  # ranking is sorted: nothing viable below
            holder = self.holders.get(candidate.device_id)
            if holder is None or holder == user_id:
                return candidate.device_id
            if candidate.score > self._holding_score(holder,
                                                     candidate.device_id):
                return candidate.device_id
        return None

    def _holding_score(self, holder: str, device_id: str) -> float:
        """How much the incumbent values the device right now.

        Scored with the incumbent's own policy and situation, for the
        role(s) they actually use the device in; a stale holding whose
        descriptor vanished from the incumbent's proxy scores -inf and is
        always preemptible.
        """
        manager = self._managers.get(holder)
        if manager is None:
            return float("-inf")
        binding = manager.proxy.devices.get(device_id)
        if binding is None:
            return float("-inf")
        descriptor = binding.descriptor
        proxy = manager.proxy
        if proxy.session is not None:
            uses_input = proxy.current_input == device_id
            uses_output = proxy.current_output == device_id
        else:
            # no live session to read the role from (arbitration decided
            # ahead of connection): value the device by capability
            uses_input = descriptor.is_input
            uses_output = descriptor.is_output
        scores = []
        if uses_input:
            scores.append(manager.policy.score_input(
                descriptor, manager.situation).score)
        if uses_output:
            scores.append(manager.policy.score_output(
                descriptor, manager.situation).score)
        return max(scores) if scores else float("-inf")

    def _commit(self, user_id: str, input_id: Optional[str],
                output_id: Optional[str]) -> None:
        wanted = {d for d in (input_id, output_id) if d is not None}
        released = [d for d, u in self.holders.items()
                    if u == user_id and d not in wanted]
        for device_id in released:
            del self.holders[device_id]
        now = self.scheduler.now()
        for device_id in wanted:
            incumbent = self.holders.get(device_id)
            if incumbent is not None and incumbent != user_id:
                self._preempt(incumbent, device_id)
                self.handoffs.append(HandoffRecord(
                    now, device_id, incumbent, user_id, preempted=True))
            elif incumbent is None:
                self.handoffs.append(HandoffRecord(
                    now, device_id, None, user_id, preempted=False))
            self.holders[device_id] = user_id
        if released:
            self._wake_others(user_id)

    def _preempt(self, loser_id: str, device_id: str) -> None:
        """Release the device from the loser's live session, right now.

        The release must not wait for the loser's rescheduled reselect:
        between now and then the winner's session pushes a full frame to
        the device, and two sessions must never drive one screen.
        """
        self.preemptions += 1
        manager = self._managers.get(loser_id)
        if manager is None:
            return
        proxy = manager.proxy
        if proxy.session is not None:
            if proxy.current_input == device_id:
                proxy.select_input(None)
            if proxy.current_output == device_id:
                proxy.select_output(None)
        self._schedule_reselect(loser_id)

    # -- deferred reselects -------------------------------------------------

    def _wake_others(self, except_user: str) -> None:
        for user_id in self._managers:
            if user_id != except_user:
                self._schedule_reselect(user_id)

    def _schedule_reselect(self, user_id: str) -> None:
        if user_id in self._reselect_pending:
            return
        self._reselect_pending.add(user_id)
        self.scheduler.call_soon(self._run_reselect, user_id)

    def _run_reselect(self, user_id: str) -> None:
        self._reselect_pending.discard(user_id)
        manager = self._managers.get(user_id)
        if manager is not None:
            manager.reselect()
