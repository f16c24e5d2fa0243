"""The device selection policy: score every candidate, pick the best.

The scoring rules encode the paper's §2.1 examples:

* hands busy (cooking)  -> hands-free inputs (voice, gesture) win over
  touch/keypad/buttons;
* on the sofa watching TV -> the living-room remote and the TV panel win;
* in another room -> fixed displays elsewhere are heavily penalised, the
  carried personal devices (phone, PDA) win;
* user preferences are added on top, so a user who hates voice control
  can out-vote the situational bonus.

Scores are pure functions of (descriptor, situation, preferences); ties
break lexicographically on device id so selection is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.context.model import UserSituation
from repro.context.preferences import PreferenceStore
from repro.proxy.descriptors import DeviceDescriptor

#: Score below which a device is considered unusable in this situation.
VIABILITY_FLOOR = -3.0


@dataclass(frozen=True)
class ScoredDevice:
    """One candidate with its score breakdown (sorted best-first)."""

    device_id: str
    kind: str
    score: float
    reasons: tuple[tuple[str, float], ...] = ()


class SelectionPolicy:
    """Deterministic additive scoring over device descriptors."""

    def __init__(self, preferences: Optional[PreferenceStore] = None) -> None:
        self.preferences = (preferences if preferences is not None
                            else PreferenceStore())

    # -- input scoring ------------------------------------------------------

    def score_input(self, descriptor: DeviceDescriptor,
                    situation: UserSituation) -> ScoredDevice:
        reasons: list[tuple[str, float]] = [("candidate", 1.0)]
        tags = descriptor.tags

        def add(reason: str, delta: float) -> None:
            reasons.append((reason, delta))

        hands_needed = bool(descriptor.input_modes
                            & {"touch", "keypad", "ir", "gesture"})
        if situation.hands_busy:
            if "hands_free" in tags:
                add("hands busy: hands-free input", +3.0)
            elif hands_needed:
                add("hands busy: input needs hands", -4.0)
        if situation.eyes_busy:
            if "eyes_free" in tags:
                add("eyes busy: eyes-free input", +1.5)
            elif "touch" in descriptor.input_modes:
                add("eyes busy: touch needs looking", -1.5)
        if descriptor.has_tag(situation.location):
            add(f"device lives in {situation.location}", +2.0)
        elif "fixed" in tags:
            add("fixed device in another room", -5.0)
        if "portable" in tags or "wearable" in tags:
            add("carried along", +1.0)
        if "always_carried" in tags:
            add("always on the user", +0.5)
        if situation.seated and "one_handed" in tags:
            add("seated: one-handed comfort", +1.0)
        if "voice" in descriptor.input_modes and situation.noise > 0.5:
            add("too noisy for recognition", -3.0)
        pref = self.preferences.score(descriptor.kind, situation)
        if pref:
            add("user preference", pref)
        total = sum(delta for _, delta in reasons)
        return ScoredDevice(descriptor.device_id, descriptor.kind, total,
                            tuple(reasons))

    # -- output scoring ----------------------------------------------------------

    def score_output(self, descriptor: DeviceDescriptor,
                     situation: UserSituation) -> ScoredDevice:
        reasons: list[tuple[str, float]] = [("candidate", 1.0)]
        tags = descriptor.tags
        screen = descriptor.screen

        def add(reason: str, delta: float) -> None:
            reasons.append((reason, delta))

        if descriptor.has_tag(situation.location):
            add(f"display lives in {situation.location}", +3.0)
        elif "fixed" in tags:
            add("fixed display in another room", -8.0)
        if "portable" in tags:
            add("carried along", +1.5)
        if situation.seated and "large" in tags:
            add("seated: big shared screen", +2.0)
        if situation.eyes_busy and "large" in tags:
            add("eyes busy: glanceable big screen", +1.0)
        if screen is not None:
            # mild quality bonus, saturating: log-ish via thresholds
            pixels = screen.width * screen.height
            if pixels >= 700_000:
                add("high resolution", +1.0)
            elif pixels >= 70_000:
                add("medium resolution", +0.5)
            if screen.bits_per_pixel >= 16:
                add("colour screen", +0.5)
        pref = self.preferences.score(descriptor.kind, situation)
        if pref:
            add("user preference", pref)
        total = sum(delta for _, delta in reasons)
        return ScoredDevice(descriptor.device_id, descriptor.kind, total,
                            tuple(reasons))

    # -- choosing --------------------------------------------------------------------

    def rank_inputs(self, devices: list[DeviceDescriptor],
                    situation: UserSituation) -> list[ScoredDevice]:
        scored = [self.score_input(d, situation)
                  for d in devices if d.is_input]
        return sorted(scored, key=lambda s: (-s.score, s.device_id))

    def rank_outputs(self, devices: list[DeviceDescriptor],
                     situation: UserSituation) -> list[ScoredDevice]:
        scored = [self.score_output(d, situation)
                  for d in devices if d.is_output]
        return sorted(scored, key=lambda s: (-s.score, s.device_id))

    def choose(self, devices: list[DeviceDescriptor],
               situation: UserSituation
               ) -> tuple[Optional[str], Optional[str]]:
        """(input_device_id, output_device_id) — None if nothing viable."""
        inputs = self.rank_inputs(devices, situation)
        outputs = self.rank_outputs(devices, situation)
        best_input = (inputs[0].device_id
                      if inputs and inputs[0].score > VIABILITY_FLOOR
                      else None)
        best_output = (outputs[0].device_id
                       if outputs and outputs[0].score > VIABILITY_FLOOR
                       else None)
        return (best_input, best_output)
