"""Per-user device preferences.

Preferences are additive score contributions: a base weight per device
kind, plus conditional rules ("while cooking, boost voice by 3").  Keeping
them additive makes policy decisions explainable — the score breakdown in
:class:`~repro.context.policy.ScoredDevice` shows exactly why a device won.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.context.model import UserSituation


@dataclass(frozen=True)
class PreferenceRule:
    """A conditional preference: if the situation matches, apply boosts."""

    description: str
    condition: Callable[[UserSituation], bool]
    boosts: dict  # device kind -> score delta

    def applies(self, situation: UserSituation) -> bool:
        return bool(self.condition(situation))


class PreferenceStore:
    """One user's preferences."""

    def __init__(self, user: str = "resident") -> None:
        self.user = user
        self._base: dict[str, float] = {}
        self._rules: list[PreferenceRule] = []

    def prefer(self, kind: str, weight: float) -> None:
        """Set the base weight for a device kind (e.g. 'pda' -> 1.5)."""
        self._base[kind] = float(weight)

    def add_rule(self, rule: PreferenceRule) -> None:
        self._rules.append(rule)

    def rule(self, description: str,
             condition: Callable[[UserSituation], bool],
             **boosts: float) -> PreferenceRule:
        """Convenience builder: ``prefs.rule("...", cond, voice=3.0)``."""
        built = PreferenceRule(description, condition, dict(boosts))
        self.add_rule(built)
        return built

    def score(self, kind: str, situation: UserSituation) -> float:
        """Total preference contribution for this device kind now."""
        total = self._base.get(kind, 0.0)
        for rule in self._rules:
            if rule.applies(situation):
                total += float(rule.boosts.get(kind, 0.0))
        return total

    def explain(self, kind: str,
                situation: UserSituation) -> list[tuple[str, float]]:
        """Per-contribution breakdown (for diagnostics)."""
        parts: list[tuple[str, float]] = []
        if kind in self._base:
            parts.append(("base preference", self._base[kind]))
        for rule in self._rules:
            if rule.applies(situation) and kind in rule.boosts:
                parts.append((rule.description, float(rule.boosts[kind])))
        return parts
