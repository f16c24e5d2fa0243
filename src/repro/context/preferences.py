"""Per-user device preferences.

Preferences are additive score contributions from conditional rules
("while cooking, boost voice by 3"); a rule whose condition always holds
is a standing weight.  Keeping them additive makes policy decisions
explainable — the score breakdown in
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
        self._rules: list[PreferenceRule] = []

    def rule(self, description: str,
             condition: Callable[[UserSituation], bool],
             **boosts: float) -> PreferenceRule:
        """Convenience builder: ``prefs.rule("...", cond, voice=3.0)``."""
        built = PreferenceRule(description, condition, dict(boosts))
        self._rules.append(built)
        return built

    def score(self, kind: str, situation: UserSituation) -> float:
        """Total preference contribution for this device kind now."""
        total = 0.0
        for rule in self._rules:
            if rule.applies(situation):
                total += float(rule.boosts.get(kind, 0.0))
        return total
