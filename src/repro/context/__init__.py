"""Situation-driven device selection (paper §2.1, second characteristic).

"the most appropriate interaction device should be dynamically chosen
according to a user's current situation and preference, and the selection
of interaction devices should be consistent whether s/he is living in any
spaces".

* :class:`UserSituation` — where the user is and what they are doing
  (hands/eyes busy, seated, ambient noise),
* :class:`PreferenceStore` — per-user situational device rules,
* :class:`SelectionPolicy` — deterministic scoring of registered devices
  against the situation and preferences,
* :class:`ContextManager` — watches the situation and drives the proxy's
  dynamic device switches.
"""

from repro.context.model import Activity, UserSituation
from repro.context.preferences import PreferenceRule, PreferenceStore
from repro.context.policy import ScoredDevice, SelectionPolicy
from repro.context.manager import ContextManager, SwitchRecord
from repro.context.arbiter import DeviceArbiter, HandoffRecord

__all__ = [
    "Activity",
    "ContextManager",
    "DeviceArbiter",
    "HandoffRecord",
    "PreferenceRule",
    "PreferenceStore",
    "ScoredDevice",
    "SelectionPolicy",
    "SwitchRecord",
    "UserSituation",
]
