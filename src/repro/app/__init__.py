"""The home appliance application (paper §2.2, component 1).

"Home appliance applications generate a control panel for currently
available appliances to control them. [...] the application generates the
composed GUI for TV and VCR if both TV and VCR are currently available."

:class:`HomeApplianceApplication` watches the HAVi registry, builds a
per-FCM control panel for every appliance on the network (one tab per
appliance when several are present), binds widgets to FCM commands, and
keeps the widgets live by subscribing to ``fcm.state.*`` events.

Crucially, the application is written **only** against the widget toolkit
and HAVi — it contains no knowledge of the universal interaction protocol,
proxies or devices.  That it is nevertheless controllable from a phone
keypad or by voice is the paper's transparency result.
"""

from repro.app.commands import (
    Command,
    CommandError,
    CommandLog,
    CommandSpine,
    CommandState,
)
from repro.app.handles import ApplianceHandle, DdiController, FcmHandle
from repro.app.panels import build_capability_panel, build_fcm_panel
from repro.app.composer import assign_guid_prefixes, compose_ui
from repro.app.application import HomeApplianceApplication

__all__ = [
    "ApplianceHandle",
    "Command",
    "CommandError",
    "CommandLog",
    "CommandSpine",
    "CommandState",
    "DdiController",
    "FcmHandle",
    "HomeApplianceApplication",
    "assign_guid_prefixes",
    "build_capability_panel",
    "build_fcm_panel",
    "compose_ui",
]
