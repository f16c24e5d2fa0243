"""Composed GUI generation (paper §2.2).

"the application generates the composed GUI for TV and VCR if both TV and
VCR are currently available": with one appliance the UI is that appliance's
panel; with several, a tab per appliance.

Before building, the composer assigns each appliance its GUID prefix for
widget/page ids — normally the first 8 hex digits, lengthened uniformly
when two devices collide on them (:func:`repro.util.ids.guid_prefixes`).
"""

from __future__ import annotations

from repro.app.handles import ApplianceHandle
from repro.app.panels import build_fcm_panel
from repro.toolkit import Column, Label, TabPanel
from repro.toolkit.widget import Widget
from repro.util.ids import guid_prefixes


def assign_guid_prefixes(appliances: list[ApplianceHandle]) -> None:
    """Give every appliance (and its FCM handles) a collision-free prefix."""
    prefixes = guid_prefixes([appliance.guid for appliance in appliances])
    for appliance in appliances:
        prefix = prefixes.get(appliance.guid, appliance.guid[:8])
        appliance.guid_prefix = prefix
        for handle in appliance.fcms:
            handle.guid_prefix = prefix


def build_appliance_page(appliance: ApplianceHandle) -> Widget:
    """One appliance's page: its FCM panels stacked vertically."""
    page = Column(padding=2, spacing=3)
    page.widget_id = f"page.{appliance.guid_prefix}"
    for handle in appliance.fcms:
        page.add(build_fcm_panel(handle))
    return page


def compose_ui(appliances: list[ApplianceHandle]) -> Widget:
    """The whole application UI for the currently available appliances."""
    assign_guid_prefixes(appliances)
    if not appliances:
        empty = Column()
        notice = Label("No appliances available", centered=True, title=True)
        notice.widget_id = "no-appliances"
        empty.add(notice)
        return empty
    if len(appliances) == 1:
        return build_appliance_page(appliances[0])
    tabs = TabPanel()
    tabs.widget_id = "appliance-tabs"
    for appliance in appliances:
        tabs.add_page(appliance.name, build_appliance_page(appliance))
    return tabs


def recompose_tabs(tabs: TabPanel, shown: list[ApplianceHandle],
                   appliances: list[ApplianceHandle], active: int) -> None:
    """Update a composed tab panel in place.

    ``shown`` are the appliances whose pages ``tabs`` holds, in tab
    order; ``appliances`` are the ones to show now, tab ``active`` in
    front.  An appliance that keeps its GUID prefix and its FCM handles
    keeps its page; every other appliance gets a new page, and the pages
    left over are torn down (:meth:`TabPanel.replace_pages`).
    """
    assign_guid_prefixes(appliances)
    before = {appliance.guid: (appliance, page)
              for appliance, page in zip(shown, tabs.children)}
    pages = []
    for appliance in appliances:
        old, page = before.get(appliance.guid, (None, None))
        if (old is None or old.guid_prefix != appliance.guid_prefix
                or old.fcms != appliance.fcms):
            page = build_appliance_page(appliance)
        pages.append((appliance.name, page))
    tabs.replace_pages(pages, active)
