"""Per-FCM control panels, generated from capability descriptors.

:func:`build_fcm_panel` takes an :class:`~repro.app.handles.FcmHandle`
and returns a toolkit :class:`~repro.toolkit.Panel` whose widgets

* send FCM commands when the user operates them, and
* follow the FCM's state via the handle's listeners (so a channel changed
  from *any* device updates every panel showing it).

Every panel is derived from the FCM's capability descriptor
(:func:`build_capability_panel`); there is no per-appliance panel code.
An FCM without a usable descriptor gets :func:`build_generic_panel`, an
"unsupported" banner plus a live state dump.

Widget ids follow ``<guid8>.<fcm_type>.<name>`` so tests and demos can
locate live widgets deterministically (``<guid8>`` grows when two device
GUIDs collide on their first 8 digits — see
:func:`repro.util.ids.guid_prefixes`).  Every builder registers its state
listener for teardown, so replacing a UI root detaches the old panel's
listeners instead of leaking them on the handle.
"""

from __future__ import annotations

from repro.app.handles import FcmHandle
from repro.havi.capabilities import MAIN_COMPONENT, Capability
from repro.toolkit import (
    Button,
    Label,
    ListBox,
    Panel,
    ProgressBar,
    Row,
    Slider,
    TextField,
    ToggleButton,
)
from repro.toolkit.widget import Widget

#: Kinds whose widgets flow together into shared rows; range/choice/number
#: always get a row of their own (sliders and lists want the width).
_FLOW_KINDS = ("switch", "text", "button", "progress")
_MAX_ROW_ITEMS = 4


def _wid(handle: FcmHandle, name: str) -> str:
    return f"{handle.guid_prefix}.{handle.fcm_type}.{name}"


def _act(handle: FcmHandle, opcode: str, payload: dict | None = None):
    """Every panel-widget actuation enters the command spine tagged with
    its origin, so the home journal can tell a GUI click from a voice
    utterance or an API call."""
    return handle.command(opcode, payload, origin="widget")


def _follow(widget: Widget, handle: FcmHandle, listener) -> None:
    """Subscribe a state listener and detach it with the widget."""
    handle.subscribe(listener)
    widget.on_teardown(lambda: handle.unsubscribe(listener))


# -- descriptor-driven panels -------------------------------------------------


def _format_text(capability: Capability, value: object) -> str:
    if value is None:
        value = ""
    if capability.fmt:
        try:
            return capability.fmt.format(value=value)
        except (ValueError, TypeError):
            pass
    return str(value)


def _capability_widgets(handle: FcmHandle, capability: Capability,
                        followers: dict) -> tuple[list[Widget], bool]:
    """Widgets for one capability: ``(widgets, wants_own_row)``.

    Widgets are wired both ways — operating them sends the capability's
    command, and state changes on ``capability.attribute`` update them via
    ``followers`` (attribute -> update callbacks).
    """
    wid = _wid(handle, capability.name)

    def watch(update) -> None:
        if capability.attribute:
            followers.setdefault(capability.attribute, []).append(update)

    if capability.kind == "switch":
        toggle = ToggleButton(
            capability.display_label,
            value=bool(handle.get(capability.attribute, False)))
        toggle.widget_id = wid
        toggle.on_activate = lambda w: _act(handle, 
            capability.command, {capability.arg_name or "on": w.value})
        watch(lambda value: setattr(toggle, "value", bool(value)))
        return [toggle], False

    if capability.kind == "text":
        label = Label(_format_text(capability,
                                   handle.get(capability.attribute)))
        label.widget_id = wid
        watch(lambda value: setattr(
            label, "text", _format_text(capability, value)))
        return [label], False

    if capability.kind == "button":
        button = Button(
            capability.display_label,
            on_click=lambda w: _act(handle, capability.command,
                                              dict(capability.args)))
        button.widget_id = wid
        return [button], False

    if capability.kind == "progress":
        bar = ProgressBar(int(capability.minimum), int(capability.maximum))
        bar.value = int(float(handle.get(capability.attribute,
                                         capability.minimum) or 0))
        bar.widget_id = wid
        watch(lambda value: setattr(bar, "value", int(float(value or 0))))
        return [bar], False

    if capability.kind == "range":
        widgets: list[Widget] = []
        if capability.label:
            widgets.append(Label(capability.label))
        initial = int(float(handle.get(capability.attribute,
                                       capability.minimum)
                            or capability.minimum))
        slider = Slider(int(capability.minimum), int(capability.maximum),
                        value=initial, step=max(1, int(capability.step)))
        slider.widget_id = wid
        slider.layout_stretch = 1
        slider.on_activate = lambda w: _act(handle, 
            capability.command, {capability.arg_name: w.value})
        widgets.append(slider)
        if capability.unit:
            value_label = Label(f"{initial}{capability.unit}")
            value_label.widget_id = _wid(handle,
                                         f"{capability.name}-label")
            widgets.append(value_label)

            def update_range(value: object,
                             label: Label = value_label) -> None:
                slider.value = int(float(value or 0))
                label.text = f"{value}{capability.unit}"

            watch(update_range)
        else:
            watch(lambda value: setattr(slider, "value",
                                        int(float(value or 0))))
        return widgets, True

    if capability.kind == "choice":
        listbox = ListBox(list(capability.choices))
        listbox.widget_id = wid
        current = handle.get(capability.attribute)
        if current in capability.choices:
            listbox.selected = list(capability.choices).index(current)
        listbox.on_activate = lambda w: _act(handle, 
            capability.command, {capability.arg_name: w.selected_item})

        def update_choice(value: object) -> None:
            items = listbox.items
            if value in items:
                listbox.selected = items.index(value)
                listbox.invalidate()

        watch(update_choice)
        return [listbox], True

    if capability.kind == "number":
        widgets = []
        if capability.label:
            widgets.append(Label(capability.label))
        entry = TextField(max_length=max(len(str(capability.minimum)),
                                         len(str(capability.maximum))))
        entry.widget_id = wid

        def submit(widget: Widget) -> None:
            try:
                value = int(widget.text.strip())
            except ValueError:
                widget.clear()
                return
            _act(handle, capability.command,
                           {capability.arg_name: value})
            widget.clear()

        entry.on_activate = submit
        widgets.append(entry)
        return widgets, True

    # unmapped kind: generic send-command escape hatch so future
    # capability kinds degrade gracefully instead of raising
    if capability.command:
        button = Button(
            capability.display_label,
            on_click=lambda w: _act(handle, capability.command,
                                              dict(capability.args)))
        button.widget_id = wid
        return [button], False
    label = Label(_format_text(capability,
                               handle.get(capability.attribute)))
    label.widget_id = wid
    watch(lambda value: setattr(
        label, "text", _format_text(capability, value)))
    return [label], False


def _fill_section(container: Widget, handle: FcmHandle, capabilities,
                  followers: dict) -> None:
    """Lay capabilities out: flow kinds share rows, others get their own.

    Rows are populated detached and attached last — adding to an
    attached row would invalidate the whole ancestor chain per widget.
    """
    rows: list[Row] = []
    row: Row | None = None
    for capability in capabilities:
        widgets, own_row = _capability_widgets(handle, capability,
                                               followers)
        if own_row or capability.kind not in _FLOW_KINDS:
            dedicated = Row(padding=0)
            for widget in widgets:
                dedicated.add(widget)
            rows.append(dedicated)
            row = None
            continue
        if row is None or len(row.children) >= _MAX_ROW_ITEMS:
            row = Row(padding=0)
            rows.append(row)
        for widget in widgets:
            row.add(widget)
    for row in rows:
        container.add(row)


def build_capability_panel(handle: FcmHandle) -> Panel:
    """Generate a control panel purely from the FCM's descriptor.

    Zero per-type code: widget ids, commands and layout come from the
    capabilities alone.  Multi-component devices get one labelled section
    per component.
    """
    descriptor = handle.descriptor
    panel = Panel(title=f"{handle.device_name} {handle.fcm_type}")
    followers: dict[str, list] = {}
    components = descriptor.components()
    for component in components:
        if components == [MAIN_COMPONENT]:
            section: Widget = panel
        else:
            section = Panel(title=component.capitalize(), padding=1)
            section.widget_id = _wid(handle, f"component.{component}")
        _fill_section(section, handle,
                      descriptor.for_component(component), followers)
        if section is not panel:
            panel.add(section)

    def follow(key: str, value: object) -> None:
        for update in followers.get(key, ()):
            update(value)

    _follow(panel, handle, follow)
    return panel


def build_generic_panel(handle: FcmHandle) -> Panel:
    """Fallback: an "unsupported" banner plus a live state dump.

    Reached for an FCM whose registry entry carries no descriptor or an
    empty one — the panel says so instead of raising, so one unknown
    device can never take the whole composed UI down.
    """
    panel = Panel(title=f"{handle.device_name} ({handle.fcm_type})")
    banner = Label(f"Unsupported appliance type: {handle.fcm_type}",
                   centered=True)
    banner.widget_id = _wid(handle, "unsupported")
    panel.add(banner)
    state = Label(", ".join(f"{k}={v}" for k, v in
                            sorted(handle.state.items())) or "(no state)")
    state.widget_id = _wid(handle, "state")
    panel.add(state)

    def follow(key: str, value: object) -> None:
        state.text = ", ".join(f"{k}={v}" for k, v in
                               sorted(handle.state.items()))

    _follow(panel, handle, follow)
    return panel


def build_fcm_panel(handle: FcmHandle) -> Panel:
    """Panel for any FCM: generated from the capability descriptor its
    registry entry carries, or the generic fallback for an FCM that
    declares no capabilities."""
    if handle.descriptor is not None and len(handle.descriptor):
        return build_capability_panel(handle)
    return build_generic_panel(handle)
