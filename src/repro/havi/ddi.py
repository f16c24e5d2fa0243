"""HAVi DDI — Data-Driven Interaction.

HAVi's own answer to device UIs: a DCM exports an *abstract element tree*
(panels, buttons, toggles, ranges, text) and controllers render it natively
and send back semantic actions.  The paper's universal interaction takes
the opposite route (ship pixels, accept raw key/pointer events) precisely
because DDI requires every controller to implement the DDI renderer and
every appliance vendor to author DDI trees.

Implementing both lets the reproduction *measure* the trade the paper only
argues: DDI moves ~100 bytes per interaction where the thin-client moves a
frame (`benchmarks/bench_ddi_vs_uip.py`), but the thin-client needs zero
appliance-side UI description and works with unmodified GUI applications.

Components:

* element model (:class:`DdiPanel`, :class:`DdiButton`, :class:`DdiToggle`,
  :class:`DdiRange`, :class:`DdiChoice`, :class:`DdiText`) with dict/JSON
  round-tripping,
* tree builders (:func:`build_tree`), which derive every FCM's elements
  from its capability descriptor — the same metadata the GUI panels come
  from — with a plain state dump for FCMs that declare none,
* the DCM as DDI target: each :class:`~repro.havi.dcm.Dcm` answers
  ``ddi.get_tree`` with :func:`build_tree` and ``ddi.action`` with
  :func:`handle_action` on its own SEID, so a home with no DDI
  controller does no DDI work,
* :func:`render_text` — a 2002-phone-style text renderer.

The controller side (``repro.app.handles.DdiController``) caches the
tree, follows the appliance's ``fcm.state.*`` events into it and sends
actions through the command spine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.havi.fcm import Fcm, FcmCommandError
from repro.havi.messaging import HaviMessage
from repro.util.errors import HaviError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.havi.dcm import Dcm


# -- element model -----------------------------------------------------------


@dataclass
class DdiElement:
    """Base element: a stable id plus a human label."""

    element_id: str
    label: str

    kind = "element"

    def to_dict(self) -> dict:
        data = {"kind": self.kind, "id": self.element_id,
                "label": self.label}
        data.update(self._extra())
        return data

    def _extra(self) -> dict:
        return {}


@dataclass
class DdiText(DdiElement):
    """Read-only status text bound to an FCM state key."""

    key: str = ""
    value: object = None

    kind = "text"

    def _extra(self) -> dict:
        return {"key": self.key, "value": self.value}


@dataclass
class DdiButton(DdiElement):
    """Press-able action bound to an FCM command."""

    command: str = ""
    args: dict = field(default_factory=dict)

    kind = "button"

    def _extra(self) -> dict:
        return {"command": self.command, "args": self.args}


@dataclass
class DdiToggle(DdiElement):
    """Boolean control bound to a state key and a setter command."""

    key: str = ""
    command: str = ""
    arg_name: str = "on"
    value: bool = False

    kind = "toggle"

    def _extra(self) -> dict:
        return {"key": self.key, "command": self.command,
                "arg": self.arg_name, "value": self.value}


@dataclass
class DdiRange(DdiElement):
    """Bounded integer control."""

    key: str = ""
    command: str = ""
    arg_name: str = "value"
    minimum: int = 0
    maximum: int = 100
    step: int = 1
    value: int = 0

    kind = "range"

    def _extra(self) -> dict:
        return {"key": self.key, "command": self.command,
                "arg": self.arg_name, "min": self.minimum,
                "max": self.maximum, "step": self.step,
                "value": self.value}


@dataclass
class DdiChoice(DdiElement):
    """One-of-N control."""

    key: str = ""
    command: str = ""
    arg_name: str = "value"
    options: tuple = ()
    value: Optional[str] = None

    kind = "choice"

    def _extra(self) -> dict:
        return {"key": self.key, "command": self.command,
                "arg": self.arg_name, "options": list(self.options),
                "value": self.value}


@dataclass
class DdiPanel(DdiElement):
    """Grouping container."""

    children: list = field(default_factory=list)

    kind = "panel"

    def _extra(self) -> dict:
        return {"children": [child.to_dict() for child in self.children]}

    def walk(self):
        yield self
        for child in self.children:
            if isinstance(child, DdiPanel):
                yield from child.walk()
            else:
                yield child

    def find(self, element_id: str) -> Optional[DdiElement]:
        for element in self.walk():
            if element.element_id == element_id:
                return element
        return None


def element_from_dict(data: dict) -> DdiElement:
    """Inverse of ``to_dict`` (controllers rebuild received trees)."""
    kind = data.get("kind")
    ident = data["id"]
    label = data.get("label", "")
    if kind == "panel":
        panel = DdiPanel(ident, label)
        panel.children = [element_from_dict(c)
                          for c in data.get("children", [])]
        return panel
    if kind == "text":
        return DdiText(ident, label, key=data.get("key", ""),
                       value=data.get("value"))
    if kind == "button":
        return DdiButton(ident, label, command=data.get("command", ""),
                         args=dict(data.get("args", {})))
    if kind == "toggle":
        return DdiToggle(ident, label, key=data.get("key", ""),
                         command=data.get("command", ""),
                         arg_name=data.get("arg", "on"),
                         value=bool(data.get("value", False)))
    if kind == "range":
        return DdiRange(ident, label, key=data.get("key", ""),
                        command=data.get("command", ""),
                        arg_name=data.get("arg", "value"),
                        minimum=int(data.get("min", 0)),
                        maximum=int(data.get("max", 100)),
                        step=int(data.get("step", 1)),
                        value=int(data.get("value", 0)))
    if kind == "choice":
        return DdiChoice(ident, label, key=data.get("key", ""),
                         command=data.get("command", ""),
                         arg_name=data.get("arg", "value"),
                         options=tuple(data.get("options", ())),
                         value=data.get("value"))
    raise HaviError(f"unknown DDI element kind {kind!r}")


# -- tree builders ------------------------------------------------------------


def _generic_spec(prefix, fcm):
    return [DdiText(f"{prefix}{key}", key, key=key)
            for key in sorted(fcm.state)]


def ddi_elements_from_descriptor(prefix: str, fcm: Fcm) -> list:
    """Derive DDI elements from the FCM's capability descriptor.

    Same metadata, different surface: the GUI panel builder maps
    capability kinds to widgets, this maps them to DDI elements.
    Multi-component FCMs get one sub-panel per component.
    """
    def convert(cap) -> DdiElement:
        eid = f"{prefix}{cap.name}"
        label = cap.display_label
        if cap.kind == "switch":
            return DdiToggle(eid, label, key=cap.attribute,
                             command=cap.command, arg_name=cap.arg_name)
        if cap.kind in ("range", "number"):
            return DdiRange(eid, label, key=cap.attribute,
                            command=cap.command, arg_name=cap.arg_name,
                            minimum=int(cap.minimum),
                            maximum=int(cap.maximum), step=int(cap.step))
        if cap.kind == "choice":
            return DdiChoice(eid, label, key=cap.attribute,
                             command=cap.command, arg_name=cap.arg_name,
                             options=tuple(cap.choices))
        if cap.kind == "button":
            return DdiButton(eid, label, command=cap.command,
                             args=dict(cap.args))
        # text, progress and any future kind degrade to status text
        return DdiText(eid, label, key=cap.attribute)

    descriptor = fcm.capability_descriptor()
    components = descriptor.components()
    if len(components) <= 1:
        return [convert(cap) for cap in descriptor]
    sections = []
    for component in components:
        section = DdiPanel(f"{prefix}component:{component}",
                           component.capitalize())
        section.children = [convert(cap)
                            for cap in descriptor.for_component(component)]
        sections.append(section)
    return sections


def build_tree(dcm: Dcm) -> DdiPanel:
    """The DDI tree for one appliance, with current state filled in.

    Each FCM's elements derive from its capability descriptor; an FCM
    that declares no capabilities exports its state keys as plain text.
    """
    root = DdiPanel(f"dcm:{dcm.guid[:8]}", dcm.name)
    for fcm in dcm.fcms:
        prefix = f"{fcm.seid.handle}:"
        panel = DdiPanel(f"{prefix}panel",
                         f"{dcm.name} {fcm.fcm_type.value}")
        if fcm.capabilities:
            panel.children = ddi_elements_from_descriptor(prefix, fcm)
        else:
            panel.children = _generic_spec(prefix, fcm)
        for element in panel.walk():
            key = getattr(element, "key", "")
            if key:
                value = fcm.get_state(key)
                if isinstance(element, DdiToggle):
                    element.value = bool(value)
                elif isinstance(element, DdiRange):
                    element.value = int(value or 0)
                else:
                    element.value = value
        root.children.append(panel)
    return root


# -- the DCM's DDI face -------------------------------------------------------


def handle_action(dcm: Dcm, message: HaviMessage) -> None:
    """Answer a ``ddi.action`` request: run its verb on the named
    element of ``dcm``'s tree, through the FCM that element belongs to."""
    element_id = str(message.payload.get("element", ""))
    verb = str(message.payload.get("verb", "press"))
    for fcm, panel in zip(dcm.fcms, build_tree(dcm).children):
        element = panel.find(element_id)
        if element is not None:
            break
    else:
        dcm.reply(message, {"detail": f"no element {element_id!r}"},
                  status="EUNKNOWN_ELEMENT")
        return
    try:
        result = _dispatch(fcm, element, verb, message.payload.get("value"))
    except FcmCommandError as error:
        dcm.reply(message, {"detail": str(error)}, status=error.status)
        return
    dcm.reply(message, result)


def _dispatch(fcm: Fcm, element: DdiElement, verb: str, value) -> dict:
    if isinstance(element, DdiButton) and verb == "press":
        return fcm.invoke_local(element.command, dict(element.args))
    if isinstance(element, DdiToggle) and verb in ("toggle", "set"):
        target = (not bool(fcm.get_state(element.key))
                  if verb == "toggle" else bool(value))
        return fcm.invoke_local(element.command, {element.arg_name: target})
    if isinstance(element, DdiRange) and verb == "set":
        return fcm.invoke_local(element.command,
                                {element.arg_name: int(value)})
    if isinstance(element, DdiChoice) and verb == "set":
        return fcm.invoke_local(element.command,
                                {element.arg_name: str(value)})
    raise FcmCommandError(
        "EINVALID_ARG", f"verb {verb!r} invalid for {element.kind} element")


# -- text rendering ---------------------------------------------------------------------


def render_text(tree: DdiPanel, width: int = 24) -> list[str]:
    """Render a DDI tree as phone-style text lines (a native 2002 client)."""
    lines: list[str] = []

    def emit(text: str, indent: int) -> None:
        lines.append((" " * indent + text)[:width])

    def visit(element: DdiElement, indent: int) -> None:
        if isinstance(element, DdiPanel):
            emit(f"[{element.label}]", indent)
            for child in element.children:
                visit(child, indent + 1)
        elif isinstance(element, DdiToggle):
            mark = "x" if element.value else " "
            emit(f"({mark}) {element.label}", indent)
        elif isinstance(element, DdiRange):
            emit(f"{element.label}: {element.value}/{element.maximum}",
                 indent)
        elif isinstance(element, DdiChoice):
            emit(f"{element.label}: {element.value}", indent)
        elif isinstance(element, DdiButton):
            emit(f"<{element.label}>", indent)
        else:
            emit(f"{element.label}: {getattr(element, 'value', '')}",
                 indent)

    visit(tree, 0)
    return lines
