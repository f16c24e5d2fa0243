"""Typed capability descriptors: the appliance→UI contract.

The paper's universal-interaction pitch is that *any* appliance becomes
controllable without per-device UI code.  A :class:`CapabilityDescriptor`
is how an FCM states what it can do in a vocabulary every surface
understands — pixel panels (:func:`repro.app.panels.build_capability_panel`),
DDI trees (:func:`repro.havi.ddi.build_tree`) and text renderers all derive
their widgets from the same descriptor, so the descriptor — not widget
code — is the unit of appliance integration.

Seven capability kinds cover the appliance gallery:

=========  =========================================  ==================
kind       meaning                                    typical widget
=========  =========================================  ==================
switch     boolean attribute + setter command         ToggleButton
range      bounded integer attribute + setter         Slider
choice     one-of-N string attribute + setter         ListBox
number     numeric entry submitted to a command       TextField
text       read-only status string                    Label
button     a command with optional fixed arguments    Button
progress   read-only bounded value                    ProgressBar
=========  =========================================  ==================

Kinds outside this table are allowed (forward compatibility): surfaces
route them to a generic ``send_command`` escape hatch.

Multi-component devices (fridge + freezer + ice maker) tag capabilities
with a ``component`` id; surfaces render one labelled section per
component.

At DCM install each FCM registers its descriptor, in plain
:meth:`CapabilityDescriptor.to_dict` form, as the ``capability.descriptor``
attribute of its registry entry, so a controller that discovers the FCM
through the registry has its descriptor in the same lookup: no bus round
trip and no cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.util.errors import HaviError

#: The capability kinds every surface has a widget mapping for.
CAPABILITY_KINDS = ("switch", "range", "choice", "number", "text",
                    "button", "progress")

#: Component id for single-component devices.
MAIN_COMPONENT = "main"


class CapabilityError(HaviError):
    """A malformed capability or descriptor."""


@dataclass(frozen=True)
class Capability:
    """One controllable or observable facet of an FCM.

    ``name`` doubles as the widget-id leaf (``<guid8>.<fcm_type>.<name>``),
    so it must be unique within the descriptor.  ``attribute`` names the
    FCM state key the capability reflects (empty for pure buttons);
    ``command`` the FCM verb that changes it (empty for read-only
    capabilities); ``arg_name`` the payload key carrying the value.
    """

    kind: str
    name: str
    label: str = ""
    attribute: str = ""
    command: str = ""
    arg_name: str = ""
    args: dict = field(default_factory=dict)
    minimum: Optional[int] = None
    maximum: Optional[int] = None
    step: int = 1
    choices: tuple = ()
    unit: str = ""
    read_only: bool = False
    component: str = MAIN_COMPONENT
    fmt: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise CapabilityError("capability needs a name")
        if not self.kind:
            raise CapabilityError(f"capability {self.name!r} needs a kind")
        if self.kind in ("range", "progress", "number"):
            if self.minimum is None or self.maximum is None:
                raise CapabilityError(
                    f"{self.kind} capability {self.name!r} needs bounds")
            if self.maximum <= self.minimum:
                raise CapabilityError(
                    f"{self.kind} capability {self.name!r} bounds empty: "
                    f"[{self.minimum}, {self.maximum}]")
        if self.kind == "choice" and not self.choices:
            raise CapabilityError(
                f"choice capability {self.name!r} needs choices")
        if not self.read_only and self.kind not in ("text", "progress"):
            if not self.command:
                raise CapabilityError(
                    f"writable capability {self.name!r} needs a command")

    @property
    def display_label(self) -> str:
        return self.label or self.name.replace("-", " ").replace("_", " ")

    def to_dict(self) -> dict:
        """Wire form; omits defaulted fields to keep descriptors small."""
        data: dict = {"kind": self.kind, "name": self.name}
        if self.label:
            data["label"] = self.label
        if self.attribute:
            data["attribute"] = self.attribute
        if self.command:
            data["command"] = self.command
        if self.arg_name:
            data["arg"] = self.arg_name
        if self.args:
            data["args"] = dict(self.args)
        if self.minimum is not None:
            data["min"] = self.minimum
        if self.maximum is not None:
            data["max"] = self.maximum
        if self.step != 1:
            data["step"] = self.step
        if self.choices:
            data["choices"] = list(self.choices)
        if self.unit:
            data["unit"] = self.unit
        if self.read_only:
            data["read_only"] = True
        if self.component != MAIN_COMPONENT:
            data["component"] = self.component
        if self.fmt:
            data["fmt"] = self.fmt
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Capability":
        return cls(
            kind=str(data["kind"]),
            name=str(data["name"]),
            label=str(data.get("label", "")),
            attribute=str(data.get("attribute", "")),
            command=str(data.get("command", "")),
            arg_name=str(data.get("arg", "")),
            args=dict(data.get("args", {})),
            minimum=(None if data.get("min") is None
                     else int(data["min"])),
            maximum=(None if data.get("max") is None
                     else int(data["max"])),
            step=int(data.get("step", 1)),
            choices=tuple(data.get("choices", ())),
            unit=str(data.get("unit", "")),
            read_only=bool(data.get("read_only", False)),
            component=str(data.get("component", MAIN_COMPONENT)),
            fmt=str(data.get("fmt", "")),
        )


@dataclass(frozen=True)
class CapabilityDescriptor:
    """Everything a surface needs to build a UI for one FCM."""

    fcm_type: str
    capabilities: tuple = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for capability in self.capabilities:
            if capability.name in seen:
                raise CapabilityError(
                    f"duplicate capability name {capability.name!r} "
                    f"in {self.fcm_type} descriptor")
            seen.add(capability.name)

    def __iter__(self) -> Iterator[Capability]:
        return iter(self.capabilities)

    def __len__(self) -> int:
        return len(self.capabilities)

    def components(self) -> list[str]:
        """Component ids in first-declared order."""
        order: list[str] = []
        for capability in self.capabilities:
            if capability.component not in order:
                order.append(capability.component)
        return order

    def for_component(self, component: str) -> list[Capability]:
        return [c for c in self.capabilities if c.component == component]

    def commands(self) -> set:
        return {c.command for c in self.capabilities if c.command}

    def attributes(self) -> set:
        return {c.attribute for c in self.capabilities if c.attribute}

    def to_dict(self) -> dict:
        return {
            "fcm_type": self.fcm_type,
            "capabilities": [c.to_dict() for c in self.capabilities],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CapabilityDescriptor":
        return cls(
            fcm_type=str(data["fcm_type"]),
            capabilities=tuple(Capability.from_dict(c)
                               for c in data.get("capabilities", ())),
        )

