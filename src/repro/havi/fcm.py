"""Functional Component Modules: the controllable units of an appliance.

A HAVi DCM exposes one FCM per controllable function — a TV is a tuner FCM
plus a display FCM; a VCR is a transport FCM plus a tuner FCM.  FCMs accept
*commands* (request messages), hold *state*, and post ``fcm.state.*`` events
whenever state changes, which is what keeps control panels live.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.havi.capabilities import (
    Capability,
    CapabilityDescriptor,
    MAIN_COMPONENT,
)
from repro.havi.element import SoftwareElement
from repro.havi.events import EventManager, HaviEvent
from repro.havi.messaging import HaviMessage, MessageSystem
from repro.havi.seid import SEID
from repro.util.errors import FcmError


class FcmType(enum.Enum):
    """HAVi standard FCM types plus the white-goods extensions the paper's
    home (kitchen, lights, air conditioning) needs."""

    TUNER = "tuner"
    VCR = "vcr"
    CLOCK = "clock"
    CAMERA = "camera"
    AV_DISC = "av_disc"
    AMPLIFIER = "amplifier"
    DISPLAY = "display"
    MODEM = "modem"
    WEB_PROXY = "web_proxy"
    # vendor extensions (HAVi reserves a vendor-specific range)
    AIRCON = "aircon"
    LIGHT = "light"
    MICROWAVE = "microwave"
    REFRIGERATOR = "refrigerator"


class FcmCommandError(FcmError):
    """A command was rejected; carries the HAVi-style status code."""

    def __init__(self, status: str, detail: str = "") -> None:
        super().__init__(detail or status)
        self.status = status


CommandHandler = Callable[[dict], dict]

#: Sentinel distinguishing "no initial value" from ``initial=None``.
_UNSET = object()


class Fcm(SoftwareElement):
    """Base FCM: a command table plus observable state.

    Subclasses call :meth:`register_command` for each verb and
    :meth:`set_state` for every observable value; everything else
    (messaging, events, introspection) is inherited.
    """

    fcm_type: FcmType = FcmType.CLOCK

    def __init__(self, seid: SEID, messaging: MessageSystem,
                 events: EventManager, device_guid: str,
                 device_name: str) -> None:
        super().__init__(seid, messaging)
        self.events = events
        self.device_guid = device_guid
        self.device_name = device_name
        self._state: dict[str, object] = {}
        self._commands: dict[str, CommandHandler] = {}
        self._capabilities: list[Capability] = []
        #: Media plugs (see :mod:`repro.havi.streams`); subclasses append.
        self.plugs: tuple = ()
        self.register_command("fcm.describe", self._cmd_describe)
        self.register_command("fcm.get_state", self._cmd_get_state)

    def add_plug(self, name: str, direction: str, media: str = "av") -> None:
        """Declare a media plug on this FCM."""
        from repro.havi.streams import Plug
        self.plugs = self.plugs + (Plug(name, direction, media),)

    # -- commands -----------------------------------------------------------

    def register_command(self, opcode: str, handler: CommandHandler) -> None:
        if opcode in self._commands:
            raise FcmError(f"duplicate command {opcode!r}")
        self._commands[opcode] = handler

    @property
    def commands(self) -> list[str]:
        return sorted(self._commands)

    def handle_request(self, message: HaviMessage) -> None:
        handler = self._commands.get(message.opcode)
        if handler is None:
            self.reply(message, status="EUNSUPPORTED")
            return
        try:
            result = handler(dict(message.payload))
        except FcmCommandError as error:
            self.reply(message, {"detail": str(error)}, status=error.status)
            return
        self.reply(message, result if result is not None else {})

    def invoke_local(self, opcode: str, payload: dict | None = None) -> dict:
        """Synchronous command invocation (appliance-internal use, tests)."""
        handler = self._commands.get(opcode)
        if handler is None:
            raise FcmCommandError("EUNSUPPORTED", f"no command {opcode!r}")
        result = handler(dict(payload or {}))
        return result if result is not None else {}

    # -- capabilities --------------------------------------------------------

    def declare_capability(self, capability: Capability, *,
                           handler: Optional[CommandHandler] = None,
                           initial: object = _UNSET) -> Capability:
        """Declare one capability, wiring state and command in the same act.

        Passing ``handler`` registers the capability's command; passing
        ``initial`` seeds the capability's state attribute.  Because the
        declaration *is* the registration, the descriptor cannot name a
        command or attribute the FCM does not implement —
        :meth:`validate_capabilities` (run at DCM install) catches the
        remaining drift direction (a capability whose command/attribute
        was declared elsewhere and later removed).
        """
        if any(c.name == capability.name for c in self._capabilities):
            raise FcmError(f"duplicate capability {capability.name!r}")
        if capability.attribute and initial is not _UNSET:
            self.init_state(capability.attribute, initial)
        if capability.command and handler is not None:
            self.register_command(capability.command, handler)
        self._capabilities.append(capability)
        return capability

    def declare_switch(self, name: str, *, command: str, arg: str = "on",
                       handler: Optional[CommandHandler] = None,
                       attribute: Optional[str] = None,
                       initial: object = _UNSET, label: str = "",
                       component: str = MAIN_COMPONENT) -> Capability:
        return self.declare_capability(Capability(
            kind="switch", name=name, label=label, command=command,
            arg_name=arg, attribute=attribute if attribute is not None
            else name, component=component), handler=handler,
            initial=initial)

    def declare_range(self, name: str, minimum: int, maximum: int, *,
                      command: str, arg: str, step: int = 1,
                      handler: Optional[CommandHandler] = None,
                      attribute: Optional[str] = None,
                      initial: object = _UNSET, unit: str = "",
                      label: str = "",
                      component: str = MAIN_COMPONENT) -> Capability:
        return self.declare_capability(Capability(
            kind="range", name=name, label=label, command=command,
            arg_name=arg, minimum=minimum, maximum=maximum, step=step,
            unit=unit, attribute=attribute if attribute is not None
            else name, component=component), handler=handler,
            initial=initial)

    def declare_choice(self, name: str, choices, *, command: str, arg: str,
                       handler: Optional[CommandHandler] = None,
                       attribute: Optional[str] = None,
                       initial: object = _UNSET, label: str = "",
                       component: str = MAIN_COMPONENT) -> Capability:
        return self.declare_capability(Capability(
            kind="choice", name=name, label=label, command=command,
            arg_name=arg, choices=tuple(choices),
            attribute=attribute if attribute is not None else name,
            component=component), handler=handler, initial=initial)

    def declare_number(self, name: str, minimum: int, maximum: int, *,
                       command: str, arg: str,
                       handler: Optional[CommandHandler] = None,
                       attribute: str = "", initial: object = _UNSET,
                       unit: str = "", label: str = "",
                       component: str = MAIN_COMPONENT) -> Capability:
        return self.declare_capability(Capability(
            kind="number", name=name, label=label, command=command,
            arg_name=arg, minimum=minimum, maximum=maximum, unit=unit,
            attribute=attribute, component=component), handler=handler,
            initial=initial)

    def declare_text(self, name: str, *, attribute: Optional[str] = None,
                     initial: object = _UNSET, fmt: str = "",
                     label: str = "",
                     component: str = MAIN_COMPONENT) -> Capability:
        return self.declare_capability(Capability(
            kind="text", name=name, label=label, read_only=True, fmt=fmt,
            attribute=attribute if attribute is not None else name,
            component=component), initial=initial)

    def declare_progress(self, name: str, minimum: int, maximum: int, *,
                         attribute: Optional[str] = None,
                         initial: object = _UNSET, unit: str = "",
                         label: str = "",
                         component: str = MAIN_COMPONENT) -> Capability:
        return self.declare_capability(Capability(
            kind="progress", name=name, label=label, read_only=True,
            minimum=minimum, maximum=maximum, unit=unit,
            attribute=attribute if attribute is not None else name,
            component=component), initial=initial)

    def declare_button(self, name: str, *, command: str,
                       handler: Optional[CommandHandler] = None,
                       args: dict | None = None, label: str = "",
                       component: str = MAIN_COMPONENT) -> Capability:
        return self.declare_capability(Capability(
            kind="button", name=name, label=label, command=command,
            args=dict(args or {}), component=component), handler=handler)

    @property
    def capabilities(self) -> tuple:
        return tuple(self._capabilities)

    def capability_descriptor(self) -> CapabilityDescriptor:
        return CapabilityDescriptor(
            fcm_type=self.fcm_type.value,
            capabilities=tuple(self._capabilities))

    def validate_capabilities(self) -> None:
        """Descriptor↔behaviour drift guard (run at DCM install).

        Every capability command must be a registered verb and every
        capability attribute an existing state key, so a descriptor can
        never promise a surface something the FCM won't honour.
        """
        for capability in self._capabilities:
            if capability.command and (capability.command
                                       not in self._commands):
                raise FcmError(
                    f"{self.fcm_type.value} capability "
                    f"{capability.name!r} names unregistered command "
                    f"{capability.command!r}")
            if capability.attribute and (capability.attribute
                                         not in self._state):
                raise FcmError(
                    f"{self.fcm_type.value} capability "
                    f"{capability.name!r} names unknown attribute "
                    f"{capability.attribute!r}")

    # -- state -------------------------------------------------------------------

    def get_state(self, key: str, default: object = None) -> object:
        return self._state.get(key, default)

    @property
    def state(self) -> dict[str, object]:
        return dict(self._state)

    def set_state(self, key: str, value: object) -> None:
        """Update one state variable, posting an event when it changes."""
        if self._state.get(key) == value and key in self._state:
            return
        self._state[key] = value
        self.events.post(HaviEvent(
            source=self.seid,
            opcode=f"fcm.state.{key}",
            payload={
                "seid": str(self.seid),
                "fcm_type": self.fcm_type.value,
                "device_guid": self.device_guid,
                "key": key,
                "value": value,
            },
        ))

    def init_state(self, key: str, value: object) -> None:
        """Set initial state without posting an event."""
        self._state[key] = value

    # -- introspection ---------------------------------------------------------------

    def _cmd_describe(self, payload: dict) -> dict:
        return {
            "fcm_type": self.fcm_type.value,
            "device_guid": self.device_guid,
            "device_name": self.device_name,
            "commands": self.commands,
            "state": self.state,
        }

    def _cmd_get_state(self, payload: dict) -> dict:
        return {"state": self.state}

    # -- registry ------------------------------------------------------------------

    def registry_attributes(self) -> dict[str, object]:
        """The registry entry; it carries the descriptor, so discovery
        needs no further round trip to build a panel."""
        return {
            "element.type": "fcm",
            "fcm.type": self.fcm_type.value,
            "device.guid": self.device_guid,
            "device.name": self.device_name,
            "capability.descriptor": self.capability_descriptor().to_dict(),
        }

    # -- guards ---------------------------------------------------------------------

    def require_power(self) -> None:
        """Common guard: many commands are invalid while powered off."""
        if not self.get_state("power", False):
            raise FcmCommandError("EPOWER_OFF",
                                  f"{self.device_name} is powered off")

    @staticmethod
    def require_arg(payload: dict, name: str) -> object:
        if name not in payload:
            raise FcmCommandError("EINVALID_ARG", f"missing argument {name!r}")
        return payload[name]
