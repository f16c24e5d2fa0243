"""UniIntProxy: device registration, plug-in hosting, session management."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.framing import FrameAssembler
from repro.net.transport import Transport
from repro.proxy.descriptors import DeviceDescriptor
from repro.proxy.session import ProxySession
from repro.proxy.upstream import DEFAULT_ENCODINGS, UniIntClient
from repro.util.errors import ProxyError
from repro.util.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devices.base import InteractionDevice


@dataclass
class DeviceBinding:
    """The proxy's record of one registered device.

    Registration is the paper's "plug-in upload": the device hands over
    its descriptor plus the input/output plug-in code the proxy will
    instantiate when the device is selected.
    """

    device_id: str
    descriptor: DeviceDescriptor
    endpoint: Transport
    input_plugin_factory: Optional[type]
    output_plugin_factory: Optional[type]
    frames: FrameAssembler = field(default_factory=FrameAssembler)


class UniIntProxy:
    """The universal interaction proxy.

    One proxy serves one user: it tracks that user's reachable devices and
    maintains one session to whichever UniInt server the user currently
    controls.  (A home deploys one proxy per user.)
    """

    def __init__(self, scheduler: Scheduler,
                 proxy_id: str = "uniint-proxy") -> None:
        self.scheduler = scheduler
        self.proxy_id = proxy_id
        self.devices: dict[str, DeviceBinding] = {}
        self.session: Optional[ProxySession] = None
        #: Fired after every device registration.  The self-healing home
        #: listens here to re-run device selection when a bounced device
        #: leg re-registers (its old binding was dropped on close).
        self.on_device_registered: Optional[
            Callable[[DeviceBinding], None]] = None

    # -- device registration ---------------------------------------------------

    def register_device(self, device: "InteractionDevice",
                        endpoint: Transport) -> DeviceBinding:
        """Register a device and take its plug-in upload."""
        descriptor = device.descriptor
        if descriptor.device_id in self.devices:
            raise ProxyError(
                f"device {descriptor.device_id!r} already registered")
        binding = DeviceBinding(
            device_id=descriptor.device_id,
            descriptor=descriptor,
            endpoint=endpoint,
            input_plugin_factory=device.input_plugin_factory,
            output_plugin_factory=device.output_plugin_factory,
        )
        binding.frames.on_frame = (
            lambda blob, b=binding: self._on_device_frame(b, blob))
        endpoint.on_receive = binding.frames.feed
        endpoint.on_close = (
            lambda device_id=descriptor.device_id:
            self._on_device_closed(device_id))
        self.devices[descriptor.device_id] = binding
        if self.on_device_registered is not None:
            self.on_device_registered(binding)
        return binding

    def unregister_device(self, device_id: str) -> None:
        binding = self.devices.pop(device_id, None)
        if binding is None:
            raise ProxyError(f"no device {device_id!r} registered")
        if self.session is not None:
            self.session.deselect_device(binding)
        if binding.endpoint.is_open:
            binding.endpoint.close()

    def _on_device_closed(self, device_id: str) -> None:
        binding = self.devices.pop(device_id, None)
        if binding is not None and self.session is not None:
            self.session.deselect_device(binding)

    def binding(self, device_id: str) -> DeviceBinding:
        binding = self.devices.get(device_id)
        if binding is None:
            raise ProxyError(f"no device {device_id!r} registered")
        return binding

    def list_devices(self, require_input: bool = False,
                     require_output: bool = False) -> list[DeviceDescriptor]:
        """Registered device descriptors, optionally filtered by role."""
        out = []
        for binding in sorted(self.devices.values(),
                              key=lambda b: b.device_id):
            if require_input and not binding.descriptor.is_input:
                continue
            if require_output and not binding.descriptor.is_output:
                continue
            out.append(binding.descriptor)
        return out

    # -- device traffic ------------------------------------------------------------

    def _on_device_frame(self, binding: DeviceBinding, blob: bytes) -> None:
        if self.session is not None:
            self.session.handle_device_event(binding, blob)

    # -- sessions ----------------------------------------------------------------------

    def connect(self, server_endpoint: Transport,
                secret: Optional[str] = None,
                encodings: tuple[int, ...] = DEFAULT_ENCODINGS,
                input_device: Optional[str] = None,
                output_device: Optional[str] = None) -> ProxySession:
        """Open a session to a UniInt server over the given endpoint.

        The session mirrors the server in UIP's one wire pixel format,
        RGB888; each output device's plug-in converts that mirror for
        its screen.
        """
        if self.session is not None:
            raise ProxyError("proxy already has an active session")
        upstream = UniIntClient(server_endpoint, secret=secret,
                                encodings=encodings)
        self.session = ProxySession(self, upstream)
        if input_device is not None:
            self.select_input(input_device)
        if output_device is not None:
            self.select_output(output_device)
        return self.session

    def disconnect(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def _require_session(self) -> ProxySession:
        if self.session is None:
            raise ProxyError("proxy has no active session")
        return self.session

    # -- device selection (the dynamic switch) --------------------------------------------

    def select_input(self, device_id: Optional[str]) -> None:
        """Switch the session's input device (None clears it)."""
        session = self._require_session()
        session.select_input(
            self.binding(device_id) if device_id is not None else None)

    def select_output(self, device_id: Optional[str]) -> None:
        """Switch the session's output device (None clears it)."""
        session = self._require_session()
        session.select_output(
            self.binding(device_id) if device_id is not None else None)

    @property
    def current_input(self) -> Optional[str]:
        if self.session is None or self.session.input_binding is None:
            return None
        return self.session.input_binding.device_id

    @property
    def current_output(self) -> Optional[str]:
        if self.session is None or self.session.output_binding is None:
            return None
        return self.session.output_binding.device_id
