"""Interaction device base class and the device-link wire format.

A device talks to the proxy over the flow-controlled
:class:`~repro.net.transport.Transport` stack, shaped by its bearer's
:class:`~repro.net.LinkProfile` — the same credit-watermark machinery the
server leg uses, so a 9600 bps phone screen gets bounded-queue coalescing
from the proxy's push path:

* device -> proxy: JSON-encoded native events (taps, key presses,
  utterances, strokes) — small, like real input reports;
* proxy -> device: tagged frames — screen images (tag 0x01, a
  :class:`~repro.proxy.plugins.DeviceImage` blob, dominating the
  bandwidth) and bell notifications (tag 0x02, e.g. the microwave ding
  surfaced as a device beep).

An image is a *box*: a rectangle of whole bytes of the screen's packed
rows, given by its byte offset and byte width within a row and its first
row (the payload length gives the row count).  A full frame is the box of
every byte; the output plug-in sends one on its first push and after a
reconnect, and a box (possibly empty) of what changed on every other
push.  The device keeps one screen buffer, a :class:`DeviceScreen`: a
full frame replaces it and a box is copied over it.

A device may be connected to several proxies at once (a shared wall panel
every resident's proxy can select): each connection is its own transport
pair plus frame assembler, and native events are broadcast to every
connected proxy — sessions that have not selected the device ignore them,
so at most one user's session acts on any event.  The leg whose full
frame the screen shows owns it: a box from any other leg (a session that
lost the device, its last pushes still in flight) is dropped.
"""

from __future__ import annotations

import json
import random
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from repro.graphics import ops
from repro.net import (
    ReactorMember,
    TransportPair,
    make_pipe,
    make_socket_transport_pair,
)
from repro.net.framing import FrameAssembler, encode_frame
from repro.net.link import LOOPBACK
from repro.net.transport import Transport, TransportStats
from repro.proxy.descriptors import DeviceDescriptor
from repro.proxy.plugins import DeviceImage
from repro.proxy.plugins import LINK_TAG_BELL, LINK_TAG_IMAGE
from repro.proxy.session import REDIAL_ATTEMPTS, redial_delay
from repro.util.errors import ProxyError
from repro.util.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.proxy.proxy import UniIntProxy


class DeviceScreen:
    """The packed rows a device screen shows, built by the images that
    reach it: a full frame replaces them and a box is copied over them.

    ``name`` labels the errors: a box before any full frame, or a box of
    a screen of another size or format, raises :class:`ProxyError`.
    """

    def __init__(self, name: str = "screen") -> None:
        self.name = name
        #: The last full frame's bytes, until a box makes them a bytearray
        #: (so a full frame is copied once, when one is first changed).
        self._rows: Union[bytes, bytearray, None] = None
        #: ``(width, height, format)``, or None before the first frame.
        self._geometry: Optional[tuple[int, int, str]] = None

    @property
    def image(self) -> Optional[DeviceImage]:
        """The whole screen as a full frame (built when read), or None
        before the first frame."""
        if self._geometry is None:
            return None
        return DeviceImage(*self._geometry, bytes(self._rows))

    def show(self, image: DeviceImage) -> None:
        """Apply ``image``, a decoded (so valid) full frame or box."""
        geometry = (image.width, image.height, image.format)
        if image.is_full:
            self._rows, self._geometry = image.data, geometry
            return
        if self._geometry is None:
            raise ProxyError(f"{self.name} got a box before any full frame")
        if geometry != self._geometry:
            raise ProxyError(f"{self.name} got a box of a {geometry} screen "
                             f"over a {self._geometry} one")
        if isinstance(self._rows, bytes):
            self._rows = bytearray(self._rows)
        image.blit(self._rows)


class InteractionDevice:
    """A simulated interaction device.

    Subclasses set :attr:`input_plugin_factory` /
    :attr:`output_plugin_factory` (the plug-in modules uploaded to the
    proxy) and implement :meth:`build_descriptor`.
    """

    kind = "generic"
    input_plugin_factory: Optional[type] = None
    output_plugin_factory: Optional[type] = None

    def __init__(self, device_id: str, scheduler: Scheduler,
                 seed: int = 0) -> None:
        self.device_id = device_id
        self.scheduler = scheduler
        self.seed = seed
        self.descriptor: DeviceDescriptor = self.build_descriptor()
        #: One transport pair per connected proxy, keyed by proxy id;
        #: ``pair.a`` is always the device-side endpoint.
        self._pairs: dict[str, TransportPair] = {}
        self._assemblers: dict[str, FrameAssembler] = {}
        #: What the screen shows, and the proxy id of the leg its last
        #: full frame came on.
        self._screen = DeviceScreen(f"device {device_id}")
        self._screen_leg: Optional[str] = None
        self.frames_received = 0
        self.bells_received = 0
        #: Test/demo hook fired with each image shown, as it arrived (a
        #: box, or a full frame).
        self.on_frame: Optional[Callable[[DeviceImage], None]] = None
        #: Test/demo hook fired when the proxy forwards a bell (beep!).
        self.on_bell: Optional[Callable[[], None]] = None
        #: Self-healing: when set, a leg dropped by a transport failure is
        #: redialed with the session's backoff and jitter
        #: (:func:`~repro.proxy.session.redial_delay`).  Deliberate
        #: :meth:`disconnect` calls are never retried.
        #: ``Home(resilience=True)`` enables this on every device it adds.
        self.auto_reconnect = False
        self.link_reconnects = 0
        self.link_reconnects_failed = 0
        #: Proxies we should redial (by proxy id), and the reactor member
        #: each leg was dialed on (None for a pipe).  Entries survive a
        #: link failure and are removed only by a deliberate disconnect.
        self._proxies: dict[str, "UniIntProxy"] = {}
        self._members: dict[str, Optional[ReactorMember]] = {}
        self._reconnect_rng = random.Random(
            repr(("device-reconnect", device_id, seed)))

    def build_descriptor(self) -> DeviceDescriptor:
        raise NotImplementedError

    # -- connection ----------------------------------------------------------

    @property
    def connected(self) -> bool:
        return any(pair.a.is_open for pair in self._pairs.values())

    @property
    def connected_proxies(self) -> tuple[str, ...]:
        """Ids of the proxies this device currently has a link to."""
        return tuple(sorted(self._pairs))

    def connect(self, proxy: "UniIntProxy",
                member: Optional[ReactorMember] = None) -> None:
        """Join a proxy over this device's bearer link.

        The leg rides the flow-controlled Transport stack: credit
        watermarks derive from the bearer's :class:`LinkProfile` whether
        the bytes move over the simulated pipe (the default) or, given
        the reactor ``member`` that drives this device's scheduler, a
        real kernel socketpair on that reactor.
        """
        if proxy.scheduler is not self.scheduler:
            # events would fire on the wrong clock in a multi-scheduler
            # setup — the silent legacy behaviour of adopting the proxy's
            # scheduler hid exactly that bug
            raise ProxyError(
                f"device {self.device_id} was built on a different "
                f"scheduler than proxy {proxy.proxy_id!r}")
        if proxy.proxy_id in self._pairs:
            raise ProxyError(f"device {self.device_id} already connected "
                             f"to proxy {proxy.proxy_id!r}")
        link = self.descriptor.link if self.descriptor.link else LOOPBACK
        name = f"dev-{self.device_id}@{proxy.proxy_id}"
        pair = (make_pipe(self.scheduler, link, name=name, seed=self.seed)
                if member is None
                else make_socket_transport_pair(member, link, name=name))
        assembler = FrameAssembler(
            on_frame=lambda blob, proxy_id=proxy.proxy_id:
            self._on_frame_blob(proxy_id, blob))
        pair.a.on_receive = assembler.feed
        pair.a.on_close = (
            lambda proxy_id=proxy.proxy_id: self._on_link_closed(proxy_id))
        self._pairs[proxy.proxy_id] = pair
        self._assemblers[proxy.proxy_id] = assembler
        try:
            proxy.register_device(self, pair.b)
        except ProxyError:
            self._pairs.pop(proxy.proxy_id, None)
            self._assemblers.pop(proxy.proxy_id, None)
            pair.a.on_close = None
            pair.close()
            raise
        self._proxies[proxy.proxy_id] = proxy
        self._members[proxy.proxy_id] = member

    def disconnect(self, proxy_id: Optional[str] = None) -> None:
        """Drop the link to one proxy (or to all of them)."""
        proxy_ids = ([proxy_id] if proxy_id is not None
                     else list(self._pairs))
        for pid in proxy_ids:
            pair = self._pairs.pop(pid, None)
            self._assemblers.pop(pid, None)
            self._proxies.pop(pid, None)
            self._members.pop(pid, None)
            if pair is not None:
                pair.a.on_close = None
                pair.close()

    def _on_link_closed(self, proxy_id: str) -> None:
        """The leg died under us (reset, unregister, proxy teardown)."""
        self._pairs.pop(proxy_id, None)
        self._assemblers.pop(proxy_id, None)
        proxy = self._proxies.get(proxy_id)
        if self.auto_reconnect and proxy is not None:
            self._schedule_redial(proxy, attempt=0)

    def _schedule_redial(self, proxy: "UniIntProxy", attempt: int) -> None:
        if attempt >= REDIAL_ATTEMPTS:
            self.link_reconnects_failed += 1
            return
        self.scheduler.call_later(
            redial_delay(self._reconnect_rng, attempt),
            lambda: self._redial(proxy, attempt))

    def _redial(self, proxy: "UniIntProxy", attempt: int) -> None:
        pid = proxy.proxy_id
        if (not self.auto_reconnect or self._proxies.get(pid) is not proxy
                or pid in self._pairs):
            return  # deliberately disconnected (or already relinked)
        try:
            self.connect(proxy, member=self._members.get(pid))
        except ProxyError:
            self._schedule_redial(proxy, attempt + 1)
            return
        self.link_reconnects += 1

    def endpoint_for(self, proxy_id: str) -> Transport:
        """The device-side transport endpoint of one proxy leg."""
        pair = self._pairs.get(proxy_id)
        if pair is None:
            raise ProxyError(f"device {self.device_id} is not connected "
                             f"to proxy {proxy_id!r}")
        return pair.a

    @property
    def link_stats(self) -> TransportStats:
        """Traffic counters of the device side of the (sole) link."""
        if not self._pairs:
            raise ProxyError(f"device {self.device_id} is not connected")
        if len(self._pairs) > 1:
            raise ProxyError(
                f"device {self.device_id} is connected to "
                f"{len(self._pairs)} proxies; use "
                f"endpoint_for(proxy_id).stats")
        return next(iter(self._pairs.values())).a.stats

    # -- device -> proxy events ----------------------------------------------------

    def send_event(self, event: dict) -> None:
        """Transmit one native event to every connected proxy.

        Broadcast is safe: a proxy session that has not selected this
        device hears the event and ignores it, so only the owning user's
        session translates it into universal input.
        """
        if not self._pairs:
            raise ProxyError(f"device {self.device_id} is not connected")
        payload = encode_frame(
            json.dumps(event, sort_keys=True).encode("utf-8"))
        for pair in self._pairs.values():
            if pair.a.is_open:
                pair.a.send(payload)

    # -- proxy -> device frames -------------------------------------------------------

    @property
    def screen_image(self) -> Optional[DeviceImage]:
        """The whole screen as a full frame (built when read), or None
        before the first frame."""
        return self._screen.image

    def _on_frame_blob(self, proxy_id: str, blob: bytes) -> None:
        if not blob:
            raise ProxyError("empty device-link frame")
        tag = blob[0]
        if tag == LINK_TAG_IMAGE:
            image = DeviceImage.decode(memoryview(blob)[1:])
            if image.is_full:
                self._screen_leg = proxy_id
            elif self._screen_leg not in (None, proxy_id):
                return  # another leg's full frame owns the screen now
            self._screen.show(image)
            self.frames_received += 1
            if self.on_frame is not None:
                self.on_frame(image)
        elif tag == LINK_TAG_BELL:
            self.bells_received += 1
            if self.on_bell is not None:
                self.on_bell()
        else:
            raise ProxyError(f"unknown device-link tag {tag}")

    def screen_luma(self) -> np.ndarray:
        """The current screen contents as (H, W) luma — for tests/demos."""
        image = self.screen_image
        if image is None:
            raise ProxyError(f"device {self.device_id} has no frame yet")
        if image.format == "mono1":
            return ops.unpack_mono(image.data, image.width, image.height)
        if image.format == "gray4":
            return ops.unpack_gray4(image.data, image.width, image.height)
        if image.format == "rgb888":
            rgb = np.frombuffer(image.data, dtype=np.uint8).reshape(
                image.height, image.width, 3)
            return rgb.astype(np.float64) @ np.asarray([0.299, 0.587, 0.114])
        raise ProxyError(f"unknown screen format {image.format!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.device_id!r}>"
