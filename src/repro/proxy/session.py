"""ProxySession: one user's live path from devices to an appliance UI.

The session owns the upstream framebuffer mirror and the *currently
selected* input/output plug-in pair.  Selecting a different device swaps
the plug-in (and re-pushes the whole frame to a new output device) without
touching the upstream connection — the appliance application never notices
a switch, which is the paper's dynamic-selection property.
"""

from __future__ import annotations

import json
import random
from typing import TYPE_CHECKING, Callable, Optional

from repro.graphics.region import Rect
from repro.net.framing import frame_chunks
from repro.net.transport import Transport
from repro.proxy.plugins import (
    LINK_TAG_BELL,
    LINK_TAG_IMAGE,
    InputPlugin,
    OutputPlugin,
    SessionContext,
)
from repro.proxy.upstream import UniIntClient
from repro.util.errors import ProxyError, TransportError
from repro.util.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.proxy.proxy import DeviceBinding, UniIntProxy

#: How many recent rejected-event strings a session keeps.
PLUGIN_ERRORS_KEPT = 32

#: How a dead leg redials, a session's upstream and a device's alike: the
#: wait doubles from ``REDIAL_BASE_S`` up to ``REDIAL_CAP_S``, for at most
#: ``REDIAL_ATTEMPTS`` attempts.
REDIAL_BASE_S = 0.2
REDIAL_CAP_S = 5.0
REDIAL_ATTEMPTS = 8
#: Unanswered pings that declare the upstream leg dead.
MAX_MISSED_PINGS = 3
#: Virtual seconds one redial may take to complete its handshake.
ATTEMPT_TIMEOUT_S = 2.0
#: Idle heartbeats after which a healthy session stops probing.
DORMANT_AFTER_BEATS = 2

_NO_DAMAGE = Rect(0, 0, 0, 0)


def redial_delay(rng: random.Random, retry: int) -> float:
    """Seconds before redial ``retry`` (0 for the first), jittered by
    U(0.5, 1.5) drawn from ``rng`` to de-sync a redialing fleet."""
    return (min(REDIAL_CAP_S, REDIAL_BASE_S * (2 ** retry))
            * rng.uniform(0.5, 1.5))


class SessionResilience:
    """Self-healing for one session's upstream leg.

    Two death signals feed one recovery path:

    * the transport closes under the session (RST, EOF) or the client
      aborts it (a failed handshake) — immediate;
    * an activity-gated heartbeat finds :data:`MAX_MISSED_PINGS` pings
      unanswered (a stalled or partitioned link that never delivered a
      FIN).

    Recovery redials with exponential backoff, jitter and a cap
    (:func:`redial_delay`; the jitter RNG is seeded with ``seed``, which a
    home makes its name and the user id, so sessions that die together
    redial apart), and adopts the fresh
    :class:`~repro.proxy.upstream.UniIntClient` in place — plug-ins,
    device bindings and selection survive.  Each redial is a fresh UIP
    session offering the same encodings; the cost is exactly one
    full-frame resync (the non-incremental request every new client
    sends).

    Heartbeats are *dormant-by-default*: a session that is idle for
    :data:`DORMANT_AFTER_BEATS` consecutive beats stops probing until
    device events or updates wake it.  Every timer here is one-shot, so
    ``run_until_idle``/``settle`` still terminate — an idle healthy home
    goes quiet instead of beating forever.
    """

    def __init__(self, session: "ProxySession", scheduler: Scheduler,
                 dial: Callable[[], Transport], *, seed: object,
                 heartbeat_s: float = 0.5) -> None:
        self.session = session
        self.scheduler = scheduler
        self.dial = dial
        self.heartbeat_s = heartbeat_s
        self._rng = random.Random(repr(("resilience", seed)))
        self.enabled = True
        self.reconnecting = False
        self.failed_permanently = False
        # -- observability ------------------------------------------------
        self.heartbeats_sent = 0
        self.reconnect_count = 0
        #: Virtual seconds from death detection to session readiness, one
        #: entry per successful reconnect (the bench's p50/p99 source).
        self.reconnect_latencies: list[float] = []
        self.death_reasons: list[str] = []
        self.attempt_failures: list[str] = []
        self.give_up_reason: Optional[str] = None
        # -- internals ----------------------------------------------------
        self._hb_event = None
        self._retry_event = None
        self._attempt_timer = None
        self._pending_upstream: Optional[UniIntClient] = None
        self._idle_beats = 0
        self._attempt = 0
        self._death_at: Optional[float] = None
        self._last_activity = self._activity()
        self._hook(session.upstream)
        self._arm_heartbeat()

    # -- liveness ---------------------------------------------------------

    def _activity(self) -> tuple[int, int]:
        up = self.session.upstream
        return (up.updates_received, self.session.events_forwarded)

    def _hook(self, upstream: UniIntClient) -> None:
        upstream.on_session_close = self._on_lost

    def _arm_heartbeat(self) -> None:
        if (not self.enabled or self.reconnecting
                or self._hb_event is not None):
            return
        self._hb_event = self.scheduler.call_later(self.heartbeat_s,
                                                   self._beat)

    def wake(self) -> None:
        """Traffic observed: make sure a dormant heartbeat is re-armed."""
        self._idle_beats = 0
        self._arm_heartbeat()

    def _beat(self) -> None:
        self._hb_event = None
        if not self.enabled or self.reconnecting:
            return
        up = self.session.upstream
        if up.closed:
            return  # the close handler drives recovery
        if up.outstanding_pings >= MAX_MISSED_PINGS:
            self._declare_dead(
                f"{up.outstanding_pings} unanswered pings")
            return
        activity = self._activity()
        if activity != self._last_activity:
            self._last_activity = activity
            self._idle_beats = 0
        else:
            self._idle_beats += 1
            if (self._idle_beats > DORMANT_AFTER_BEATS
                    and up.outstanding_pings == 0):
                return  # healthy and idle: go dormant until woken
        if up.ready:
            up.ping()
            self.heartbeats_sent += 1
        self._arm_heartbeat()

    def _declare_dead(self, reason: str) -> None:
        up = self.session.upstream
        self.death_reasons.append(reason)
        self._death_at = self.scheduler.now()
        # Hard-kill the zombie leg (RST) so the server closes its session
        # now instead of holding a half-open peer.
        up.on_session_close = None
        up.closed = True
        if up.endpoint.is_open:
            up.endpoint.abort()
        self._begin_reconnect()

    def _on_lost(self) -> None:
        """The transport died under us (reset or EOF)."""
        if not self.enabled or self.reconnecting:
            return
        self.death_reasons.append("transport closed")
        self._death_at = self.scheduler.now()
        self._begin_reconnect()

    # -- reconnect --------------------------------------------------------

    def _begin_reconnect(self) -> None:
        if not self.enabled or self.failed_permanently:
            return
        self.reconnecting = True
        self._cancel(("_hb_event",))
        self._attempt = 0
        self._schedule_attempt(0.0)

    def _schedule_attempt(self, delay: float) -> None:
        self._retry_event = self.scheduler.call_later(delay,
                                                      self._try_attempt)

    def _try_attempt(self) -> None:
        self._retry_event = None
        if not self.enabled:
            return
        if self._attempt >= REDIAL_ATTEMPTS:
            self.failed_permanently = True
            self.reconnecting = False
            self.give_up_reason = (
                f"gave up after {REDIAL_ATTEMPTS} attempts: "
                f"{self.death_reasons[-1] if self.death_reasons else '?'}")
            return
        self._attempt += 1
        old = self.session.upstream
        try:
            endpoint = self.dial()
        except (TransportError, OSError) as error:
            self._retry_later(f"dial failed: {error}")
            return
        upstream = UniIntClient(endpoint, secret=old.secret,
                                encodings=old.encodings)
        upstream.on_session_close = self._on_attempt_close
        upstream.on_ready = self._on_reconnected
        self._pending_upstream = upstream
        self._attempt_timer = self.scheduler.call_later(
            ATTEMPT_TIMEOUT_S, self._on_attempt_timeout)

    def _retry_later(self, reason: str) -> None:
        self.attempt_failures.append(f"attempt {self._attempt}: {reason}")
        self._schedule_attempt(redial_delay(self._rng, self._attempt - 1))

    def _abandon_attempt(self) -> None:
        self._cancel(("_attempt_timer",))
        up, self._pending_upstream = self._pending_upstream, None
        if up is not None:
            up.on_ready = up.on_session_close = None
            up.closed = True
            if up.endpoint.is_open:
                up.endpoint.abort()

    def _on_attempt_timeout(self) -> None:
        self._attempt_timer = None
        self._abandon_attempt()
        self._retry_later("attempt timed out")

    def _on_attempt_close(self) -> None:
        self._cancel(("_attempt_timer",))
        up, self._pending_upstream = self._pending_upstream, None
        self._retry_later(f"handshake failed: {up.handshake_failure}"
                          if up.handshake_failure is not None
                          else "connection died mid-handshake")

    def _on_reconnected(self) -> None:
        upstream, self._pending_upstream = self._pending_upstream, None
        self._cancel(("_attempt_timer",))
        assert upstream is not None
        self.reconnecting = False
        self.reconnect_count += 1
        if self._death_at is not None:
            self.reconnect_latencies.append(
                self.scheduler.now() - self._death_at)
            self._death_at = None
        self.session._adopt_upstream(upstream)
        upstream.on_ready = None
        self._hook(upstream)
        self._last_activity = self._activity()
        self._idle_beats = 0
        self._arm_heartbeat()

    # -- teardown ---------------------------------------------------------

    def _cancel(self, names: tuple[str, ...]) -> None:
        for name in names:
            event = getattr(self, name)
            if event is not None:
                event.cancel()
                setattr(self, name, None)

    def disable(self) -> None:
        """Stop all timers and abandon any in-flight redial."""
        if not self.enabled:
            return
        self.enabled = False
        self.reconnecting = False
        self._cancel(("_hb_event", "_retry_event"))
        self._abandon_attempt()


class ProxySession:
    """Wires an upstream UIP client to one input and one output device."""

    def __init__(self, proxy: "UniIntProxy", upstream: UniIntClient) -> None:
        self.proxy = proxy
        self.upstream = upstream
        self.context = SessionContext()
        self.input_binding: Optional["DeviceBinding"] = None
        self.output_binding: Optional["DeviceBinding"] = None
        self.input_plugin: Optional[InputPlugin] = None
        self.output_plugin: Optional[OutputPlugin] = None
        self.switch_count = 0
        self.frames_pushed = 0
        self.events_forwarded = 0
        #: Damage awaiting a saturated output link, as one bounding rect:
        #: grown here instead of queueing stale frames, flushed when the
        #: transport drains.
        self._deferred_push = _NO_DAMAGE
        #: Frame pushes withheld by device-link backpressure.
        self.updates_coalesced = 0
        #: The newest :data:`PLUGIN_ERRORS_KEPT` device events the input
        #: plug-in rejected (malformed payloads), oldest first.
        self.plugin_errors: list[str] = []
        #: Self-healing machinery; installed by :meth:`enable_resilience`.
        self.resilience: Optional[SessionResilience] = None
        upstream.on_update = self._on_update
        upstream.on_ready = self._push_full_frame
        upstream.on_bell = self._on_bell

    # -- self-healing --------------------------------------------------------

    def enable_resilience(self, scheduler: Scheduler,
                          dial: Callable[[], Transport],
                          **kwargs) -> SessionResilience:
        """Arm heartbeats and automatic reconnect for the upstream leg.

        ``dial`` must return a fresh connected transport to the same
        UniInt server each time it is called (it will be called once per
        reconnect attempt).
        """
        if self.resilience is not None:
            raise ProxyError("session resilience already enabled")
        self.resilience = SessionResilience(self, scheduler, dial, **kwargs)
        return self.resilience

    def _adopt_upstream(self, upstream: UniIntClient) -> None:
        """Swap in a reconnected upstream client, keeping session state.

        Plug-ins, bindings and selection are untouched; the frame content
        arrives via the new client's single non-incremental update,
        which flows through :meth:`_on_update` like any other damage.
        """
        old = self.upstream
        if old is not upstream:
            old.on_update = None
            old.on_ready = None
            old.on_bell = None
            old.on_session_close = None
        self.upstream = upstream
        upstream.on_update = self._on_update
        upstream.on_bell = self._on_bell

    # -- device selection ----------------------------------------------------

    def select_input(self, binding: Optional["DeviceBinding"]) -> None:
        """Install (or clear) the input device; uploads its plug-in."""
        if binding is self.input_binding:
            return
        if binding is not None:
            if not binding.descriptor.is_input:
                raise ProxyError(
                    f"device {binding.device_id!r} is not an input device")
            if binding.input_plugin_factory is None:
                raise ProxyError(
                    f"device {binding.device_id!r} supplied no input plug-in")
        if self.input_binding is not None:
            self.switch_count += 1
        self.input_binding = binding
        self.context.input_descriptor = (binding.descriptor
                                         if binding else None)
        self.input_plugin = (
            binding.input_plugin_factory(binding.descriptor, self.context)
            if binding is not None else None)

    def select_output(self, binding: Optional["DeviceBinding"]) -> None:
        """Install (or clear) the output device; re-pushes the full frame."""
        if binding is self.output_binding:
            return
        if binding is not None:
            if not binding.descriptor.is_output:
                raise ProxyError(
                    f"device {binding.device_id!r} is not an output device")
            if binding.output_plugin_factory is None:
                raise ProxyError(
                    f"device {binding.device_id!r} supplied no output "
                    f"plug-in")
        if self.output_binding is not None:
            self.switch_count += 1
            self.output_binding.endpoint.on_writable = None
        self.output_binding = binding
        self._deferred_push = _NO_DAMAGE
        self.context.output_descriptor = (binding.descriptor
                                          if binding else None)
        self.context.view = None
        self.output_plugin = (
            binding.output_plugin_factory(binding.descriptor, self.context)
            if binding is not None else None)
        if binding is not None:
            binding.endpoint.on_writable = self._on_output_writable
            self._push_full_frame()

    def deselect_device(self, binding: "DeviceBinding") -> None:
        """Clear the device from whichever role it holds (on unregister)."""
        if self.input_binding is binding:
            self.select_input(None)
        if self.output_binding is binding:
            self.select_output(None)

    # -- device -> upstream ---------------------------------------------------------

    def handle_device_event(self, binding: "DeviceBinding",
                            blob: bytes) -> None:
        """A framed native event arrived from a registered device.

        A malformed event (bad JSON, plug-in rejection) is recorded and
        dropped — one broken device report must never take the session
        down.
        """
        if self.resilience is not None:
            self.resilience.wake()
        if binding is not self.input_binding or self.input_plugin is None:
            return  # unselected devices are heard but ignored
        try:
            event = json.loads(blob.decode("utf-8"))
            messages = self.input_plugin.process(event)
        except (ValueError, ProxyError) as error:
            self.plugin_errors.append(
                f"{binding.device_id}: {error}")
            if len(self.plugin_errors) > PLUGIN_ERRORS_KEPT:
                del self.plugin_errors[:-PLUGIN_ERRORS_KEPT]
            return
        for message in messages:
            self.events_forwarded += 1
            if self.upstream.endpoint.is_open:
                self.upstream.endpoint.send(message.encode())

    # -- upstream -> device -----------------------------------------------------------

    def _on_update(self, dirty: Rect) -> None:
        if self.resilience is not None:
            self.resilience.wake()
        self._push_frame(dirty)

    def _push_full_frame(self) -> None:
        if self.upstream.framebuffer is not None:
            self._push_frame(self.upstream.framebuffer.bounds)

    def _on_output_writable(self) -> None:
        """The output device's link drained: flush any deferred damage."""
        if not self._deferred_push.is_empty:
            self._push_frame(_NO_DAMAGE)

    def _push_frame(self, dirty: Rect) -> None:
        if (self.output_plugin is None or self.output_binding is None
                or self.upstream.framebuffer is None):
            return
        self._deferred_push = self._deferred_push.union_bounds(dirty)
        if self._deferred_push.is_empty:
            return
        endpoint = self.output_binding.endpoint
        if not endpoint.writable:
            # The device bearer is saturated (a phone link mid-frame):
            # hold the damage merged in ``_deferred_push``; the endpoint's
            # on_writable flushes one fresh frame once the link drains.
            self.updates_coalesced += 1
            return
        dirty, self._deferred_push = self._deferred_push, _NO_DAMAGE
        image = self.output_plugin.process(self.upstream.framebuffer, dirty)
        if endpoint.is_open:
            endpoint.send(frame_chunks(
                (bytes([LINK_TAG_IMAGE]), *image.encode())))
            self.frames_pushed += 1

    def _on_bell(self) -> None:
        """Forward a server bell to the output device as a beep."""
        if (self.output_binding is not None
                and self.output_binding.endpoint.is_open):
            self.output_binding.endpoint.send(frame_chunks(
                bytes([LINK_TAG_BELL])))

    # -- teardown -----------------------------------------------------------------------

    def close(self) -> None:
        if self.resilience is not None:
            self.resilience.disable()
        self.upstream.close()
        self.select_input(None)
        if self.output_binding is not None:
            self.output_binding.endpoint.on_writable = None
        self.output_plugin = None
        self.output_binding = None
