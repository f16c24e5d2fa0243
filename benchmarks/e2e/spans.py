"""Outside-in span recorder and the layer table of the e2e benchmark.

A *layer* is a module of ``repro``.  Each layer metric named here is
measured by wrapping a public callable of that module from the
benchmark's side — nothing under ``src/`` is edited.  :func:`traced`
installs the wrappers and restores the original class or module
attributes on exit, even when the block raises.

Self time of a span is its duration minus the time its child spans
cover, so the self times of nested layers add up without double
counting; whatever the wrapped callables do not cover shows up as
``trace.unattributed_ms``.

This module is the single table from layer metric to callable: the
``per_layer`` list of ``BENCHMARK.json`` must equal :func:`per_layer`
(the self-test checks it), and ``moves`` records, before any
measurement, which end-to-end metric and workloads a change to that
layer should move.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterator

CLOSED_LOOPS = ("pda-tap", "remote-browse", "phone-tap", "hotplug")
ALL_WORKLOADS = CLOSED_LOOPS + ("fleet-open",)
#: Workloads whose interactions start at an input device (all but the
#: appliance hotplug).
INPUT_DRIVEN = ("pda-tap", "remote-browse", "phone-tap", "fleet-open")
#: Workloads whose interactions send a HAVi command.
COMMANDING = ("pda-tap", "phone-tap", "fleet-open")
#: Workloads whose output plug-in dithers; the fleet's 160x120 homes fit
#: the PDA 1:1, so only the first two also downscale.
DITHERED = ("pda-tap", "phone-tap", "fleet-open")


@dataclass(frozen=True)
class Layer:
    """One wrapped layer: ``<name>.self_ms`` (and ``<name>.calls``)."""

    name: str
    #: ``"module:attribute"`` or ``"module:Class.method"`` callables.
    targets: tuple[str, ...]
    #: Workloads whose measured interactions must call a target.
    fires_on: tuple[str, ...]
    moves: str
    calls: bool = False


@dataclass(frozen=True)
class Metric:
    """One per-layer metric as ``BENCHMARK.json`` lists it."""

    name: str
    unit: str
    better: str
    moves: str
    #: The ``workloads`` counter whose per-interaction delta this is.
    counter: str = ""


LAYERS: tuple[Layer, ...] = (
    Layer("devices.send_event",
          ("repro.devices.base:InteractionDevice.send_event",),
          INPUT_DRIVEN, "small on every closed loop"),
    Layer("devices.image_decode",
          ("repro.proxy.plugins:DeviceImage.decode",),
          ALL_WORKLOADS,
          "interaction_p50_ms on remote-browse and hotplug"),
    Layer("proxy.output_plugin",
          ("repro.proxy.plugins:OutputPlugin.process",),
          ALL_WORKLOADS,
          "interaction_p50_ms and interactions_per_cpu_s on pda-tap, "
          "phone-tap and fleet-open; flat on remote-browse and hotplug",
          calls=True),
    Layer("proxy.handle_device_event",
          ("repro.proxy.session:ProxySession.handle_device_event",),
          INPUT_DRIVEN, "small on every closed loop"),
    Layer("proxy.image_encode",
          ("repro.proxy.plugins:DeviceImage.encode",),
          ALL_WORKLOADS,
          "interaction_p50_ms on remote-browse and hotplug"),
    Layer("uip.client_decode",
          ("repro.uip.messages:ServerMessageDecoder.feed",),
          ALL_WORKLOADS,
          "interaction_p50_ms on remote-browse and hotplug"),
    Layer("uip.decode_rect",
          ("repro.uip.encodings:decode_rect",),
          ALL_WORKLOADS,
          "interaction_p50_ms on remote-browse and hotplug"),
    Layer("uip.encode",
          ("repro.uip.messages:FramebufferUpdate.encode_chunks",),
          ALL_WORKLOADS,
          "interaction_p50_ms on remote-browse and hotplug"),
    Layer("uip.encode_rect",
          ("repro.uip.encodings:encode_rect",),
          ALL_WORKLOADS,
          "interaction_p50_ms on remote-browse and hotplug"),
    Layer("uip.server_decode",
          ("repro.uip.messages:ClientMessageDecoder.feed",),
          ALL_WORKLOADS, "small on every workload"),
    Layer("windows.composite",
          ("repro.windows.server:DisplayServer.composite",),
          ALL_WORKLOADS,
          "interaction_p50_ms on remote-browse and hotplug"),
    Layer("windows.inject",
          ("repro.windows.server:DisplayServer.inject_key",
           "repro.windows.server:DisplayServer.inject_pointer"),
          INPUT_DRIVEN, "small on every input workload"),
    Layer("toolkit.render",
          ("repro.toolkit.window:UIWindow.render",),
          ALL_WORKLOADS,
          "interaction_p50_ms on remote-browse and hotplug; more than "
          "one call per swap is a redundant render", calls=True),
    Layer("toolkit.dispatch",
          ("repro.toolkit.window:UIWindow.dispatch_key",
           "repro.toolkit.window:UIWindow.dispatch_pointer"),
          INPUT_DRIVEN, "small on every input workload"),
    Layer("app.rebuild",
          ("repro.app.application:HomeApplianceApplication.rebuild",),
          ("hotplug",),
          "interaction_p50_ms and virtual latency on hotplug; flat "
          "everywhere else", calls=True),
    Layer("app.submit",
          ("repro.app.commands:CommandSpine.submit",),
          COMMANDING + ("hotplug",),
          "at most 1% of an interaction on pda-tap, phone-tap and "
          "fleet-open", calls=True),
    Layer("app.state_event",
          ("repro.app.handles:FcmHandle.on_event",),
          COMMANDING, "small on the commanding workloads"),
    Layer("havi.bus",
          ("repro.havi.messaging:MessageSystem.send",),
          COMMANDING + ("hotplug",),
          "virtual latency on hotplug, through the descriptor-fetch "
          "round trips", calls=True),
    Layer("havi.fcm",
          ("repro.havi.fcm:Fcm.handle_request",),
          COMMANDING + ("hotplug",),
          "small on the commanding workloads"),
    Layer("graphics.scale",
          ("repro.graphics.ops:scale_box",),
          DITHERED[:2],
          "interaction_p50_ms and interactions_per_cpu_s on pda-tap and "
          "phone-tap; flat on the workloads whose frames fit 1:1"),
    Layer("graphics.dither",
          ("repro.graphics.ops:ordered_dither",
           "repro.graphics.ops:floyd_steinberg"),
          DITHERED,
          "interaction_p50_ms on pda-tap, phone-tap and fleet-open"),
    Layer("graphics.tile_diff",
          ("repro.graphics.differ:TileDiffer.refine",),
          ALL_WORKLOADS,
          "interaction_p50_ms on remote-browse and hotplug"),
    Layer("graphics.pack",
          ("repro.graphics.pixelformat:PixelFormat.pack_array",),
          ALL_WORKLOADS,
          "interaction_p50_ms on remote-browse and hotplug"),
    Layer("graphics.coalesce",
          ("repro.graphics.region:Region.coalesced",),
          ALL_WORKLOADS,
          "interaction_p50_ms on remote-browse and hotplug"),
    Layer("net.send",
          ("repro.net.transport:Transport.send",),
          ALL_WORKLOADS, "small on every workload", calls=True),
    Layer("net.assemble",
          ("repro.net.framing:FrameAssembler.feed",),
          ALL_WORKLOADS, "small on every workload"),
    Layer("net.reactor.turn",
          ("repro.net.reactor:Reactor.turn",),
          ("fleet-open",),
          "interaction_p90_ms and interactions_per_cpu_s on fleet-open "
          "only"),
)

#: Per-layer metrics read from the program's public counters (deltas over
#: the measured interactions, per interaction) rather than from spans.
COUNTER_METRICS: tuple[Metric, ...] = (
    Metric("devices.link_bytes", "B", "lower",
           "virtual latency on phone-tap and pda-tap", "link_bytes"),
    Metric("proxy.pushes_coalesced", "count", "lower",
           "virtual p95 latency on phone-tap", "pushes_coalesced"),
    Metric("uip.wire_bytes", "B", "lower",
           "virtual latency on every single-home workload", "wire_bytes"),
    Metric("server.updates_sent", "count", "lower",
           "interaction_p50_ms on remote-browse and hotplug",
           "updates_sent"),
    Metric("server.rects_sent", "count", "lower",
           "interaction_p50_ms on remote-browse and hotplug", "rects_sent"),
    Metric("server.tile_drop_ratio", "ratio", "lower",
           "share of the tile differ's checks that found no change"),
    Metric("app.commands_failed", "count", "lower",
           "the failed count of every workload", "commands_failed"),
    Metric("util.scheduler.events", "count", "lower",
           "interactions_per_cpu_s on every single-home workload",
           "scheduler_events"),
)

TRACE_METRICS: tuple[Metric, ...] = (
    Metric("trace.unattributed_ms", "ms", "lower",
           "interaction wall time no wrapped callable covers"),
    Metric("trace.coverage", "ratio", "higher",
           "sum of self times over interaction wall time"),
    Metric("trace.overhead_ratio", "ratio", "lower",
           "traced p50 over untraced p50 in the same round"),
)


def per_layer() -> list[Metric]:
    """Every per-layer metric, in ``BENCHMARK.json`` order."""
    metrics: list[Metric] = []
    for layer in LAYERS:
        metrics.append(Metric(f"{layer.name}.self_ms", "ms", "lower",
                              layer.moves))
        if layer.calls:
            metrics.append(Metric(f"{layer.name}.calls", "count", "lower",
                                  layer.moves))
    metrics.append(Metric("net.reactor.turns", "count", "lower",
                          "interaction_p90_ms on fleet-open only"))
    return metrics + list(COUNTER_METRICS) + list(TRACE_METRICS)


class SpanRecorder:
    """Keeps every span in memory; aggregates self time and calls.

    A span is ``(span_id, parent_id, tag, layer, start_s, end_s)``;
    ``tag`` is the interaction the workload was running when it opened
    (``-1`` where interactions overlap, as in the open loop).
    """

    def __init__(self) -> None:
        self.tag = -1
        # wrappers hold this list, so it is cleared, never replaced
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (between warm-up and the
        measured interactions, when no span is open)."""
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack.clear()
        self._next_id = 0

    def wrap(self, layer: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            # [id, start, time covered by children]
            frame = [span_id, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self.self_s[layer] += duration - frame[2]
                self.calls[layer] += 1
                if stack:
                    stack[-1][2] += duration
                self.spans.append((span_id, parent, self.tag, layer,
                                   frame[1], end))

        return wrapper

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, times relative to the
        first span's start."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span_id, parent, tag, layer, start, end in self.spans:
                out.write(json.dumps([span_id, parent, tag, layer,
                                      round(start - origin, 9),
                                      round(end - start, 9)]) + "\n")


def resolve(target: str):
    """``(owner, attribute)`` for one ``"module:Owner.attr"`` target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attribute


def _wrapped(recorder: SpanRecorder, layer: str, original):
    if isinstance(original, classmethod):  # DeviceImage.decode
        return classmethod(recorder.wrap(layer, original.__func__))
    return recorder.wrap(layer, original)


@contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every :data:`LAYERS` target; restore them all on exit.

    An attribute the owner only inherits is set on the owner and deleted
    again afterwards, so the class ends exactly as it started.
    """
    saved = []
    try:
        for layer in LAYERS:
            for target in layer.targets:
                owner, attribute = resolve(target)
                own = vars(owner)
                had = attribute in own
                original = own[attribute] if had else getattr(owner,
                                                              attribute)
                saved.append((owner, attribute, had, original))
                setattr(owner, attribute,
                        _wrapped(recorder, layer.name, original))
        yield recorder
    finally:
        for owner, attribute, had, original in reversed(saved):
            if had:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
