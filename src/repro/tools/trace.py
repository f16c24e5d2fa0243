"""Event tracing: record what happened in a simulated home.

An :class:`EventTrace` subscribes to everything observable (HAVi events,
context switches) and produces a timestamped, deterministic log — useful
for debugging scenarios, diffing behaviour across versions, and the
examples' narratives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.havi.events import HaviEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.home import Home


@dataclass(frozen=True)
class TraceRecord:
    time: float
    category: str
    detail: dict

    def format(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"t={self.time:10.4f}  {self.category:<18} {parts}"


@dataclass
class EventTrace:
    """Recorder attachable to a :class:`~repro.home.Home`."""

    records: list = field(default_factory=list)
    _home: Optional["Home"] = None
    _subscription: Optional[int] = None

    def attach(self, home: "Home",
               event_prefix: str = "") -> "EventTrace":
        """Start recording HAVi events and context switches."""
        if self._home is not None:
            raise RuntimeError("trace already attached")
        self._home = home
        self._subscription = home.network.events.subscribe(
            event_prefix, self._on_event)
        previous = home.context.on_switch

        def on_switch(record) -> None:
            self.records.append(TraceRecord(
                time=record.time,
                category="context.switch",
                detail={
                    "input": record.input_device,
                    "output": record.output_device,
                    "location": record.situation.location,
                    "changed": record.changed,
                },
            ))
            if previous is not None:
                previous(record)

        home.context.on_switch = on_switch
        return self

    def detach(self) -> None:
        if self._home is None:
            return
        if self._subscription is not None:
            self._home.network.events.unsubscribe(self._subscription)
        self._home = None
        self._subscription = None

    def _on_event(self, event: HaviEvent) -> None:
        assert self._home is not None
        self.records.append(TraceRecord(
            time=self._home.scheduler.now(),
            category=event.opcode,
            detail={"source": str(event.source), **{
                k: v for k, v in event.payload.items()
                if k in ("key", "value", "name", "device_class",
                         "connection_id")
            }},
        ))

    # -- output ---------------------------------------------------------------

    def format(self) -> str:
        return "\n".join(record.format() for record in self.records)

    def __len__(self) -> int:
        return len(self.records)
