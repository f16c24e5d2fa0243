"""HAVi stream manager: AV plug connections between FCMs.

HAVi devices do more than accept commands — they stream media to each
other (the VCR's video output feeds the TV's display input).  FCMs declare
*plugs*; the :class:`StreamManager` validates and tracks connections,
notifies the sink FCM (``plug.attach`` / ``plug.detach`` commands) so it
can retune its source, posts ``stream.*`` events, and tears connections
down when either end leaves the bus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.havi.events import HaviEvent
from repro.havi.fcm import Fcm
from repro.havi.seid import SEID
from repro.util.errors import HaviError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.havi.manager import HomeNetwork


@dataclass(frozen=True)
class Plug:
    """One media attachment point on an FCM."""

    name: str
    direction: str  # "out" (source) or "in" (sink)
    media: str = "av"

    def __post_init__(self) -> None:
        if self.direction not in ("in", "out"):
            raise HaviError(f"plug direction must be in/out: "
                            f"{self.direction!r}")


@dataclass(frozen=True)
class StreamConnection:
    """An established source->sink connection."""

    connection_id: int
    source: SEID
    source_plug: str
    sink: SEID
    sink_plug: str
    media: str


class StreamManager:
    """Connects FCM output plugs to FCM input plugs."""

    def __init__(self, network: "HomeNetwork") -> None:
        self.network = network
        self._connections: dict[int, StreamConnection] = {}
        self._ids = itertools.count(1)
        network.registry.on_change.append(self._on_registry_change)

    # -- plug lookup ---------------------------------------------------------

    def _resolve_fcm(self, seid: SEID) -> Fcm:
        for dcm in self.network.dcm_manager.dcms.values():
            for fcm in dcm.fcms:
                if fcm.seid == seid:
                    return fcm
        raise HaviError(f"no installed FCM with SEID {seid}")

    def _find_plug(self, fcm: Fcm, name: str) -> Plug:
        for plug in getattr(fcm, "plugs", ()):
            if plug.name == name:
                return plug
        raise HaviError(
            f"FCM {fcm.seid} has no plug {name!r}; "
            f"plugs: {[p.name for p in getattr(fcm, 'plugs', ())]}")

    # -- connecting ----------------------------------------------------------------

    def connect(self, source: SEID, source_plug: str, sink: SEID,
                sink_plug: str) -> StreamConnection:
        """Establish a stream; validates directions, media and exclusivity."""
        src_fcm = self._resolve_fcm(source)
        dst_fcm = self._resolve_fcm(sink)
        src = self._find_plug(src_fcm, source_plug)
        dst = self._find_plug(dst_fcm, sink_plug)
        if src.direction != "out":
            raise HaviError(f"{source_plug!r} on {source} is not an output")
        if dst.direction != "in":
            raise HaviError(f"{sink_plug!r} on {sink} is not an input")
        if src.media != dst.media:
            raise HaviError(f"media mismatch: {src.media} -> {dst.media}")
        for connection in self._connections.values():
            if (connection.sink == sink
                    and connection.sink_plug == sink_plug):
                raise HaviError(
                    f"sink plug {sink}:{sink_plug} already connected "
                    f"(connection {connection.connection_id})")
        connection = StreamConnection(
            connection_id=next(self._ids),
            source=source, source_plug=source_plug,
            sink=sink, sink_plug=sink_plug, media=src.media,
        )
        self._connections[connection.connection_id] = connection
        # tell the sink where its signal now comes from
        dst_fcm.invoke_local("plug.attach", {
            "plug": sink_plug,
            "source_seid": str(source),
            "source_guid": src_fcm.device_guid,
            "source_type": src_fcm.fcm_type.value,
        })
        self.network.events.post(HaviEvent(
            source=sink,
            opcode="stream.connected",
            payload={"connection_id": connection.connection_id,
                     "source": str(source), "sink": str(sink)},
        ))
        return connection

    def disconnect(self, connection_id: int) -> None:
        connection = self._connections.pop(connection_id, None)
        if connection is None:
            raise HaviError(f"no stream connection {connection_id}")
        try:
            sink_fcm = self._resolve_fcm(connection.sink)
        except HaviError:
            sink_fcm = None  # sink already left the bus
        if sink_fcm is not None:
            sink_fcm.invoke_local("plug.detach",
                                  {"plug": connection.sink_plug})
        self.network.events.post(HaviEvent(
            source=connection.sink,
            opcode="stream.disconnected",
            payload={"connection_id": connection.connection_id},
        ))

    # -- queries --------------------------------------------------------------------

    @property
    def connections(self) -> list[StreamConnection]:
        return sorted(self._connections.values(),
                      key=lambda c: c.connection_id)

    # -- hotplug cleanup ---------------------------------------------------------------

    def _on_registry_change(self, kind: str, entry) -> None:
        if kind != "unregistered":
            return
        doomed = [c.connection_id for c in self._connections.values()
                  if c.source == entry.seid or c.sink == entry.seid]
        for connection_id in doomed:
            self.disconnect(connection_id)
