"""Simulated network substrate.

The 2002 prototype ran over a home LAN plus whatever bearer each interaction
device had (802.11b for PDAs, PDC cellular links for phones, IrDA for
remotes).  We model links as :class:`LinkProfile` objects (latency, bandwidth,
jitter, loss) and move bytes over :class:`Pipe` endpoints scheduled on the
virtual clock, so every delivery time is deterministic.  Real kernel
byte streams — in-process socketpairs and TCP — ride
:class:`SocketTransport` on a :class:`Reactor`.
"""

from repro.net.link import (
    BLUETOOTH_1,
    CELLULAR_PDC,
    ETHERNET_100,
    INFRARED_IRDA,
    LOOPBACK,
    WIFI_11B,
    LinkProfile,
)
from repro.net.pipe import Endpoint, Pipe, make_pipe
from repro.net.faults import (
    FaultInjector,
    FaultPlan,
    FaultySocket,
    FaultyTransport,
    inject_socket_faults,
)
from repro.net.framing import FrameAssembler, encode_frame, frame_chunks
from repro.net.reactor import (
    DEFAULT_EVENT_BUDGET,
    IOHandle,
    Reactor,
    ReactorMember,
    TcpListener,
    connect_tcp,
)
from repro.net.transport import (
    SocketPair,
    SocketTransport,
    Transport,
    TransportStats,
    credit_watermarks,
    make_socket_transport_pair,
)
from repro.util.errors import TransportError
from typing import Union

#: Both duplex transport pair flavours a device leg can ride on.
TransportPair = Union[Pipe, SocketPair]


__all__ = [
    "BLUETOOTH_1",
    "CELLULAR_PDC",
    "DEFAULT_EVENT_BUDGET",
    "ETHERNET_100",
    "Endpoint",
    "FaultInjector",
    "FaultPlan",
    "FaultySocket",
    "FaultyTransport",
    "FrameAssembler",
    "INFRARED_IRDA",
    "IOHandle",
    "LOOPBACK",
    "LinkProfile",
    "Pipe",
    "Reactor",
    "ReactorMember",
    "SocketPair",
    "SocketTransport",
    "TcpListener",
    "Transport",
    "TransportError",
    "TransportPair",
    "TransportStats",
    "WIFI_11B",
    "connect_tcp",
    "credit_watermarks",
    "encode_frame",
    "frame_chunks",
    "inject_socket_faults",
    "make_pipe",
    "make_socket_transport_pair",
]
