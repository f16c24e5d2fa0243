"""HAVi-class home-network middleware.

The paper's prototype controls appliances through the authors' home
computing system, which implements HAVi (Home Audio/Video
Interoperability) — the consumer-electronics middleware of the era.  This
package reproduces the HAVi concepts the universal interaction system
depends on:

* **SEIDs** — software element identifiers (device GUID + handle),
* **Message system** — asynchronous request/response messaging between
  software elements, delivered on the virtual clock,
* **Registry** — attribute-based lookup of software elements with a
  comparison/boolean query language,
* **Event manager** — publish/subscribe system events (hotplug, state
  changes),
* **DCM / FCM** — a Device Control Module per appliance exposing one
  Functional Component Module per controllable function (tuner, VCR
  transport, amplifier, ...),
* **Home bus** — a simulated IEEE-1394-style bus with hotplug, driving a
  DCM manager that installs/uninstalls DCMs as devices come and go.
"""

from repro.havi.seid import SEID
from repro.havi.messaging import HaviMessage, MessageSystem, MessageType
from repro.havi.registry import (
    Comparison,
    Query,
    QueryAnd,
    QueryNot,
    QueryOr,
    Registry,
)
from repro.havi.events import EventManager, HaviEvent
from repro.havi.element import SoftwareElement
from repro.havi.capabilities import (
    CAPABILITY_KINDS,
    MAIN_COMPONENT,
    Capability,
    CapabilityDescriptor,
    CapabilityError,
)
from repro.havi.fcm import Fcm, FcmCommandError, FcmType
from repro.havi.dcm import Dcm
from repro.havi.bus import DeviceInfo, HomeBus
from repro.havi.manager import DcmManager, HomeNetwork
from repro.havi.streams import Plug, StreamConnection, StreamManager

__all__ = [
    "CAPABILITY_KINDS",
    "Capability",
    "CapabilityDescriptor",
    "CapabilityError",
    "Comparison",
    "Dcm",
    "MAIN_COMPONENT",
    "DcmManager",
    "DeviceInfo",
    "EventManager",
    "Fcm",
    "FcmCommandError",
    "FcmType",
    "HaviEvent",
    "HaviMessage",
    "HomeBus",
    "HomeNetwork",
    "MessageSystem",
    "MessageType",
    "Plug",
    "Query",
    "QueryAnd",
    "QueryNot",
    "QueryOr",
    "Registry",
    "SEID",
    "SoftwareElement",
    "StreamConnection",
    "StreamManager",
]
