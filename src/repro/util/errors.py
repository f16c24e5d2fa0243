"""Exception hierarchy for the reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause, while
still being able to distinguish protocol, transport and middleware faults.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchedulerError(ReproError):
    """Misuse of the virtual-time scheduler (e.g. scheduling in the past)."""


class ReactorError(ReproError):
    """Misuse of the I/O reactor (duplicate registration, runaway loop)."""


class TransportError(ReproError):
    """A network transport failed (framing, overflow, simulated loss)."""


class TransportClosed(TransportError):
    """Operation attempted on a transport that has been closed."""


class ProtocolError(ReproError):
    """Universal-interaction-protocol violation (bad handshake, message)."""


class GraphicsError(ReproError):
    """Invalid raster operation (bad geometry, pixel format mismatch)."""


class ToolkitError(ReproError):
    """Widget toolkit misuse (re-parenting, painting an unrooted tree)."""


class HaviError(ReproError):
    """HAVi middleware fault."""


class RegistryError(HaviError):
    """Bad registry query or duplicate registration."""


class MessagingError(HaviError):
    """Message addressed to an unknown software element."""


class FcmError(HaviError):
    """An FCM rejected a command (unsupported or invalid in this state)."""


class ProxyError(ReproError):
    """UniInt proxy misuse (unknown device, no active session)."""


class PluginError(ProxyError):
    """A device plug-in could not be instantiated or rejected an event."""


class ContextError(ReproError):
    """Invalid situation or preference data."""
