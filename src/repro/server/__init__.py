"""The UniInt server (paper §2.2, component 2).

"The UniInt server transmits bitmap images generated by a window system
using the universal interaction protocol to a UniInt proxy.  Also, it
forwards mouse and keyboard events received from a UniInt proxy to the
window system."

:class:`UniIntServer` multiplexes one or more
:class:`~repro.windows.DisplayServer` instances (one
:class:`ServerSurface` each — per-user views in a multi-user home) and
accepts any number of UIP connections; each :class:`ServerSession` binds
to one surface and carries its own handshake, encoding preferences and
incremental update state — the applications above the
window system are untouched, which is the paper's transparency property.
"""

from repro.server.uniint_server import (
    ServerSession,
    ServerSurface,
    UniIntServer,
)

__all__ = ["ServerSession", "ServerSurface", "UniIntServer"]
