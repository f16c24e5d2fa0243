"""Minimal window system — the reproduction's X server.

The UniInt server (paper §2.2) attaches to "a window system": it ships the
window system's framebuffer out and injects key/pointer events in, with the
applications none the wiser.  :class:`DisplayServer` is that window system:
each display shows one full-screen :class:`~repro.toolkit.UIWindow`, whose
bitmap is the framebuffer.  It reports the window's damage and routes
injected universal input events into the window.
"""

from repro.windows.server import DisplayServer

__all__ = ["DisplayServer"]
