"""The display server: one full-screen window, its damage, input routing."""

from __future__ import annotations

from typing import Callable, Optional

from repro.graphics.bitmap import Bitmap
from repro.graphics.region import Region
from repro.toolkit.events import Pointer, PointerKind
from repro.toolkit.window import UIWindow

#: Fragmentation cap for the coalesced damage a composite reports.
_DAMAGE_CAP = 32


class DisplayServer:
    """One display showing one full-screen window; injects universal input.

    Key properties the UniInt server relies on:

    * :attr:`framebuffer` is the window's bitmap, so it always holds the
      current screen once :meth:`composite` has run,
    * :meth:`composite` returns the damage region since the last call,
    * :meth:`inject_key` / :meth:`inject_pointer` accept exactly the
      universal input event vocabulary (keysym+down, position+button mask).
    """

    def __init__(self, window: UIWindow) -> None:
        self.window = window
        self._pointer_buttons = 0
        #: Fired when the window is damaged; the UniInt server hooks this
        #: to schedule update pushes.
        self.on_damage: Optional[Callable[[], None]] = None
        window.on_damage = self._window_damaged

    @property
    def framebuffer(self) -> Bitmap:
        return self.window.bitmap

    def _window_damaged(self) -> None:
        if self.on_damage is not None:
            self.on_damage()

    # -- damage ------------------------------------------------------------------

    def composite(self) -> Region:
        """Render the window's damage; return the changed screen region.

        An undamaged window is not rendered: the region is empty.  The
        damage is coalesced (adjacent fragments fused, at most
        ``_DAMAGE_CAP`` rects) so two small damages in opposite corners
        do not reach the encoders as their joint bounding box.
        """
        if self.window.damage.is_empty:
            return Region()
        damage = self.window.render()
        return Region.from_disjoint(damage.coalesced(_DAMAGE_CAP))

    # -- input injection -----------------------------------------------------------

    def inject_key(self, keysym: int, down: bool) -> bool:
        """Route a universal key event to the window."""
        return self.window.dispatch_key_event(keysym, down)

    def inject_pointer(self, x: int, y: int, buttons: int) -> bool:
        """Route a universal pointer event (absolute position + mask).

        Button transitions are synthesised into DOWN/UP events.  While a
        button is held, the window's pointer grab keeps delivering to the
        pressed widget, even when the pointer leaves the screen.
        """
        pressed = buttons & ~self._pointer_buttons
        released = self._pointer_buttons & ~buttons
        self._pointer_buttons = buttons
        if pressed:
            kind = PointerKind.DOWN
        elif released:
            kind = PointerKind.UP
        else:
            kind = PointerKind.MOVE
        return self.window.dispatch_pointer(Pointer(kind, x, y, buttons))
