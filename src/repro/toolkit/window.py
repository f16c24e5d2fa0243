"""The UI window: root of a widget tree bound to a bitmap.

A :class:`UIWindow` is what an appliance application owns.  It:

* lays the widget tree out and paints it into its :class:`Bitmap`,
* tracks damage as a :class:`~repro.graphics.Region` so the UniInt server
  can send incremental updates,
* routes universal input events (keys, pointer) into the tree, handling
  keyboard focus traversal (Tab / Shift-Tab) and pointer capture.
"""

from __future__ import annotations

from typing import Optional

from repro.graphics.bitmap import Bitmap
from repro.graphics.region import Rect, Region
from repro.toolkit.canvas import Canvas
from repro.toolkit.events import KeyPress, Pointer, PointerKind
from repro.toolkit.theme import DEFAULT_THEME, Theme
from repro.toolkit.widget import Widget
from repro.uip import keysyms
from repro.util.errors import ToolkitError


class UIWindow:
    """A top-level window: bitmap + widget tree + focus + damage."""

    def __init__(self, width: int, height: int, title: str = "",
                 theme: Theme = DEFAULT_THEME) -> None:
        self.title = title
        self.theme = theme
        self.bitmap = Bitmap(width, height, fill=theme.background)
        self.damage = Region([self.bitmap.bounds])
        self.root: Optional[Widget] = None
        self.focus: Optional[Widget] = None
        self._pointer_grab: Optional[Widget] = None
        self._shift_down = False
        #: Fired whenever damage is added; the window system hooks this so
        #: out-of-band UI changes (appliance events) propagate to thin
        #: clients without an input event to trigger them.
        self.on_damage = None

    def _ping_damage(self) -> None:
        if self.on_damage is not None:
            self.on_damage()

    # -- tree management ---------------------------------------------------

    def set_root(self, root: Widget) -> None:
        if self.root is not None:
            self.root.teardown()
            self.root.attach_window(None)
        self.root = root
        root.attach_window(self)
        self.focus = None
        self._pointer_grab = None
        self.layout()
        self.focus_next()

    def layout(self) -> None:
        """Re-run layout over the whole tree and damage everything."""
        if self.root is None:
            return
        self.root.rect = self.bitmap.bounds
        self.root.perform_layout(self.theme)
        self.damage.add(self.bitmap.bounds)
        self._ping_damage()

    def forget_widget(self, widget: Widget) -> None:
        """Drop focus/grab references into a subtree being removed."""
        doomed = set(widget.walk())
        if self.focus in doomed:
            self.focus = None
        if self._pointer_grab in doomed:
            self._pointer_grab = None

    # -- damage & painting -------------------------------------------------------

    def damage_widget(self, widget: Widget,
                      rect: Optional[Rect] = None) -> None:
        """Damage ``widget``'s area, or ``rect`` of it (local coordinates,
        clipped to the widget, as its painting is)."""
        area = widget.abs_rect()
        if rect is not None:
            area = rect.translate(area.x, area.y).intersect(area)
        self.damage.add(area.intersect(self.bitmap.bounds))
        self._ping_damage()

    def render(self) -> Region:
        """Repaint damaged areas; returns the region that changed.

        The whole tree is painted through a canvas clipped to the bounding
        box of the damage, so pixels inside that box but outside the
        damage are repainted unchanged.
        """
        if self.damage.is_empty:
            return Region()
        painted = self.damage
        self.damage = Region()
        clip = painted.bounds()
        self.bitmap.fill_rect(clip, self.theme.background)
        if self.root is not None:
            canvas = Canvas(self.bitmap, self.root.rect.x, self.root.rect.y,
                            clip)
            self.root.paint_tree(canvas, self.theme)
        return painted

    # -- focus ---------------------------------------------------------------------

    def _focus_order(self) -> list[Widget]:
        if self.root is None:
            return []
        order = []
        for widget in self.root.walk():
            if widget.focusable and widget.visible and widget.enabled:
                # ancestors must be visible too
                node = widget.parent
                hidden = False
                while node is not None:
                    if not node.visible:
                        hidden = True
                        break
                    node = node.parent
                if not hidden:
                    order.append(widget)
        return order

    def set_focus(self, widget: Optional[Widget]) -> None:
        if widget is self.focus:
            return
        if widget is not None and widget.window is not self:
            raise ToolkitError("widget belongs to another window")
        if self.focus is not None:
            self.focus.has_focus = False
            self.focus.invalidate()
        self.focus = widget
        if widget is not None:
            widget.has_focus = True
            widget.invalidate()

    def focus_next(self) -> Optional[Widget]:
        return self._advance_focus(+1)

    def focus_previous(self) -> Optional[Widget]:
        return self._advance_focus(-1)

    def _advance_focus(self, direction: int) -> Optional[Widget]:
        order = self._focus_order()
        if not order:
            self.set_focus(None)
            return None
        if self.focus not in order:
            target = order[0 if direction > 0 else -1]
        else:
            index = order.index(self.focus)
            target = order[(index + direction) % len(order)]
        self.set_focus(target)
        return target

    # -- input routing -------------------------------------------------------------

    def dispatch_key_event(self, keysym: int, down: bool) -> bool:
        """Entry point for universal key events (tracks shift state)."""
        if keysym in (keysyms.SHIFT_L, keysyms.SHIFT_R):
            self._shift_down = down
            return True
        if not down:
            return True  # releases handled, not routed
        return self.dispatch_key(KeyPress(keysym))

    def dispatch_key(self, event: KeyPress) -> bool:
        if event.keysym == keysyms.TAB:
            if self._shift_down:
                self.focus_previous()
            else:
                self.focus_next()
            return True
        node = self.focus
        while node is not None:
            if node.handle_key(event):
                return True
            node = node.parent
        return False

    def dispatch_pointer(self, event: Pointer) -> bool:
        """Route a pointer event (window coordinates) into the tree."""
        if self.root is None:
            return False
        if self._pointer_grab is not None:
            target = self._pointer_grab
        else:
            target = self.root.hit_test(event.x - self.root.rect.x,
                                        event.y - self.root.rect.y)
            if target is None:
                return False
        origin = target.abs_rect()
        local = Pointer(event.kind, event.x - origin.x, event.y - origin.y,
                        event.buttons)
        consumed = False
        node: Optional[Widget] = target
        while node is not None:
            if node.handle_pointer(local):
                consumed = True
                target = node
                break
            shift = node.rect
            local = local.translated(shift.x, shift.y)
            node = node.parent
        if event.kind is PointerKind.DOWN and consumed:
            self._pointer_grab = target
        elif event.kind is PointerKind.UP:
            self._pointer_grab = None
        return consumed

    # -- convenience for tests and examples ---------------------------------------

    def click(self, x: int, y: int) -> None:
        """Synthesises a full press/release at (x, y)."""
        self.dispatch_pointer(Pointer(PointerKind.DOWN, x, y, 1))
        self.dispatch_pointer(Pointer(PointerKind.UP, x, y, 0))

    def press_key(self, keysym: int) -> None:
        self.dispatch_key_event(keysym, True)
        self.dispatch_key_event(keysym, False)
