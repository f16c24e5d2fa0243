"""Widget base class: tree structure, damage, focus, event routing."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.graphics.region import Rect
from repro.toolkit.canvas import Canvas
from repro.toolkit.events import KeyPress, Pointer
from repro.toolkit.theme import Theme
from repro.util.errors import ToolkitError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.toolkit.window import UIWindow


class Widget:
    """A node in the retained widget tree.

    Geometry: ``rect`` is the widget's rectangle in *parent* coordinates;
    :meth:`abs_rect` resolves it against the chain of ancestors.  Containers
    set children's rects in :meth:`perform_layout`.
    """

    #: Can this widget take keyboard focus?
    focusable = False

    def __init__(self) -> None:
        self.parent: Optional[Widget] = None
        self.children: list[Widget] = []
        self.rect = Rect(0, 0, 0, 0)
        self.visible = True
        self.enabled = True
        #: Set by the window on the focused widget.
        self.has_focus = False
        self._window: Optional["UIWindow"] = None
        #: Optional identifier used by tests and the appliance application.
        self.widget_id: Optional[str] = None
        self._teardown_hooks: list[Callable[[], None]] = []

    # -- tree -------------------------------------------------------------

    def add(self, child: "Widget") -> "Widget":
        """Append a child; returns the child for chaining."""
        if child.parent is not None:
            raise ToolkitError("widget already has a parent")
        if child is self:
            raise ToolkitError("widget cannot contain itself")
        child.parent = self
        self.children.append(child)
        self.invalidate()
        return child

    def remove(self, child: "Widget") -> None:
        if child.parent is not self:
            raise ToolkitError("not a child of this widget")
        window = self.window
        if window is not None:
            window.forget_widget(child)
        child.parent = None
        self.children.remove(child)
        self.invalidate()

    def on_teardown(self, hook: Callable[[], None]) -> None:
        """Register a cleanup hook run when this subtree is discarded.

        Panels use this to detach their FCM state listeners: without it,
        every UI rebuild would leave the old panel's closures subscribed
        to the handle forever (the listener-leak the regression tests
        guard against).
        """
        self._teardown_hooks.append(hook)

    def teardown(self) -> None:
        """Run teardown hooks over the whole subtree (children first)."""
        for child in self.children:
            child.teardown()
        hooks, self._teardown_hooks = self._teardown_hooks, []
        for hook in hooks:
            hook()

    @property
    def window(self) -> Optional["UIWindow"]:
        node: Optional[Widget] = self
        while node is not None:
            if node._window is not None:
                return node._window
            node = node.parent
        return None

    def attach_window(self, window: Optional["UIWindow"]) -> None:
        """Called by the window on its root widget only."""
        self._window = window

    def walk(self) -> Iterator["Widget"]:
        """Pre-order traversal of this subtree (visible or not)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, widget_id: str) -> Optional["Widget"]:
        """Locate a descendant by ``widget_id``."""
        for widget in self.walk():
            if widget.widget_id == widget_id:
                return widget
        return None

    # -- geometry -------------------------------------------------------------

    def abs_rect(self) -> Rect:
        rect = self.rect
        node = self.parent
        while node is not None:
            rect = rect.translate(node.rect.x, node.rect.y)
            node = node.parent
        return rect

    def preferred_size(self, theme: Theme) -> tuple[int, int]:
        """Natural size; containers aggregate children."""
        return (10, 10)

    def perform_layout(self, theme: Theme) -> None:
        """Assign children's rects.  Default: leave children alone."""
        for child in self.children:
            child.perform_layout(theme)

    # -- damage ----------------------------------------------------------------

    def invalidate(self, rect: Optional[Rect] = None) -> None:
        """Mark this widget's area, or ``rect`` of it in local
        coordinates, as needing repaint.

        A hidden widget, or one under a hidden ancestor, adds no damage:
        it paints nothing, so whatever shows or hides it damages the
        area through a visible ancestor (a
        :class:`~repro.toolkit.TabPanel` damages the whole panel when it
        switches pages).
        """
        node: Optional[Widget] = self
        while node is not None:
            if not node.visible:
                return
            if node._window is not None:
                node._window.damage_widget(self, rect)
                return
            node = node.parent

    # -- painting ----------------------------------------------------------------

    def paint(self, canvas: Canvas, theme: Theme) -> None:
        """Draw this widget (not children) in local coordinates."""

    def paint_tree(self, canvas: Canvas, theme: Theme) -> None:
        """Paint this subtree; children the clip cannot reach are skipped
        (every primitive paints through the clipping canvas)."""
        if not self.visible:
            return
        self.paint(canvas, theme)
        for child in self.children:
            sub = canvas.offset(child.rect)
            if not sub.is_empty:
                child.paint_tree(sub, theme)

    # -- input -------------------------------------------------------------------

    def hit_test(self, x: int, y: int) -> Optional["Widget"]:
        """Deepest visible descendant containing the local point (x, y)."""
        if not self.visible or not Rect(0, 0, self.rect.w,
                                        self.rect.h).contains_point(x, y):
            return None
        for child in reversed(self.children):
            hit = child.hit_test(x - child.rect.x, y - child.rect.y)
            if hit is not None:
                return hit
        return self

    def handle_pointer(self, event: Pointer) -> bool:
        """Pointer event in local coordinates; True if consumed."""
        return False

    def handle_key(self, event: KeyPress) -> bool:
        """Key press routed to the focused widget; True if consumed."""
        return False

    # -- focus --------------------------------------------------------------------

    @property
    def can_focus(self) -> bool:
        return (self.focusable and self.visible and self.enabled
                and self.window is not None)

    def request_focus(self) -> bool:
        window = self.window
        if window is None or not self.can_focus:
            return False
        window.set_focus(self)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ident = f" id={self.widget_id!r}" if self.widget_id else ""
        return f"<{type(self).__name__}{ident} rect={self.rect}>"


class Bindable(Widget):
    """A widget with a primary action callback (buttons, toggles, lists)."""

    def __init__(self) -> None:
        super().__init__()
        self.on_activate: Optional[Callable[[Widget], None]] = None

    def activate(self) -> None:
        if not self.enabled:
            return
        if self.on_activate is not None:
            self.on_activate(self)
