"""The widget gallery used by appliance control panels."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.graphics.bitmap import Color
from repro.graphics.region import Rect
from repro.toolkit.canvas import Canvas
from repro.toolkit.events import KeyPress, Pointer, PointerKind
from repro.toolkit.layout import Column
from repro.toolkit.theme import Theme
from repro.toolkit.widget import Bindable, Widget
from repro.uip import keysyms
from repro.util.errors import ToolkitError


class Label(Widget):
    """Static text, optionally centred, optionally title-sized."""

    def __init__(self, text: str, centered: bool = False,
                 title: bool = False,
                 color: Optional[Color] = None) -> None:
        super().__init__()
        self._text = text
        self.centered = centered
        self.title = title
        self.color = color

    @property
    def text(self) -> str:
        return self._text

    @text.setter
    def text(self, value: str) -> None:
        if value != self._text:
            self._text = value
            self.invalidate()

    def _font(self, theme: Theme):
        return theme.title_font if self.title else theme.font

    def preferred_size(self, theme: Theme) -> tuple[int, int]:
        w, h = self._font(theme).measure(self._text)
        return (w + 2, h + 2)

    def paint(self, canvas: Canvas, theme: Theme) -> None:
        color = self.color if self.color is not None else theme.text
        font = self._font(theme)
        local = Rect(0, 0, self.rect.w, self.rect.h)
        if self.centered:
            canvas.text_centered(local, self._text, color, font)
        else:
            h = font.measure(self._text)[1]
            canvas.text(1, max(0, (self.rect.h - h) // 2), self._text,
                        color, font)


class Button(Bindable):
    """Push button: click or Return/Space activates."""

    focusable = True

    def __init__(self, text: str,
                 on_click: Optional[Callable[[Widget], None]] = None) -> None:
        super().__init__()
        self._text = text
        self.on_activate = on_click
        self.pressed = False

    @property
    def text(self) -> str:
        return self._text

    @text.setter
    def text(self, value: str) -> None:
        if value != self._text:
            self._text = value
            self.invalidate()

    def preferred_size(self, theme: Theme) -> tuple[int, int]:
        w, h = theme.font.measure(self._text)
        return (w + 14, h + 10)

    def paint(self, canvas: Canvas, theme: Theme) -> None:
        local = Rect(0, 0, self.rect.w, self.rect.h)
        face = (theme.face_disabled if not self.enabled
                else theme.face_pressed if self.pressed else theme.face)
        canvas.bevel(local, face, theme.light, theme.shadow,
                     sunken=self.pressed)
        text_color = theme.text if self.enabled else theme.text_disabled
        canvas.text_centered(local, self._text, text_color, theme.font)
        if self.has_focus:
            canvas.outline(local.inset(2), theme.focus)

    def handle_pointer(self, event: Pointer) -> bool:
        if not self.enabled:
            return False
        if event.kind is PointerKind.DOWN:
            self.pressed = True
            self.request_focus()
            self.invalidate()
            return True
        if event.kind is PointerKind.UP:
            was_pressed = self.pressed
            self.pressed = False
            self.invalidate()
            inside = Rect(0, 0, self.rect.w, self.rect.h).contains_point(
                event.x, event.y)
            if was_pressed and inside:
                self.activate()
            return True
        return False

    def handle_key(self, event: KeyPress) -> bool:
        if event.keysym in (keysyms.RETURN, keysyms.SPACE):
            self.activate()
            return True
        return False


class ToggleButton(Bindable):
    """Two-state button (power switches, mute, etc.)."""

    focusable = True

    def __init__(self, text: str, value: bool = False,
                 on_change: Optional[Callable[[Widget], None]] = None) -> None:
        super().__init__()
        self.text = text
        self._value = value
        self.on_activate = on_change

    @property
    def value(self) -> bool:
        return self._value

    @value.setter
    def value(self, state: bool) -> None:
        if state != self._value:
            self._value = state
            self.invalidate()

    def toggle(self) -> None:
        if not self.enabled:
            return
        self._value = not self._value
        self.invalidate()
        if self.on_activate is not None:
            self.on_activate(self)

    def preferred_size(self, theme: Theme) -> tuple[int, int]:
        w, h = theme.font.measure(self.text)
        return (w + 14, h + 10)

    def paint(self, canvas: Canvas, theme: Theme) -> None:
        local = Rect(0, 0, self.rect.w, self.rect.h)
        face = theme.accent if self._value else theme.face
        text = theme.accent_text if self._value else theme.text
        if not self.enabled:
            face, text = theme.face_disabled, theme.text_disabled
        canvas.bevel(local, face, theme.light, theme.shadow,
                     sunken=self._value)
        canvas.text_centered(local, self.text, text, theme.font)
        if self.has_focus:
            canvas.outline(local.inset(2), theme.focus)

    def handle_pointer(self, event: Pointer) -> bool:
        if event.kind is PointerKind.DOWN and self.enabled:
            self.request_focus()
            self.toggle()
            return True
        return event.kind is PointerKind.UP

    def handle_key(self, event: KeyPress) -> bool:
        if event.keysym in (keysyms.RETURN, keysyms.SPACE):
            self.toggle()
            return True
        return False


class Slider(Bindable):
    """Horizontal value slider (volume, temperature, channel seek)."""

    focusable = True

    def __init__(self, minimum: int = 0, maximum: int = 100,
                 value: int = 0, step: int = 1,
                 on_change: Optional[Callable[[Widget], None]] = None) -> None:
        super().__init__()
        if maximum <= minimum:
            raise ToolkitError(f"slider range empty: [{minimum}, {maximum}]")
        if step < 1:
            raise ToolkitError(f"slider step must be >= 1: {step}")
        self.minimum = minimum
        self.maximum = maximum
        self.step = step
        self._value = max(minimum, min(maximum, value))
        self.on_activate = on_change
        self._dragging = False

    @property
    def value(self) -> int:
        return self._value

    @value.setter
    def value(self, new_value: int) -> None:
        clamped = max(self.minimum, min(self.maximum, int(new_value)))
        if clamped != self._value:
            self._value = clamped
            self.invalidate()

    def _set_and_notify(self, new_value: int) -> None:
        before = self._value
        self.value = new_value
        if self._value != before and self.on_activate is not None:
            self.on_activate(self)

    def preferred_size(self, theme: Theme) -> tuple[int, int]:
        return (80, 16)

    def _track_rect(self) -> Rect:
        return Rect(4, self.rect.h // 2 - 2, max(1, self.rect.w - 8), 4)

    def _value_to_x(self, value: int) -> int:
        track = self._track_rect()
        span = self.maximum - self.minimum
        return track.x + (value - self.minimum) * max(track.w - 1, 1) // span

    def _x_to_value(self, x: int) -> int:
        track = self._track_rect()
        span = self.maximum - self.minimum
        rel = min(max(x - track.x, 0), max(track.w - 1, 1))
        return self.minimum + round(rel * span / max(track.w - 1, 1))

    def paint(self, canvas: Canvas, theme: Theme) -> None:
        local = Rect(0, 0, self.rect.w, self.rect.h)
        canvas.fill(local, theme.face)
        track = self._track_rect()
        canvas.bevel(track, theme.well, theme.shadow, theme.light,
                     sunken=True)
        filled = Rect(track.x, track.y,
                      max(0, self._value_to_x(self._value) - track.x),
                      track.h)
        canvas.fill(filled, theme.accent)
        knob_x = self._value_to_x(self._value)
        knob = Rect(knob_x - 3, local.y + 2, 7, max(4, local.h - 4))
        canvas.bevel(knob, theme.face, theme.light, theme.shadow)
        if self.has_focus:
            canvas.outline(local, theme.focus)

    def handle_pointer(self, event: Pointer) -> bool:
        if not self.enabled:
            return False
        if event.kind is PointerKind.DOWN:
            self._dragging = True
            self.request_focus()
            self._set_and_notify(self._x_to_value(event.x))
            return True
        if event.kind is PointerKind.MOVE and self._dragging:
            self._set_and_notify(self._x_to_value(event.x))
            return True
        if event.kind is PointerKind.UP:
            self._dragging = False
            return True
        return False

    def handle_key(self, event: KeyPress) -> bool:
        if event.keysym == keysyms.LEFT:
            self._set_and_notify(self._value - self.step)
            return True
        if event.keysym == keysyms.RIGHT:
            self._set_and_notify(self._value + self.step)
            return True
        if event.keysym == keysyms.HOME:
            self._set_and_notify(self.minimum)
            return True
        if event.keysym == keysyms.END:
            self._set_and_notify(self.maximum)
            return True
        return False


class ProgressBar(Widget):
    """Read-only progress/level indicator."""

    def __init__(self, minimum: int = 0, maximum: int = 100,
                 value: int = 0) -> None:
        super().__init__()
        if maximum <= minimum:
            raise ToolkitError(f"progress range empty: [{minimum}, {maximum}]")
        self.minimum = minimum
        self.maximum = maximum
        self._value = max(minimum, min(maximum, value))

    @property
    def value(self) -> int:
        return self._value

    @value.setter
    def value(self, new_value: int) -> None:
        clamped = max(self.minimum, min(self.maximum, int(new_value)))
        if clamped != self._value:
            self._value = clamped
            self.invalidate()

    def preferred_size(self, theme: Theme) -> tuple[int, int]:
        return (80, 12)

    def paint(self, canvas: Canvas, theme: Theme) -> None:
        local = Rect(0, 0, self.rect.w, self.rect.h)
        canvas.bevel(local, theme.well, theme.shadow, theme.light,
                     sunken=True)
        span = self.maximum - self.minimum
        fraction = (self._value - self.minimum) / span
        inner = local.inset(2)
        filled = Rect(inner.x, inner.y, int(inner.w * fraction), inner.h)
        canvas.fill(filled, theme.accent)


class ListBox(Bindable):
    """Scrolling single-selection list (channel lists, source pickers)."""

    focusable = True

    def __init__(self, items: Sequence[str] = (),
                 on_select: Optional[Callable[[Widget], None]] = None) -> None:
        super().__init__()
        self._items = list(items)
        self.selected = 0 if items else -1
        self.scroll_top = 0
        self.on_activate = on_select

    @property
    def items(self) -> list[str]:
        return list(self._items)

    @property
    def selected_item(self) -> Optional[str]:
        if 0 <= self.selected < len(self._items):
            return self._items[self.selected]
        return None

    def _row_height(self, theme: Theme) -> int:
        return theme.font.glyph_height + 4

    def _visible_rows(self, theme: Theme) -> int:
        return max(1, (self.rect.h - 4) // self._row_height(theme))

    def preferred_size(self, theme: Theme) -> tuple[int, int]:
        rows = min(max(len(self._items), 1), 6)
        width = 60
        for item in self._items:
            width = max(width, theme.font.measure(item)[0] + 12)
        return (width, rows * self._row_height(theme) + 4)

    def _select(self, index: int, theme_rows: int) -> None:
        if not self._items:
            return
        index = max(0, min(len(self._items) - 1, index))
        if index == self.selected:
            return
        self.selected = index
        if index < self.scroll_top:
            self.scroll_top = index
        elif index >= self.scroll_top + theme_rows:
            self.scroll_top = index - theme_rows + 1
        self.invalidate()
        if self.on_activate is not None:
            self.on_activate(self)

    def paint(self, canvas: Canvas, theme: Theme) -> None:
        local = Rect(0, 0, self.rect.w, self.rect.h)
        canvas.bevel(local, theme.well, theme.shadow, theme.light,
                     sunken=True)
        row_h = self._row_height(theme)
        visible = self._visible_rows(theme)
        for row in range(visible):
            index = self.scroll_top + row
            if index >= len(self._items):
                break
            item_rect = Rect(2, 2 + row * row_h, local.w - 4, row_h)
            if index == self.selected:
                canvas.fill(item_rect, theme.accent)
                color = theme.accent_text
            else:
                color = theme.text
            canvas.text(item_rect.x + 2,
                        item_rect.y + (row_h - theme.font.glyph_height) // 2,
                        self._items[index], color, theme.font)
        if self.has_focus:
            canvas.outline(local, theme.focus)

    def handle_pointer(self, event: Pointer) -> bool:
        if event.kind is not PointerKind.DOWN or not self.enabled:
            return event.kind is PointerKind.UP
        self.request_focus()
        # theme is not passed to input handlers; use the default row height
        # (fonts are fixed in this toolkit, so this is exact).
        from repro.toolkit.theme import DEFAULT_THEME
        row_h = self._row_height(DEFAULT_THEME)
        index = self.scroll_top + (event.y - 2) // row_h
        if 0 <= index < len(self._items):
            self._select(index, self._visible_rows(DEFAULT_THEME))
        return True

    def handle_key(self, event: KeyPress) -> bool:
        from repro.toolkit.theme import DEFAULT_THEME
        rows = self._visible_rows(DEFAULT_THEME)
        if event.keysym == keysyms.UP:
            self._select(self.selected - 1, rows)
            return True
        if event.keysym == keysyms.DOWN:
            self._select(self.selected + 1, rows)
            return True
        if event.keysym == keysyms.PAGE_UP:
            self._select(self.selected - rows, rows)
            return True
        if event.keysym == keysyms.PAGE_DOWN:
            self._select(self.selected + rows, rows)
            return True
        return False


class TextField(Bindable):
    """Single-line text entry (channel numbers, timer values).

    Printable keysyms insert at the cursor; Backspace/Delete edit;
    Left/Right/Home/End move; Return submits via ``on_activate``.
    """

    focusable = True

    def __init__(self, text: str = "", max_length: int = 32,
                 on_submit: Optional[Callable[[Widget], None]] = None
                 ) -> None:
        super().__init__()
        if max_length < 1:
            raise ToolkitError(f"max_length must be >= 1: {max_length}")
        self._text = text[:max_length]
        self.max_length = max_length
        self.cursor = len(self._text)
        self.on_activate = on_submit

    @property
    def text(self) -> str:
        return self._text

    @text.setter
    def text(self, value: str) -> None:
        value = value[:self.max_length]
        if value != self._text:
            self._text = value
            self.cursor = min(self.cursor, len(value))
            self.invalidate()

    def clear(self) -> None:
        self.text = ""
        self.cursor = 0

    def preferred_size(self, theme: Theme) -> tuple[int, int]:
        width = min(self.max_length, 12) * theme.font.advance + 10
        return (width, theme.font.glyph_height + 8)

    def paint(self, canvas: Canvas, theme: Theme) -> None:
        local = Rect(0, 0, self.rect.w, self.rect.h)
        canvas.bevel(local, theme.well, theme.shadow, theme.light,
                     sunken=True)
        text_y = (self.rect.h - theme.font.glyph_height) // 2
        canvas.text(4, text_y, self._text, theme.text, theme.font)
        if self.has_focus:
            cursor_x = 4 + self.cursor * theme.font.advance
            canvas.fill(Rect(cursor_x, 2, 1, self.rect.h - 4), theme.accent)
            canvas.outline(local, theme.focus)

    def handle_pointer(self, event: Pointer) -> bool:
        if event.kind is PointerKind.DOWN and self.enabled:
            self.request_focus()
            from repro.toolkit.theme import DEFAULT_THEME
            self.cursor = max(0, min(len(self._text),
                                     (event.x - 4)
                                     // DEFAULT_THEME.font.advance))
            self.invalidate()
            return True
        return event.kind is PointerKind.UP

    def handle_key(self, event: KeyPress) -> bool:
        if event.keysym == keysyms.RETURN:
            self.activate()
            return True
        if event.keysym == keysyms.BACKSPACE:
            if self.cursor > 0:
                self._text = (self._text[:self.cursor - 1]
                              + self._text[self.cursor:])
                self.cursor -= 1
                self.invalidate()
            return True
        if event.keysym == keysyms.DELETE:
            if self.cursor < len(self._text):
                self._text = (self._text[:self.cursor]
                              + self._text[self.cursor + 1:])
                self.invalidate()
            return True
        if event.keysym == keysyms.LEFT:
            self.cursor = max(0, self.cursor - 1)
            self.invalidate()
            return True
        if event.keysym == keysyms.RIGHT:
            self.cursor = min(len(self._text), self.cursor + 1)
            self.invalidate()
            return True
        if event.keysym == keysyms.HOME:
            self.cursor = 0
            self.invalidate()
            return True
        if event.keysym == keysyms.END:
            self.cursor = len(self._text)
            self.invalidate()
            return True
        char = event.char
        if char is not None and len(self._text) < self.max_length:
            self._text = (self._text[:self.cursor] + char
                          + self._text[self.cursor:])
            self.cursor += 1
            self.invalidate()
            return True
        return False


class Panel(Column):
    """A titled, bevelled grouping container (one appliance's panel)."""

    def __init__(self, title: str = "", **kwargs) -> None:
        super().__init__(**kwargs)
        self.title = title

    def preferred_size(self, theme: Theme) -> tuple[int, int]:
        w, h = super().preferred_size(theme)
        if self.title:
            tw, th = theme.font.measure(self.title)
            w = max(w, tw + 12)
            h += th + 4
        return (w, h)

    def perform_layout(self, theme: Theme) -> None:
        # Reserve a strip at the top for the title by shrinking ourselves
        # during child layout, then restoring.
        if not self.title:
            super().perform_layout(theme)
            return
        strip = theme.font.glyph_height + 4
        original = self.rect
        self.rect = Rect(original.x, original.y, original.w,
                         max(0, original.h - strip))
        super().perform_layout(theme)
        for child in self.children:
            child.rect = child.rect.translate(0, strip)
        self.rect = original

    def paint(self, canvas: Canvas, theme: Theme) -> None:
        local = Rect(0, 0, self.rect.w, self.rect.h)
        canvas.bevel(local, theme.face, theme.light, theme.shadow)
        if self.title:
            canvas.fill(Rect(1, 1, local.w - 2,
                             theme.font.glyph_height + 4), theme.accent)
            canvas.text(6, 3, self.title, theme.accent_text, theme.font)


class TabPanel(Widget):
    """Tab bar plus a content area showing one child page at a time.

    This is the paper's *composed GUI*: one page per currently available
    appliance, composition changing as appliances come and go.  Only the
    shown page adds damage: a hidden page paints nothing, and showing it
    damages the whole panel.  :meth:`replace_pages` changes the
    composition in place, damaging only what the change alters, and lays
    out only the shown page: the others are laid out when shown.
    """

    focusable = True

    def __init__(self) -> None:
        super().__init__()
        self._titles: list[str] = []
        self.active = -1
        self.on_tab_change: Optional[Callable[[int], None]] = None
        #: Hidden pages :meth:`replace_pages` did not lay out.
        self._stale: set[Widget] = set()

    def add_page(self, title: str, page: Widget) -> Widget:
        self.add(page)
        self._titles.append(title)
        if self.active < 0:
            self.active = 0
        self._sync_visibility()
        return page

    def replace_pages(self, pages: Sequence[tuple[str, Widget]],
                      active: int) -> None:
        """Show ``(title, page)`` pairs, tab ``active`` in front.

        A page already in the panel keeps its widgets, their state and
        focus; a page that leaves is torn down, and focus inside it falls
        to the window's first focusable widget.  The panel lays the shown
        page out again within its rect; a hidden page gets its rect and
        is laid out when :meth:`set_active` shows it.  Unlike
        :meth:`add_page`, it damages only what changed: the tab bar when
        the titles or the active tab change, the content area when the
        shown page changes, and each widget of the shown page that the
        layout moved.
        """
        new = [page for _, page in pages]
        if any(page.parent not in (None, self) for page in new):
            raise ToolkitError("widget already has a parent")
        window = self.window
        titles, active_before, shown = self._titles, self.active, self._shown()
        focused = window.focus if window is not None else None
        for child in self.children:
            if child not in new:
                if window is not None:
                    window.forget_widget(child)
                child.teardown()
                child.parent = None
        for page in new:
            page.parent = self
        self.children = new
        self._titles = [title for title, _ in pages]
        self.active = max(0, min(len(new) - 1, active)) if new else -1
        for i, child in enumerate(new):
            child.visible = (i == self.active)
        if window is None:
            return
        kept = self._shown() is shown and shown is not None
        before = [(w, w.rect) for w in shown.walk()] if kept else []
        theme = window.theme
        content = self._content_rect(theme)
        for child in new:
            child.rect = content
        self._stale = set(new)
        self._lay_out_if_stale(self._shown(), theme)
        if self._titles != titles or self.active != active_before:
            self.invalidate(Rect(0, 0, self.rect.w, self._tab_height(theme)))
        if not kept:
            self.invalidate(self._content_rect(theme))
        for widget, rect in before:
            if widget.rect != rect:
                widget.parent.invalidate(rect)
                widget.invalidate()
        if focused is not None and window.focus is None:
            window.focus_next()

    def _shown(self) -> Optional[Widget]:
        if 0 <= self.active < len(self.children):
            return self.children[self.active]
        return None

    @property
    def titles(self) -> list[str]:
        return list(self._titles)

    def set_active(self, index: int) -> None:
        if not self._titles:
            return
        index = max(0, min(len(self._titles) - 1, index))
        if index != self.active:
            self.active = index
            window = self.window
            if window is not None:
                self._lay_out_if_stale(self.children[index], window.theme)
            self._sync_visibility()
            if self.on_tab_change is not None:
                self.on_tab_change(index)

    def _lay_out_if_stale(self, page: Optional[Widget],
                          theme: Theme) -> None:
        if page in self._stale:
            self._stale.discard(page)
            page.perform_layout(theme)

    def _sync_visibility(self) -> None:
        for i, child in enumerate(self.children):
            child.visible = (i == self.active)
        self.invalidate()

    def _tab_height(self, theme: Theme) -> int:
        return theme.font.glyph_height + 8

    def _tab_width(self, theme: Theme) -> int:
        if not self._titles:
            return 1
        return max(theme.font.measure(t)[0] + 12 for t in self._titles)

    def preferred_size(self, theme: Theme) -> tuple[int, int]:
        tab_h = self._tab_height(theme)
        width = self._tab_width(theme) * max(len(self._titles), 1)
        page_w, page_h = 0, 0
        for child in self.children:
            pw, ph = child.preferred_size(theme)
            page_w = max(page_w, pw)
            page_h = max(page_h, ph)
        return (max(width, page_w) + 4, tab_h + page_h + 4)

    def _content_rect(self, theme: Theme) -> Rect:
        tab_h = self._tab_height(theme)
        return Rect(2, tab_h + 2, max(0, self.rect.w - 4),
                    max(0, self.rect.h - tab_h - 4))

    def perform_layout(self, theme: Theme) -> None:
        content = self._content_rect(theme)
        self._stale.clear()
        for child in self.children:
            child.rect = content
            child.perform_layout(theme)

    def paint(self, canvas: Canvas, theme: Theme) -> None:
        local = Rect(0, 0, self.rect.w, self.rect.h)
        canvas.fill(local, theme.background)
        tab_h = self._tab_height(theme)
        tab_w = self._tab_width(theme)
        for i, title in enumerate(self._titles):
            tab = Rect(i * tab_w, 0, tab_w, tab_h)
            active = (i == self.active)
            face = theme.face if active else theme.face_pressed
            canvas.bevel(tab, face, theme.light, theme.shadow,
                         sunken=not active)
            canvas.text_centered(tab, title, theme.text, theme.font)
        if self.has_focus and self._titles:
            canvas.outline(Rect(self.active * tab_w, 0, tab_w, tab_h),
                           theme.focus)

    def handle_pointer(self, event: Pointer) -> bool:
        from repro.toolkit.theme import DEFAULT_THEME
        if event.kind is not PointerKind.DOWN:
            return event.kind is PointerKind.UP
        tab_h = self._tab_height(DEFAULT_THEME)
        if event.y >= tab_h:
            return False
        tab_w = self._tab_width(DEFAULT_THEME)
        index = event.x // tab_w
        if 0 <= index < len(self._titles):
            self.request_focus()
            self.set_active(index)
            return True
        return False

    def handle_key(self, event: KeyPress) -> bool:
        if event.keysym == keysyms.LEFT:
            self.set_active(self.active - 1)
            return True
        if event.keysym == keysyms.RIGHT:
            self.set_active(self.active + 1)
            return True
        return False
