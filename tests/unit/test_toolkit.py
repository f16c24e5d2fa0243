"""Unit tests for the widget toolkit."""

import numpy as np
import pytest

from repro.graphics import Bitmap, Rect
from repro.toolkit import (
    Button,
    Column,
    DEFAULT_THEME,
    KeyPress,
    Label,
    ListBox,
    Panel,
    Pointer,
    PointerKind,
    ProgressBar,
    Row,
    Slider,
    TabPanel,
    ToggleButton,
    UIWindow,
    Widget,
)
from repro.toolkit.canvas import Canvas
from repro.uip import keysyms
from repro.util.errors import ToolkitError


def make_window(width=200, height=150):
    return UIWindow(width, height, title="test")


def filler(stretch=1):
    """A bare 10x10 widget that takes a share of the leftover space."""
    widget = Widget()
    widget.layout_stretch = stretch
    return widget


class TestWidgetTree:
    def test_add_remove(self):
        parent = Column()
        child = Label("x")
        parent.add(child)
        assert child.parent is parent
        parent.remove(child)
        assert child.parent is None
        assert parent.children == []

    def test_double_parent_rejected(self):
        a, b = Column(), Column()
        child = Label("x")
        a.add(child)
        with pytest.raises(ToolkitError):
            b.add(child)

    def test_self_add_rejected(self):
        col = Column()
        with pytest.raises(ToolkitError):
            col.add(col)

    def test_remove_non_child_rejected(self):
        with pytest.raises(ToolkitError):
            Column().remove(Label("x"))

    def test_walk_preorder(self):
        root = Column()
        a = root.add(Row())
        b = a.add(Label("b"))
        c = root.add(Label("c"))
        assert list(root.walk()) == [root, a, b, c]

    def test_find_by_id(self):
        root = Column()
        child = root.add(Label("x"))
        child.widget_id = "power"
        assert root.find("power") is child
        assert root.find("missing") is None

    def test_abs_rect(self):
        root = Column()
        inner = root.add(Column())
        leaf = inner.add(Label("x"))
        root.rect = Rect(10, 10, 100, 100)
        inner.rect = Rect(5, 5, 50, 50)
        leaf.rect = Rect(2, 3, 10, 10)
        assert leaf.abs_rect() == Rect(17, 18, 10, 10)

    def test_window_lookup(self):
        window = make_window()
        root = Column()
        leaf = root.add(Label("x"))
        window.set_root(root)
        assert leaf.window is window


class TestLayout:
    @pytest.mark.parametrize("stretches, heights", [
        ((1, 1, 1), [51, 50, 50]),
        ((0, 1, 1), [10, 71, 70]),
    ])
    def test_rounding_remainder_goes_to_the_first_stretchy_child(
            self, stretches, heights):
        # three 10 px fillers in 151 px leave 121 px to share
        window = make_window(200, 151)
        col = Column(padding=0, spacing=0)
        children = [col.add(filler(stretch)) for stretch in stretches]
        window.set_root(col)
        assert [child.rect.h for child in children] == heights

    def test_column_stacks_vertically(self):
        window = make_window()
        col = Column(padding=0, spacing=0)
        a = col.add(Button("A"))
        b = col.add(Button("B"))
        window.set_root(col)
        assert a.rect.y == 0
        assert b.rect.y == a.rect.h
        assert a.rect.w == window.bitmap.width

    def test_row_stacks_horizontally(self):
        window = make_window()
        row = Row(padding=0, spacing=0)
        a = row.add(Button("A"))
        b = row.add(Button("BB"))
        window.set_root(row)
        assert b.rect.x == a.rect.w
        assert a.rect.h == window.bitmap.height

    def test_spacing_and_padding(self):
        window = make_window()
        col = Column(padding=7, spacing=3)
        a = col.add(Button("A"))
        b = col.add(Button("B"))
        window.set_root(col)
        assert a.rect.x == 7
        assert a.rect.y == 7
        assert b.rect.y == a.rect.y2 + 3

    def test_stretch_absorbs_leftover(self):
        window = make_window(200, 200)
        col = Column(padding=0, spacing=0)
        a = col.add(Button("A"))
        spacer = col.add(filler())
        b = col.add(Button("B"))
        window.set_root(col)
        assert b.rect.y2 == 200
        assert spacer.rect.h == 200 - a.rect.h - b.rect.h

    def test_stretch_shares_proportionally(self):
        window = make_window(100, 100)
        row = Row(padding=0, spacing=0)
        a = row.add(filler(stretch=1))
        b = row.add(filler(stretch=3))
        window.set_root(row)
        # past their 10 px each, the 80 px left over split 1:3
        assert (a.rect.w, b.rect.w) == (10 + 20, 10 + 60)

    def test_hidden_children_skipped(self):
        window = make_window()
        col = Column(padding=0, spacing=0)
        a = col.add(Button("A"))
        a.visible = False
        b = col.add(Button("B"))
        window.set_root(col)
        assert b.rect.y == 0

    def test_preferred_size_aggregates(self):
        col = Column(padding=2, spacing=1)
        col.add(Button("A"))
        col.add(Button("B"))
        w, h = col.preferred_size(DEFAULT_THEME)
        bw, bh = Button("A").preferred_size(DEFAULT_THEME)
        assert h == 2 * bh + 1 + 4
        assert w >= bw


class TestRendering:
    def test_initial_render_covers_window(self):
        window = make_window()
        window.set_root(Column())
        region = window.render()
        assert region.bounds() == window.bitmap.bounds

    def test_render_clears_damage(self):
        window = make_window()
        window.set_root(Column())
        window.render()
        assert window.render().is_empty

    def test_invalidate_damages_widget_rect(self):
        window = make_window()
        col = Column(padding=0, spacing=0)
        button = col.add(Button("A"))
        window.set_root(col)
        window.render()
        button.invalidate()
        region = window.render()
        assert region.bounds() == button.abs_rect()

    def test_label_text_change_repaints(self):
        window = make_window()
        col = Column()
        label = col.add(Label("before"))
        window.set_root(col)
        window.render()
        before = window.bitmap.copy()
        label.text = "AFTER!"
        window.render()
        assert window.bitmap != before

    def test_painting_stays_inside_widget(self):
        window = make_window(100, 100)
        col = Column(padding=0, spacing=0)
        col.add(Button("A"))
        col.add(filler())
        window.set_root(col)
        window.render()
        # bottom area is untouched background
        assert window.bitmap.get_pixel(50, 99) == DEFAULT_THEME.background


class TestButton:
    def test_text_change_repaints_only_when_the_text_differs(self):
        window = make_window()
        col = Column(padding=0, spacing=0)
        button = col.add(Button("Go"))
        window.set_root(col)
        window.render()
        button.text = "Go"
        assert window.render().is_empty
        button.text = "Stop"
        assert button.text == "Stop"
        assert window.render().bounds() == button.abs_rect()

    def test_a_disabled_button_does_not_activate(self):
        clicks = []
        button = Button("Go", on_click=clicks.append)
        button.enabled = False
        button.activate()
        assert clicks == []

    def test_a_removed_button_loses_the_pointer_grab(self):
        window = make_window()
        clicks = []
        col = Column(padding=0, spacing=0)
        button = col.add(Button("Go", on_click=clicks.append))
        col.add(filler())
        window.set_root(col)
        cx, cy = button.abs_rect().center
        window.dispatch_pointer(Pointer(PointerKind.DOWN, cx, cy, 1))
        col.remove(button)
        window.dispatch_pointer(Pointer(PointerKind.UP, cx, cy, 0))
        assert clicks == []

    def test_click_activates(self):
        window = make_window()
        clicks = []
        col = Column(padding=0, spacing=0)
        button = col.add(Button("Go", on_click=lambda w: clicks.append(w)))
        window.set_root(col)
        center = button.abs_rect().center
        window.click(*center)
        assert clicks == [button]

    def test_press_then_release_outside_does_not_activate(self):
        window = make_window()
        clicks = []
        col = Column(padding=0, spacing=0)
        button = col.add(Button("Go", on_click=lambda w: clicks.append(w)))
        col.add(filler())
        window.set_root(col)
        cx, cy = button.abs_rect().center
        window.dispatch_pointer(Pointer(PointerKind.DOWN, cx, cy, 1))
        window.dispatch_pointer(Pointer(PointerKind.UP, cx, 140, 0))
        assert clicks == []
        assert button.pressed is False

    def test_return_key_activates_focused(self):
        window = make_window()
        clicks = []
        col = Column()
        button = col.add(Button("Go", on_click=lambda w: clicks.append(1)))
        window.set_root(col)
        assert window.focus is button
        window.press_key(keysyms.RETURN)
        assert clicks == [1]

    def test_disabled_button_ignores_click(self):
        window = make_window()
        clicks = []
        col = Column(padding=0, spacing=0)
        button = col.add(Button("Go", on_click=lambda w: clicks.append(1)))
        button.enabled = False
        window.set_root(col)
        window.click(*button.abs_rect().center)
        assert clicks == []


class TestToggle:
    def test_a_disabled_toggle_keeps_its_value(self):
        changes = []
        toggle = ToggleButton("Power", on_change=changes.append)
        toggle.enabled = False
        toggle.toggle()
        assert toggle.value is False and changes == []

    def test_a_disabled_toggle_paints_the_disabled_face(self):
        faces = []
        for enabled in (True, False):
            window = make_window()
            col = Column(padding=0, spacing=0)
            toggle = col.add(ToggleButton("Power"))
            toggle.enabled = enabled
            window.set_root(col)
            window.render()
            r = toggle.abs_rect()
            pixels = window.bitmap.pixels[r.y:r.y2, r.x:r.x2]
            faces.append({tuple(p) for p in pixels.reshape(-1, 3).tolist()})
        disabled_face = tuple(DEFAULT_THEME.face_disabled)
        assert disabled_face not in faces[0]
        assert disabled_face in faces[1]

    def test_click_toggles(self):
        window = make_window()
        changes = []
        col = Column(padding=0, spacing=0)
        toggle = col.add(ToggleButton("Power",
                                      on_change=lambda w: changes.append(
                                          w.value)))
        window.set_root(col)
        window.click(*toggle.abs_rect().center)
        window.click(*toggle.abs_rect().center)
        assert changes == [True, False]

    def test_space_toggles(self):
        window = make_window()
        col = Column()
        toggle = col.add(ToggleButton("Power"))
        window.set_root(col)
        window.press_key(keysyms.SPACE)
        assert toggle.value is True

    def test_setter_does_not_fire_callback(self):
        changes = []
        toggle = ToggleButton("P", on_change=lambda w: changes.append(1))
        toggle.value = True
        assert changes == []
        assert toggle.value is True


class TestSlider:
    def test_other_keys_are_left_to_the_parent(self):
        slider = Slider(0, 10)
        assert slider.handle_key(KeyPress(keysyms.RETURN)) is False
        assert slider.value == 0

    def test_range_validation(self):
        with pytest.raises(ToolkitError):
            Slider(minimum=5, maximum=5)
        with pytest.raises(ToolkitError):
            Slider(step=0)

    def test_arrow_keys_step(self):
        window = make_window()
        values = []
        col = Column()
        slider = col.add(Slider(0, 10, value=5,
                                on_change=lambda w: values.append(w.value)))
        window.set_root(col)
        window.press_key(keysyms.RIGHT)
        window.press_key(keysyms.LEFT)
        window.press_key(keysyms.LEFT)
        assert values == [6, 5, 4]

    def test_home_end(self):
        window = make_window()
        col = Column()
        slider = col.add(Slider(0, 50, value=25))
        window.set_root(col)
        window.press_key(keysyms.END)
        assert slider.value == 50
        window.press_key(keysyms.HOME)
        assert slider.value == 0

    def test_value_clamped(self):
        slider = Slider(0, 10, value=99)
        assert slider.value == 10
        slider.value = -5
        assert slider.value == 0

    def test_pointer_drag_sets_value(self):
        window = make_window()
        col = Column(padding=0, spacing=0)
        slider = col.add(Slider(0, 100, value=0))
        window.set_root(col)
        rect = slider.abs_rect()
        window.dispatch_pointer(
            Pointer(PointerKind.DOWN, rect.x2 - 5, rect.center[1], 1))
        assert slider.value > 80
        window.dispatch_pointer(
            Pointer(PointerKind.MOVE, rect.x + 5, rect.center[1], 1))
        assert slider.value < 20
        window.dispatch_pointer(
            Pointer(PointerKind.UP, rect.x + 5, rect.center[1], 0))


class TestProgressBar:
    def test_clamping(self):
        bar = ProgressBar(0, 10, value=20)
        assert bar.value == 10

    def test_range_validation(self):
        with pytest.raises(ToolkitError):
            ProgressBar(3, 3)


class TestListBox:
    def test_selection_keys(self):
        window = make_window()
        selections = []
        col = Column()
        listbox = col.add(ListBox(["a", "b", "c"],
                                  on_select=lambda w: selections.append(
                                      w.selected_item)))
        window.set_root(col)
        window.press_key(keysyms.DOWN)
        window.press_key(keysyms.DOWN)
        window.press_key(keysyms.UP)
        assert selections == ["b", "c", "b"]

    def test_selection_clamped(self):
        window = make_window()
        col = Column()
        listbox = col.add(ListBox(["a", "b"]))
        window.set_root(col)
        window.press_key(keysyms.UP)
        assert listbox.selected == 0
        for _ in range(5):
            window.press_key(keysyms.DOWN)
        assert listbox.selected == 1

    def test_page_keys_scroll_the_selection_into_view(self):
        window = make_window()
        col = Column()
        listbox = col.add(ListBox([f"item{i}" for i in range(20)]))
        window.set_root(col)
        rows = listbox._visible_rows(DEFAULT_THEME)
        assert rows < 20
        window.press_key(keysyms.PAGE_DOWN)
        assert listbox.selected == rows
        assert listbox.scroll_top == 1  # the new row is the last visible
        for _ in range(20):
            window.press_key(keysyms.PAGE_DOWN)
        assert listbox.selected == 19
        assert listbox.scroll_top == 20 - rows
        window.press_key(keysyms.PAGE_UP)
        assert listbox.selected == 19 - rows
        assert listbox.scroll_top == 19 - rows  # scrolled up to it
        for _ in range(20):
            window.press_key(keysyms.PAGE_UP)
        assert (listbox.selected, listbox.scroll_top) == (0, 0)

    def test_empty_list(self):
        listbox = ListBox()
        assert listbox.selected_item is None

    def test_click_selects_row(self):
        window = make_window()
        col = Column(padding=0, spacing=0)
        listbox = col.add(ListBox(["a", "b", "c"]))
        window.set_root(col)
        rect = listbox.abs_rect()
        row_h = listbox._row_height(DEFAULT_THEME)
        window.click(rect.x + 5, rect.y + 2 + row_h + row_h // 2)
        assert listbox.selected_item == "b"


class TestTabPanel:
    def test_a_panel_without_pages_has_no_active_tab(self):
        tabs = TabPanel()
        tabs.set_active(0)
        assert tabs.active == -1 and tabs.titles == []
        assert tabs.preferred_size(DEFAULT_THEME)[0] >= 1

    def test_a_click_past_the_last_tab_switches_nothing(self):
        window, tabs = self._tabbed_window()
        x, y = tabs.abs_rect().x + 290, tabs.abs_rect().y + 4
        window.click(x, y)
        assert tabs.active == 0

    def test_up_and_down_keys_are_left_to_the_parent(self):
        window, tabs = self._tabbed_window()
        for keysym in (keysyms.UP, keysyms.DOWN):
            assert tabs.handle_key(KeyPress(keysym)) is False
        assert tabs.active == 0

    def _tabbed_window(self):
        window = make_window(300, 200)
        tabs = TabPanel()
        page_a = Column()
        page_a.add(Button("A1"))
        page_b = Column()
        page_b.add(Button("B1"))
        tabs.add_page("TV", page_a)
        tabs.add_page("VCR", page_b)
        root = Column(padding=0, spacing=0)
        root.add(tabs)
        window.set_root(root)
        return window, tabs

    def test_only_active_page_visible(self):
        window, tabs = self._tabbed_window()
        assert tabs.children[0].visible is True
        assert tabs.children[1].visible is False
        tabs.set_active(1)
        assert tabs.children[0].visible is False
        assert tabs.children[1].visible is True

    def test_arrow_keys_switch(self):
        window, tabs = self._tabbed_window()
        tabs.request_focus()
        window.press_key(keysyms.RIGHT)
        assert tabs.active == 1
        window.press_key(keysyms.LEFT)
        assert tabs.active == 0

    def test_click_tab_switches(self):
        window, tabs = self._tabbed_window()
        rect = tabs.abs_rect()
        tab_w = tabs._tab_width(DEFAULT_THEME)
        window.click(rect.x + tab_w + 5, rect.y + 5)
        assert tabs.active == 1

    def test_tab_change_callback(self):
        window, tabs = self._tabbed_window()
        seen = []
        tabs.on_tab_change = seen.append
        tabs.set_active(1)
        tabs.set_active(1)  # no-op, no callback
        assert seen == [1]

    def test_focus_skips_hidden_page_widgets(self):
        window, tabs = self._tabbed_window()
        focusables = window._focus_order()
        # page B's button is hidden; only tab panel + page A button
        names = [type(w).__name__ for w in focusables]
        assert names.count("Button") == 1

    def test_hidden_page_change_waits_until_the_page_is_shown(self):
        window, tabs = self._tabbed_window()
        label = tabs.children[1].add(Label("old"))
        window.layout()
        window.render()
        label.text = "new text"
        assert window.damage.is_empty
        tabs.set_active(1)
        window.render()
        assert window.bitmap.copy() == _full_repaint(window)
        expected, expected_tabs = self._tabbed_window()
        expected_tabs.children[1].add(Label("new text"))
        expected.layout()
        expected_tabs.set_active(1)
        expected.render()
        assert window.bitmap == expected.bitmap


def _full_repaint(window):
    """The window as a render of its whole area paints it."""
    window.damage.add(window.bitmap.bounds)
    window.render()
    return window.bitmap.copy()


class TestTabPanelReplacePages:
    """``TabPanel.replace_pages`` keeps the pages that stay and damages
    only what the change alters."""

    def _window(self):
        window = make_window(300, 200)
        tabs = TabPanel()
        pages = {}
        for title in ("TV", "VCR"):
            page = pages[title] = Row()
            page.add(Label(f"{title} text"))
            page.add(Button(f"{title} go"))
            tabs.add_page(title, page)
        window.set_root(tabs)
        window.render()
        return window, tabs, pages

    def _tab_bar(self, tabs):
        return Rect(0, 0, tabs.rect.w, tabs._tab_height(DEFAULT_THEME))

    def test_new_title_repaints_only_the_tab_bar(self):
        window, tabs, pages = self._window()
        dvd = Row()
        dvd.add(Button("DVD go"))
        tabs.replace_pages([("DVD", dvd), ("TV", pages["TV"])], 1)
        assert tabs.active == 1 and tabs.children[1] is pages["TV"]
        assert dvd.parent is tabs and not dvd.visible
        assert window.damage.rects() == [self._tab_bar(tabs)]
        window.render()
        assert window.bitmap.copy() == _full_repaint(window)

    def test_unchanged_pages_add_no_damage(self):
        window, tabs, pages = self._window()
        tabs.replace_pages([("TV", pages["TV"]), ("VCR", pages["VCR"])], 0)
        assert window.damage.is_empty

    def test_new_shown_page_repaints_the_content_area(self):
        window, tabs, pages = self._window()
        tabs.replace_pages([("VCR", pages["VCR"])], 0)
        content = tabs._content_rect(DEFAULT_THEME)
        assert window.damage.bounds() == self._tab_bar(tabs).union_bounds(
            content)
        window.render()
        assert window.bitmap.copy() == _full_repaint(window)

    def test_moved_widget_repaints_where_it_was_and_is(self):
        window, tabs, pages = self._window()
        label, button = pages["TV"].children
        old = button.abs_rect()
        label.text = "TV text, now much longer"
        window.render()
        tabs.replace_pages([("TV", pages["TV"]), ("VCR", pages["VCR"])], 0)
        new = button.abs_rect()
        assert new.x > old.x
        assert window.damage.bounds() == label.abs_rect().union_bounds(
            old).union_bounds(new)
        window.render()
        assert window.bitmap.copy() == _full_repaint(window)

    def test_departed_page_is_torn_down_and_drops_focus(self):
        window, tabs, pages = self._window()
        torn = []
        pages["TV"].on_teardown(lambda: torn.append("TV"))
        pages["TV"].children[1].request_focus()
        tabs.replace_pages([("VCR", pages["VCR"])], 0)
        assert torn == ["TV"]
        assert pages["TV"].parent is None
        assert window.focus is tabs

    def test_focus_stays_on_a_surviving_widget(self):
        window, tabs, pages = self._window()
        button = pages["TV"].children[1]
        button.request_focus()
        dvd = Row()
        tabs.replace_pages([("DVD", dvd), ("TV", pages["TV"])], 1)
        assert window.focus is button and button.has_focus

    def test_page_of_another_parent_is_rejected(self):
        window, tabs, pages = self._window()
        elsewhere = Column()
        stray = elsewhere.add(Row())
        with pytest.raises(ToolkitError):
            tabs.replace_pages([("TV", pages["TV"]), ("X", stray)], 0)


class TestFocusTraversal:
    def test_a_widget_of_another_window_cannot_take_focus(self):
        window, other = make_window(), make_window()
        window.set_root(Column())
        col = Column()
        foreign = col.add(Button("elsewhere"))
        other.set_root(col)
        with pytest.raises(ToolkitError, match="another window"):
            window.set_focus(foreign)
        assert window.focus is None

    def test_tab_cycles_focus(self):
        window = make_window()
        col = Column()
        a = col.add(Button("A"))
        b = col.add(Button("B"))
        c = col.add(Button("C"))
        window.set_root(col)
        assert window.focus is a
        window.press_key(keysyms.TAB)
        assert window.focus is b
        window.press_key(keysyms.TAB)
        assert window.focus is c
        window.press_key(keysyms.TAB)
        assert window.focus is a

    def test_shift_tab_reverses(self):
        window = make_window()
        col = Column()
        a = col.add(Button("A"))
        b = col.add(Button("B"))
        window.set_root(col)
        window.dispatch_key_event(keysyms.SHIFT_L, True)
        window.dispatch_key_event(keysyms.TAB, True)
        window.dispatch_key_event(keysyms.TAB, False)
        window.dispatch_key_event(keysyms.SHIFT_L, False)
        assert window.focus is b  # wrapped backwards from a

    def test_disabled_widgets_skipped(self):
        window = make_window()
        col = Column()
        a = col.add(Button("A"))
        b = col.add(Button("B"))
        b.enabled = False
        c = col.add(Button("C"))
        window.set_root(col)
        window.press_key(keysyms.TAB)
        assert window.focus is c

    def test_removing_focused_widget_clears_focus(self):
        window = make_window()
        col = Column()
        a = col.add(Button("A"))
        window.set_root(col)
        assert window.focus is a
        col.remove(a)
        assert window.focus is None

    def test_focus_follows_click(self):
        window = make_window()
        col = Column(padding=0, spacing=0)
        a = col.add(Button("A"))
        b = col.add(Button("B"))
        window.set_root(col)
        window.click(*b.abs_rect().center)
        assert window.focus is b


class TestWindowWithoutRoot:
    def test_an_empty_window_ignores_input(self):
        window = make_window()
        window.render()
        window.layout()
        assert window.damage.is_empty
        assert window.dispatch_pointer(Pointer(PointerKind.DOWN, 5, 5, 1)) \
            is False
        window.focus_next()
        assert window.focus is None


class TestFocusRequests:
    def test_a_label_cannot_take_focus(self):
        window = make_window()
        col = Column()
        label = col.add(Label("status"))
        button = col.add(Button("Go"))
        window.set_root(col)
        assert label.request_focus() is False
        assert window.focus is button

    def test_a_key_press_names_its_keysym(self):
        assert KeyPress(keysyms.RETURN).name == "Return"
        assert KeyPress(ord("a")).name == "a"


class TestCanvasEdges:
    def test_an_outline_is_drawn_inside_its_rect(self):
        bitmap = Bitmap(10, 10)
        canvas = Canvas(bitmap, 0, 0, bitmap.bounds)
        canvas.outline(Rect(1, 1, 5, 5), (2, 2, 2))
        assert bitmap.get_pixel(1, 1) == (2, 2, 2)
        assert bitmap.get_pixel(5, 5) == (2, 2, 2)
        assert bitmap.get_pixel(3, 3) == (0, 0, 0)
        assert bitmap.get_pixel(6, 6) == (0, 0, 0)

    @pytest.mark.parametrize("sunken,top_left,bottom_right", [
        (False, (255, 255, 255), (64, 64, 64)),
        (True, (64, 64, 64), (255, 255, 255)),
    ], ids=["raised", "sunken"])
    def test_a_bevel_lights_one_corner_and_shades_the_other(
            self, sunken, top_left, bottom_right):
        bitmap = Bitmap(10, 10)
        canvas = Canvas(bitmap, 0, 0, bitmap.bounds)
        canvas.bevel(Rect(0, 0, 10, 10), face=(128, 128, 128),
                     light=(255, 255, 255), shadow=(64, 64, 64),
                     sunken=sunken)
        assert bitmap.get_pixel(0, 0) == top_left
        assert bitmap.get_pixel(9, 9) == bottom_right
        assert bitmap.get_pixel(5, 5) == (128, 128, 128)

    def test_a_bevel_too_small_for_edges_is_all_face(self):
        bitmap = Bitmap(10, 10)
        canvas = Canvas(bitmap, 0, 0, bitmap.bounds)
        canvas.bevel(Rect(2, 2, 1, 5), (9, 9, 9), (255, 255, 255), (1, 1, 1))
        assert np.all(bitmap.pixels[2:7, 2] == 9)
        assert bitmap.pixels.sum() == 5 * 3 * 9

    def test_a_clipped_outline_thicker_than_its_rect_fills_it(self):
        bitmap = Bitmap(10, 10)
        canvas = Canvas(bitmap, 0, 0, Rect(0, 0, 3, 3))
        canvas.outline(Rect(0, 0, 4, 4), (7, 7, 7), thickness=5)
        assert np.all(bitmap.pixels[:3, :3] == 7)
        assert bitmap.pixels.sum() == 9 * 3 * 7
