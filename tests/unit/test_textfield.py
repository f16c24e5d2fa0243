"""Unit tests for the TextField widget and direct channel entry."""

import pytest

from repro.toolkit import Column, TextField, UIWindow
from repro.toolkit.theme import DEFAULT_THEME
from repro.uip import keysyms
from repro.util.errors import ToolkitError


def field_window(**kwargs):
    window = UIWindow(200, 60)
    col = Column()
    field = col.add(TextField(**kwargs))
    window.set_root(col)
    assert window.focus is field
    return window, field


def type_text(window, text):
    for char in text:
        window.press_key(ord(char))


class TestTextField:
    def test_right_arrow_moves_the_cursor_up_to_the_end(self):
        window, field = field_window()
        type_text(window, "ab")
        window.press_key(keysyms.HOME)
        window.press_key(keysyms.RIGHT)
        assert field.cursor == 1
        for _ in range(3):
            window.press_key(keysyms.RIGHT)
        assert field.cursor == 2

    def test_typing_inserts(self):
        window, field = field_window()
        type_text(window, "hello")
        assert field.text == "hello"
        assert field.cursor == 5

    def test_backspace(self):
        window, field = field_window(text="abc")
        window.press_key(keysyms.BACKSPACE)
        assert field.text == "ab"

    def test_backspace_at_start_is_noop(self):
        window, field = field_window(text="abc")
        window.press_key(keysyms.HOME)
        window.press_key(keysyms.BACKSPACE)
        assert field.text == "abc"

    def test_cursor_movement_and_midline_insert(self):
        window, field = field_window(text="ad")
        window.press_key(keysyms.LEFT)
        type_text(window, "bc")
        assert field.text == "abcd"

    def test_delete_forward(self):
        window, field = field_window(text="abc")
        window.press_key(keysyms.HOME)
        window.press_key(keysyms.DELETE)
        assert field.text == "bc"

    def test_home_end(self):
        window, field = field_window(text="abc")
        window.press_key(keysyms.HOME)
        assert field.cursor == 0
        window.press_key(keysyms.END)
        assert field.cursor == 3

    def test_max_length_enforced(self):
        window, field = field_window(max_length=3)
        type_text(window, "abcdef")
        assert field.text == "abc"

    def test_return_submits(self):
        submitted = []
        window, field = field_window(
            on_submit=lambda w: submitted.append(w.text))
        type_text(window, "42")
        window.press_key(keysyms.RETURN)
        assert submitted == ["42"]

    def test_setter_truncates_and_clamps_cursor(self):
        window, field = field_window(text="abcdef", max_length=10)
        window.press_key(keysyms.END)
        field.text = "xy"
        assert field.cursor == 2

    def test_clear(self):
        window, field = field_window(text="abc")
        field.clear()
        assert field.text == ""
        assert field.cursor == 0

    def test_click_takes_focus_and_places_cursor(self):
        window = UIWindow(200, 60)
        col = Column()
        first = col.add(TextField(text="first"))
        field = col.add(TextField(text="hello"))
        window.set_root(col)
        window.layout()
        assert window.focus is first
        box = field.abs_rect()
        advance = DEFAULT_THEME.font.advance
        # text starts 4 px in: a click inside the third glyph puts the
        # cursor before it
        window.click(box.x + 4 + 2 * advance + 1, box.y + 2)
        assert window.focus is field
        assert field.cursor == 2
        window.press_key(ord("X"))
        assert field.text == "heXllo"

    def test_click_outside_the_text_clamps_cursor(self):
        window, field = field_window(text="abc")
        window.layout()
        box = field.abs_rect()
        window.click(box.x + box.w - 2, box.y + 2)
        assert field.cursor == 3
        window.click(box.x + 1, box.y + 2)
        assert field.cursor == 0

    def test_bad_max_length(self):
        with pytest.raises(ToolkitError):
            TextField(max_length=0)

    def test_renders_with_cursor(self):
        window, field = field_window(text="hi")
        region = window.render()
        assert not region.is_empty


class TestChannelEntry:
    def test_remote_digits_set_channel(self):
        from repro import Home
        from repro.appliances import Television
        from repro.devices import RemoteControl, TvDisplay
        from repro.havi import FcmType
        home = Home()
        tv = home.add_appliance(Television("TV"))
        home.settle()
        remote = RemoteControl("r", home.scheduler)
        panel = TvDisplay("p", home.scheduler)
        home.add_device(remote)
        home.add_device(panel)
        home.settle()
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        tuner.invoke_local("power.set", {"on": True})
        home.settle()
        # walk focus to the channel entry field
        entry = home.window.root.find(f"{tv.guid[:8]}.tuner.ch-entry")
        entry.request_focus()
        remote.press("8")
        remote.press("ok")
        home.settle()
        assert tuner.get_state("channel") == 8
        assert entry.text == ""  # cleared after submit

    def test_non_numeric_entry_ignored(self):
        from repro import Home
        from repro.appliances import Television
        from repro.havi import FcmType
        home = Home()
        tv = home.add_appliance(Television("TV"))
        home.settle()
        tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
        tuner.invoke_local("power.set", {"on": True})
        home.settle()
        entry = home.window.root.find(f"{tv.guid[:8]}.tuner.ch-entry")
        entry.request_focus()
        entry.text = "x"
        home.window.press_key(keysyms.RETURN)
        home.settle()
        assert tuner.get_state("channel") == 1  # unchanged
