"""Unit tests for the display server: one full-screen window per display."""

from repro.graphics import Rect
from repro.toolkit import Button, Column, Label, UIWindow
from repro.uip import keysyms
from repro.windows import DisplayServer


def simple_window(width=100, height=80, label="win"):
    window = UIWindow(width, height)
    col = Column()
    col.add(Label(label))
    col.add(Button(label.upper()))
    window.set_root(col)
    return window


class TestMapping:
    def test_framebuffer_is_the_window_bitmap(self):
        window = simple_window()
        server = DisplayServer(window)
        assert server.framebuffer is window.bitmap

    def test_initial_composite_covers_screen(self):
        server = DisplayServer(simple_window(320, 240))
        region = server.composite()
        assert region.bounds() == server.framebuffer.bounds

    def test_composite_idempotent(self):
        server = DisplayServer(simple_window())
        server.composite()
        assert server.composite().is_empty

    def test_composite_reports_new_damage(self):
        window = simple_window()
        server = DisplayServer(window)
        server.composite()
        window.root.children[0].text = "changed"
        assert not server.composite().is_empty

    def test_composite_caps_fragmented_damage(self):
        window = simple_window(200, 200)
        server = DisplayServer(window)
        server.composite()
        spots = [Rect(x * 20, y * 20, 5, 5)
                 for x in range(10) for y in range(4)]
        for spot in spots:
            window.damage.add(spot)
        region = server.composite()
        assert len(region) <= 32
        assert all(region.contains_point(x, y) for spot in spots
                   for x in range(spot.x, spot.x2)
                   for y in range(spot.y, spot.y2))

    def test_composite_without_damage_skips_render(self):
        window = simple_window()
        server = DisplayServer(window)
        assert not server.composite().is_empty
        renders = []
        window.render = lambda: renders.append(1)  # must not be entered
        assert server.composite().is_empty
        assert renders == []

    def test_damage_callback_fires(self):
        window = simple_window()
        server = DisplayServer(window)
        calls = []
        server.on_damage = lambda: calls.append(1)
        window.root.children[0].text = "changed"
        assert calls

    def test_composite_does_not_fire_damage_callback(self):
        window = simple_window()
        server = DisplayServer(window)
        calls = []
        server.on_damage = lambda: calls.append(1)
        assert not server.composite().is_empty
        assert calls == []


class TestInput:
    def test_key_reaches_focused_widget(self):
        window = simple_window()
        server = DisplayServer(window)
        clicked = []
        window.root.children[1].on_activate = lambda w: clicked.append(1)
        assert server.inject_key(keysyms.RETURN, True) is True
        server.inject_key(keysyms.RETURN, False)
        assert clicked == [1]

    def test_pointer_routed_by_position(self):
        window = UIWindow(100, 100)
        col = Column()
        first = col.add(Button("A"))
        second = col.add(Button("B"))
        window.set_root(col)
        server = DisplayServer(window)
        server.composite()
        clicked = []
        first.on_activate = lambda w: clicked.append("a")
        second.on_activate = lambda w: clicked.append("b")
        bx, by = second.abs_rect().center
        assert server.inject_pointer(bx, by, 1) is True
        server.inject_pointer(bx, by, 0)
        assert clicked == ["b"]

    def test_pointer_miss_returns_false(self):
        server = DisplayServer(simple_window(100, 100))
        server.composite()
        assert server.inject_pointer(250, 50, 1) is False
        server.inject_pointer(250, 50, 0)

    def test_pointer_grab_follows_window(self):
        window = simple_window(100, 100, "a")
        server = DisplayServer(window)
        server.composite()
        slider_like = window.root.children[1]
        events = []
        slider_like.handle_pointer = lambda e: events.append(e.kind) or True
        center = slider_like.abs_rect().center
        server.inject_pointer(center[0], center[1], 1)
        # drag off the screen: still delivered to the pressed widget
        server.inject_pointer(250, 50, 1)
        server.inject_pointer(250, 50, 0)
        kinds = [k.value for k in events]
        assert kinds == ["down", "move", "up"]
