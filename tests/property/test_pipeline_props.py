"""Stateful property tests of the whole thin-client pipeline.

The central invariant of the universal interaction protocol: after any
sequence of input events and UI activity, once the network quiesces the
proxy's framebuffer mirror is *pixel-identical* to the server's composited
framebuffer (with a lossless wire format).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ETHERNET_100, make_pipe
from repro.proxy import UniIntProxy
from repro.server import UniIntServer
from repro.toolkit import (
    Button,
    Column,
    Label,
    ListBox,
    Slider,
    ToggleButton,
    UIWindow,
)
from repro.uip import HEXTILE, RAW, ZRLE, keysyms
from repro.util import Scheduler
from repro.windows import DisplayServer


def build(encodings):
    scheduler = Scheduler()
    window = UIWindow(240, 200)
    col = Column()
    label = col.add(Label("status"))
    label.widget_id = "status"
    col.add(ToggleButton("Power"))
    col.add(Button("Go"))
    col.add(Slider(0, 100, value=50))
    col.add(ListBox(["one", "two", "three", "four"]))
    window.set_root(col)
    display = DisplayServer(window)
    server = UniIntServer(display, scheduler)
    proxy = UniIntProxy(scheduler)
    pipe = make_pipe(scheduler, ETHERNET_100)
    server.accept(pipe.a)
    session = proxy.connect(pipe.b, encodings=encodings)
    scheduler.run_until_idle()
    return scheduler, display, window, session


KEYS = [keysyms.TAB, keysyms.RETURN, keysyms.SPACE, keysyms.UP,
        keysyms.DOWN, keysyms.LEFT, keysyms.RIGHT, keysyms.HOME,
        keysyms.END, keysyms.PAGE_DOWN]

actions = st.one_of(
    st.tuples(st.just("key"), st.sampled_from(KEYS)),
    st.tuples(st.just("click"),
              st.tuples(st.integers(0, 239), st.integers(0, 199))),
    st.tuples(st.just("label"), st.text(
        alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        max_size=12)),
)

encoding_sets = st.sampled_from([
    (RAW,), (HEXTILE, RAW), (ZRLE, RAW),
    (HEXTILE, ZRLE, RAW),
])


class TestMirrorInvariant:
    @given(st.lists(actions, max_size=15), encoding_sets)
    @settings(max_examples=25, deadline=None)
    def test_mirror_equals_framebuffer_after_quiescence(self, sequence,
                                                        encodings):
        scheduler, display, window, session = build(encodings)
        for kind, value in sequence:
            if kind == "key":
                session.upstream.press_key(value)
            elif kind == "click":
                session.upstream.click(value[0], value[1])
            else:
                window.root.find("status").text = value
            scheduler.run_until_idle()
            assert session.upstream.framebuffer == display.framebuffer

    @given(st.lists(actions, max_size=10), encoding_sets)
    @settings(max_examples=15, deadline=None)
    def test_burst_then_single_settle(self, sequence, encodings):
        """Events fired back-to-back (no settle between) still converge."""
        scheduler, display, window, session = build(encodings)
        for kind, value in sequence:
            if kind == "key":
                session.upstream.press_key(value)
            elif kind == "click":
                session.upstream.click(value[0], value[1])
            else:
                window.root.find("status").text = value
        scheduler.run_until_idle()
        assert session.upstream.framebuffer == display.framebuffer

    @given(st.lists(actions, max_size=10))
    @settings(max_examples=10, deadline=None)
    def test_two_clients_converge_identically(self, sequence):
        """Two clients with different encodings both track the server."""
        from repro.proxy.upstream import UniIntClient
        scheduler = Scheduler()
        window = UIWindow(240, 200)
        col = Column()
        label = col.add(Label("status"))
        label.widget_id = "status"
        col.add(ToggleButton("Power"))
        window.set_root(col)
        display = DisplayServer(window)
        server = UniIntServer(display, scheduler)
        clients = []
        for encodings in ((RAW,), (ZRLE, HEXTILE, RAW)):
            pipe = make_pipe(scheduler, ETHERNET_100,
                             name=f"c{len(clients)}")
            server.accept(pipe.a)
            clients.append(UniIntClient(pipe.b, encodings=encodings))
        scheduler.run_until_idle()
        for kind, value in sequence:
            if kind == "key":
                clients[0].press_key(value)
            elif kind == "click":
                clients[1].click(value[0], value[1])
            else:
                window.root.find("status").text = value
            scheduler.run_until_idle()
            assert clients[0].framebuffer == display.framebuffer
            assert clients[1].framebuffer == display.framebuffer


class TestDeterminism:
    def test_identical_runs_produce_identical_pixels(self):
        def run():
            scheduler, display, window, session = build((HEXTILE, RAW))
            for key in (keysyms.RETURN, keysyms.TAB, keysyms.RETURN,
                        keysyms.TAB, keysyms.RIGHT, keysyms.RIGHT):
                session.upstream.press_key(key)
                scheduler.run_until_idle()
            return (display.framebuffer.to_ppm(), scheduler.now(),
                    scheduler.fired_count)

        first = run()
        second = run()
        assert first == second
