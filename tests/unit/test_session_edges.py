"""Edge cases in proxy session wiring and pointer hover routing."""

import pytest

from repro.devices import Pda, TvDisplay, VoiceInput
from repro.net import make_pipe
from repro.proxy import UniIntProxy
from repro.server import UniIntServer
from repro.toolkit import Column, Label, Slider, ToggleButton, UIWindow
from repro.toolkit.events import PointerKind
from repro.util import Scheduler
from repro.util.errors import ProxyError
from repro.windows import DisplayServer


def stack():
    scheduler = Scheduler()
    window = UIWindow(200, 150)
    col = Column()
    col.add(ToggleButton("Power")).widget_id = "power"
    col.add(Slider(0, 100, value=50)).widget_id = "slider"
    col.add(Label("label"))
    window.set_root(col)
    display = DisplayServer(window)
    server = UniIntServer(display, scheduler)
    proxy = UniIntProxy(scheduler)
    pipe = make_pipe(scheduler)
    server.accept(pipe.a)
    session = proxy.connect(pipe.b)
    scheduler.run_until_idle()
    return scheduler, display, window, proxy, session


class TestSessionEdges:
    def test_reselecting_same_device_is_noop(self):
        scheduler, display, window, proxy, session = stack()
        pda = Pda("pda", scheduler)
        pda.connect(proxy)
        proxy.select_input("pda")
        proxy.select_output("pda")
        count = session.switch_count
        proxy.select_input("pda")
        proxy.select_output("pda")
        assert session.switch_count == count

    def test_clearing_selection_with_none(self):
        scheduler, display, window, proxy, session = stack()
        pda = Pda("pda", scheduler)
        pda.connect(proxy)
        proxy.select_output("pda")
        scheduler.run_until_idle()
        proxy.select_output(None)
        assert proxy.current_output is None
        # UI changes with no output device must be safe
        window.root.find("power").toggle()
        scheduler.run_until_idle()

    def test_second_connect_rejected(self):
        scheduler, display, window, proxy, session = stack()
        pipe = make_pipe(scheduler, name="second")
        with pytest.raises(ProxyError):
            proxy.connect(pipe.b)

    def test_wrong_secret_closes_the_session(self):
        scheduler = Scheduler()
        window = UIWindow(200, 150)
        window.set_root(Column())
        server = UniIntServer(DisplayServer(window), scheduler,
                              secret="right")
        proxy = UniIntProxy(scheduler)
        pipe = make_pipe(scheduler)
        server.accept(pipe.a)
        session = proxy.connect(pipe.b, secret="wrong")
        scheduler.run_until_idle()  # must not raise
        assert session.upstream.closed and not session.upstream.ready
        assert server.sessions == []

    def test_unknown_device_selection_rejected(self):
        scheduler, display, window, proxy, session = stack()
        with pytest.raises(ProxyError):
            proxy.select_input("ghost")

    def test_session_close_clears_plugins(self):
        scheduler, display, window, proxy, session = stack()
        pda = Pda("pda", scheduler)
        pda.connect(proxy)
        proxy.select_input("pda")
        proxy.select_output("pda")
        session.close()
        assert session.input_plugin is None
        assert session.output_plugin is None

    def test_output_only_frames_still_flow_without_input(self):
        scheduler, display, window, proxy, session = stack()
        tv = TvDisplay("tv", scheduler)
        tv.connect(proxy)
        proxy.select_output("tv")
        scheduler.run_until_idle()
        before = tv.frames_received
        window.root.find("power").toggle()
        scheduler.run_until_idle()
        assert tv.frames_received > before


class TestDeviceCloseReentrancy:
    """unregister -> endpoint.close() -> _on_device_closed must converge.

    The close callback fires on a later scheduler tick, after the binding
    was already popped: it must not double-deselect, raise, or resurrect
    the device.
    """

    def test_unregister_then_close_event_is_idempotent(self):
        scheduler, display, window, proxy, session = stack()
        pda = Pda("pda", scheduler)
        pda.connect(proxy)
        proxy.select_input("pda")
        proxy.select_output("pda")
        scheduler.run_until_idle()
        switches_before = session.switch_count
        proxy.unregister_device("pda")
        assert proxy.current_input is None
        assert proxy.current_output is None
        # the deferred on_close event (from endpoint.close()) fires now:
        # the pop already happened, so it must be a no-op
        scheduler.run_until_idle()
        assert proxy.current_input is None
        assert proxy.current_output is None
        assert "pda" not in proxy.devices
        # exactly one deselect per role, not two
        assert session.switch_count == switches_before + 2

    def test_device_side_close_then_unregister_before_settle(self):
        """The device hangs up; the app unregisters before the close event
        lands.  Both cleanup paths run; neither may raise."""
        scheduler, display, window, proxy, session = stack()
        pda = Pda("pda", scheduler)
        pda.connect(proxy)
        proxy.select_output("pda")
        scheduler.run_until_idle()
        pda.disconnect()                      # close event now in flight
        proxy.unregister_device("pda")        # beat it to the cleanup
        scheduler.run_until_idle()            # in-flight close: no-op
        assert proxy.current_output is None
        assert "pda" not in proxy.devices

    def test_hot_unplug_selected_output_mid_frame_push(self):
        """The selected output device vanishes while damage is still being
        pushed/deferred on its link: the session must drop the frames on
        the floor, not raise."""
        from repro.devices import CellPhone
        scheduler, display, window, proxy, session = stack()
        phone = CellPhone("keitai", scheduler)
        phone.connect(proxy)
        proxy.select_output("keitai")
        scheduler.run_until_idle()
        # saturate the 9600 bps bearer so damage defers mid-push
        for i in range(6):
            window.root.find("power").toggle()
            scheduler.run_for(0.01)
        binding = proxy.binding("keitai")
        assert not binding.endpoint.writable or not session._deferred_push.is_empty
        phone.disconnect()                    # hot unplug, frames in flight
        window.root.find("power").toggle()    # more damage while closing
        scheduler.run_until_idle()
        assert proxy.current_output is None
        assert "keitai" not in proxy.devices
        # and a fresh device can take over cleanly afterwards
        tv = TvDisplay("tv", scheduler)
        tv.connect(proxy)
        proxy.select_output("tv")
        scheduler.run_until_idle()
        assert tv.frames_received >= 1


class TestPointerHover:
    def test_move_without_buttons_routed(self):
        scheduler, display, window, proxy, session = stack()
        seen = []
        slider = window.root.find("slider")
        original = slider.handle_pointer
        slider.handle_pointer = (
            lambda e: seen.append(e.kind) or original(e))
        cx, cy = slider.abs_rect().center
        session.upstream.send_pointer(cx, cy, 0)  # hover, no buttons
        scheduler.run_until_idle()
        assert PointerKind.MOVE in seen

    def test_drag_value_follows_through_pipeline(self):
        scheduler, display, window, proxy, session = stack()
        slider = window.root.find("slider")
        rect = slider.abs_rect()
        y = rect.center[1]
        session.upstream.send_pointer(rect.x + 5, y, 1)
        session.upstream.send_pointer(rect.x2 - 5, y, 1)
        session.upstream.send_pointer(rect.x2 - 5, y, 0)
        scheduler.run_until_idle()
        assert slider.value > 80
