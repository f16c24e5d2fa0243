"""The dirty-rect contract the output plug-ins' scale cache relies on.

An output plug-in keeps its last scaled bitmap and rescales only the
``dirty`` footprint of each push, and ships the device a box of what
changed, so every path by which a session's upstream mirror changes must
reach the plug-in as damage (or as a new frame object).  Each test drives
one such path through a real ``ProxySession`` and then requires the
device's screen to be byte-identical to what a fresh plug-in makes of the
whole mirror.
"""

from repro.appliances import Television
from repro.devices import CellPhone, Pda
from repro.havi import FcmType
from repro.home import Home
from repro.net import ETHERNET_100, make_pipe
from repro.proxy import SessionContext, UniIntProxy
from repro.server import UniIntServer
from repro.toolkit import Column, Label, UIWindow
from repro.util import Scheduler
from repro.windows import DisplayServer
from tests.helpers import ScreenReplay


def fresh_image(device, frame):
    plugin = device.output_plugin_factory(device.descriptor,
                                          SessionContext())
    return plugin.transform(frame, frame.bounds)


def assert_device_shows_mirror(session, device):
    frame = session.upstream.framebuffer
    assert device.screen_image == fresh_image(device, frame)


def check_every_push(session, device):
    """Apply each image the session's plug-in makes to a copy of the
    device's screen, and compare that screen with a fresh plug-in's full
    image.

    Returns the list of dirty rects seen, so a test can show that pushes
    really were partial.
    """
    plugin = session.output_plugin
    transform = plugin.transform
    screen = ScreenReplay(device.screen_image)
    dirties = []

    def checked(frame, dirty):
        image = transform(frame, dirty)
        assert screen.show(image) == fresh_image(device, frame)
        dirties.append(dirty)
        return image

    plugin.transform = checked
    return dirties


def panel_stack(width=160, height=120, rows=3):
    """A labelled panel served to a proxy with a phone and a PDA."""
    scheduler = Scheduler()
    window = UIWindow(width, height)
    column = Column()
    labels = [column.add(Label(f"row {i}")) for i in range(rows)]
    window.set_root(column)
    display = DisplayServer(window)
    server = UniIntServer(display, scheduler)
    proxy = UniIntProxy(scheduler)
    pipe = make_pipe(scheduler, ETHERNET_100, name="server-link")
    server.accept(pipe.a)
    session = proxy.connect(pipe.b)
    phone = CellPhone("keitai", scheduler)
    pda = Pda("pda", scheduler)
    phone.connect(proxy)
    pda.connect(proxy)
    scheduler.run_until_idle()
    return scheduler, display, window, labels, proxy, session, phone, pda


def churn(scheduler, labels, ticks, step=0.05, tag="tick"):
    for tick in range(ticks):
        labels[tick % len(labels)].text = f"{tag} {tick}"
        scheduler.run_for(step)


class TestDirtyContract:
    def test_damage_merged_during_backpressure_deferral(self):
        scheduler, _, _, labels, proxy, session, phone, _ = panel_stack()
        proxy.select_output("keitai")
        scheduler.run_until_idle()
        dirties = check_every_push(session, phone)
        churn(scheduler, labels, ticks=80)
        scheduler.run_until_idle()
        # the 9600 bps bearer withheld pushes and merged their damage
        assert session.updates_coalesced > 0
        frame = session.upstream.framebuffer
        assert dirties and all(d.area < frame.bounds.area for d in dirties)
        assert_device_shows_mirror(session, phone)

    def test_redial_adopts_a_new_mirror(self):
        home = Home(resilience=True)
        tv = home.add_appliance(Television("tv"))
        pda = Pda("pda-1", home.scheduler)
        home.add_device(pda)
        home.settle()
        session = home.default_user.session
        before = session.upstream
        session.upstream.endpoint.abort()
        # the panel changes while the session is down
        tv.dcm.fcm_by_type(FcmType.TUNER).invoke_local("power.set",
                                                       {"on": True})
        home.scheduler.run_until_idle()
        assert session.resilience.reconnect_count == 1
        assert session.upstream is not before
        assert session.upstream.framebuffer == home.display.framebuffer
        assert_device_shows_mirror(session, pda)

    def test_output_switch(self):
        scheduler, _, _, labels, proxy, session, phone, pda = panel_stack(
            480, 360)
        proxy.select_output("pda")
        scheduler.run_until_idle()
        churn(scheduler, labels, ticks=3, tag="pda")
        proxy.select_output("keitai")
        scheduler.run_until_idle()
        # the mirror changes while the PDA is not the output
        churn(scheduler, labels, ticks=6, tag="phone")
        proxy.select_output("pda")
        scheduler.run_until_idle()
        assert_device_shows_mirror(session, pda)
        dirties = check_every_push(session, pda)
        churn(scheduler, labels, ticks=3, tag="back")
        scheduler.run_until_idle()
        assert dirties
        assert_device_shows_mirror(session, pda)
