"""The README quickstart snippet must work exactly as documented."""

from repro import Home
from repro.appliances import Television, VideoRecorder
from repro.context import UserSituation
from repro.devices import CellPhone, VoiceInput, WallDisplay
from repro.havi import FcmType
from repro.toolkit import TabPanel


def test_readme_quickstart_snippet():
    home = Home()
    home.add_appliance(Television("Living Room TV"))
    home.add_appliance(VideoRecorder("VCR"))        # -> composed TV+VCR GUI

    phone = CellPhone("keitai", home.scheduler)
    home.add_device(phone)
    home.add_device(VoiceInput("mic", home.scheduler))
    home.add_device(WallDisplay("kitchen-wall", home.scheduler))
    home.settle()

    phone.press("*")        # keypad Tab: focus the TV panel's power toggle
    phone.press("5")        # keypad 'select' -> universal Return -> power
    home.settle()

    home.context.set_situation(UserSituation.cooking())  # hands busy now
    home.settle()
    assert home.proxy.current_input == "mic"  # switched to voice, live

    # the claims around the snippet
    assert isinstance(home.window.root, TabPanel)  # composed GUI
    assert sorted(home.window.root.titles) == ["Living Room TV", "VCR"]
    tv = home.appliances["Living Room TV"]
    assert tv.dcm.fcm_by_type(FcmType.TUNER).get_state("power") is True


def test_readme_preference_snippet():
    """The 'Multi-user homes & follow-me migration' preference snippet,
    verbatim."""
    from repro.appliances import MicrowaveOven
    from repro.devices import Pda

    home = Home()
    home.add_appliance(MicrowaveOven("Oven"))
    home.add_device(Pda("pda", home.scheduler))
    home.add_device(VoiceInput("mic", home.scheduler))
    home.settle()

    home.context.update(hands_busy=True)   # cooking: the situation picks voice
    home.settle()
    assert home.proxy.current_input == "mic"

    home.preferences.rule("never talk to the oven", lambda s: True,
                          voice=-10.0)
    home.context.reselect()                # the preference outweighs it
    home.settle()
    assert home.proxy.current_input == "pda"


def test_readme_multiuser_snippet():
    """The 'Multi-user homes & follow-me migration' snippet, verbatim."""
    from repro.devices import Pda, TvDisplay

    home = Home()
    home.add_appliance(Television("TV"))
    alice = home.add_user("alice")
    bob = home.add_user("bob")

    home.add_device(CellPhone("alice-keitai", home.scheduler), user="alice")
    home.add_device(Pda("bob-pda", home.scheduler), user="bob")
    home.add_device(TvDisplay("tv-panel", home.scheduler), shared=True)
    home.settle()

    alice.set_situation(UserSituation.on_the_sofa())  # alice takes the panel
    bob.set_situation(UserSituation.on_the_sofa())    # tie: alice keeps it
    home.settle()
    assert alice.current_output == "tv-panel"
    assert bob.current_output == "bob-pda"            # bob's next-best

    record = alice.move_to("kitchen")                 # follow-me migration
    home.settle()
    assert bob.current_output == "tv-panel"           # freed panel -> bob
    assert record.latency_s is not None               # handoff latency


def test_readme_module_docstring_quickstart():
    """The snippet in repro/__init__ works too."""
    from repro.devices import Pda

    home = Home()
    home.add_appliance(Television("Living Room TV"))
    home.add_device(Pda("my-pda", home.scheduler))
    home.settle()
    pda = home.devices["my-pda"]
    assert pda.screen_image is not None
    assert pda.screen_image.format == "gray4"


def test_readme_fleet_snippet():
    """The 'Fleet: many homes, one process, real TCP' snippet, verbatim."""
    from repro import HomeFleet
    from repro.appliances import DimmableLight
    from repro.devices import Pda

    fleet = HomeFleet()
    for i in range(8):
        home = fleet.add_home(f"h{i}")           # Home(transport="tcp")
        home.add_appliance(DimmableLight(f"lamp-{i}"))
        home.add_device(Pda(f"pda-{i}", home.scheduler))
    fleet.settle()           # drives all 8 handshakes over real TCP sockets

    # the claims around the snippet
    assert all(h.server_session.ready for h in fleet)
    assert len({h.listener.port for h in fleet}) == 8  # one port per home
    frames_before = fleet.home("h3").session.frames_pushed

    lamp = fleet.home("h3").appliances["lamp-3"]
    lamp.dcm.fcm_by_type(FcmType.LIGHT).invoke_local("power.toggle")
    fleet.settle()           # redraw -> encode -> TCP -> decode -> PDA frame

    assert fleet.home("h3").session.frames_pushed > frames_before
    reactor = fleet.reactor
    fleet.close()
    assert reactor.handle_count == 0


def test_readme_fault_injection_snippet():
    """The 'Fault injection & self-healing' snippet, verbatim."""
    from repro.net import FaultInjector

    home = Home(transport="tcp", resilience=True)  # heartbeats + redial
    home.add_appliance(Television("TV"))
    from repro.devices import Pda
    home.add_device(Pda("pda", home.scheduler))
    home.settle()

    chaos = FaultInjector()
    chaos.rst(home.session.upstream.endpoint)   # yank the session's cable
    home.settle()                               # detect, redial

    assert home.session.resilience.reconnect_count == 1
    assert home.session.upstream.updates_received == 1  # one full-frame resync
    home.close()


def test_readme_per_user_surfaces_snippet():
    """The 'Per-user surfaces' snippet, verbatim."""
    from repro.appliances import MicrowaveOven

    home = Home()
    home.add_appliance(Television("TV"))
    home.add_appliance(MicrowaveOven("Micro"))
    alice = home.add_user("alice")
    bob = home.add_user("bob")
    home.settle()

    alice.show_appliance("TV")      # alice's view tabs to the TV ...
    bob.show_appliance("Micro")     # ... bob's stays on the microwave
    home.settle()

    # independent input: alice toggles TV power on *her* surface only
    guid8 = home.appliances["TV"].guid[:8]
    power = alice.window.root.find(f"{guid8}.tuner.power")
    bob_wire = bob.server_session.endpoint.stats.bytes_sent
    alice.session.upstream.click(*power.abs_rect().center)
    home.settle()

    tuner = home.appliances["TV"].dcm.fcm_by_type(FcmType.TUNER)
    assert tuner.get_state("power") is True
    assert alice.window is not bob.window            # independent views
    assert (bob.server_session.endpoint.stats.bytes_sent
            == bob_wire)                             # bob's wire stayed silent


def test_readme_dynamic_panels_snippet():
    """The 'Dynamic capability panels' snippet, verbatim."""
    from repro.appliances import Refrigerator
    from repro.devices import Pda

    home = Home()
    home.add_appliance(Refrigerator("Fridge"))  # zero panel code, zero DDI spec
    home.add_device(Pda("pda", home.scheduler))
    home.settle()

    guid8 = home.appliances["Fridge"].guid[:8]
    dispense = home.window.root.find(f"{guid8}.refrigerator.ice-dispense")
    home.session.upstream.click(*dispense.abs_rect().center)
    home.settle()

    fridge = home.appliances["Fridge"].dcm.fcm_by_type(FcmType.REFRIGERATOR)
    assert fridge.get_state("ice_level") == 50  # generated button drove the FCM
    level = home.window.root.find(f"{guid8}.refrigerator.ice-level")
    assert level.value == 50                    # ...and the panel follows state


def test_readme_client_order_snippet():
    """The 'ZRLE, chosen by the client' snippet, verbatim."""
    from repro.net import CELLULAR_PDC, make_pipe
    from repro.proxy.upstream import UniIntClient
    from repro.server import UniIntServer
    from repro.toolkit import Column, Label, UIWindow
    from repro.uip import HEXTILE, RAW, ZRLE
    from repro.util import Scheduler
    from repro.windows import DisplayServer

    scheduler = Scheduler()
    window = UIWindow(320, 240)
    column = Column()
    for i in range(10):
        column.add(Label(f"row {i}"))
    window.set_root(column)
    display = DisplayServer(window)
    server = UniIntServer(display, scheduler)

    zrle_leg = make_pipe(scheduler, CELLULAR_PDC, name="zrle")
    hextile_leg = make_pipe(scheduler, CELLULAR_PDC, name="hextile")
    server.accept(zrle_leg.a)
    server.accept(hextile_leg.a)
    small = UniIntClient(zrle_leg.b, encodings=(ZRLE, HEXTILE, RAW))
    plain = UniIntClient(hextile_leg.b)  # the default offer: HEXTILE first
    scheduler.run_until_idle()
    assert small.framebuffer == plain.framebuffer == display.framebuffer
    assert (2 * small.endpoint.stats.bytes_received
            < plain.endpoint.stats.bytes_received)


def test_readme_command_spine_snippet():
    """The 'Command spine' snippet, verbatim."""
    from repro.app.commands import CommandState
    from repro.appliances import MicrowaveOven
    from repro.net.faults import FaultPlan
    from repro.tools.report import render_command_journal

    home = Home()
    home.add_appliance(MicrowaveOven("Oven"))
    home.settle()

    job = home.submit_command("Oven", "timer.add", {"seconds": 90})
    home.settle()
    assert job.ok and job.result == {"pending_s": 90}

    home.network.messaging.inject_faults(FaultPlan(drop=1.0), "bus")
    lost = home.submit_command("Oven", "timer.start")
    home.settle()                 # the 2 s guard fires on the virtual clock
    assert lost.state is CommandState.TIMED_OUT

    journal = render_command_journal(home.command_log)  # id origin opcode...
    assert "timer.add" in journal and "timed_out" in journal
