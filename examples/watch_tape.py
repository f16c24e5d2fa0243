#!/usr/bin/env python3
"""Watch a tape: HAVi streams + DDI + universal interaction together.

The full home-theatre flow the HAVi substrate enables:

1. the stream manager routes the VCR's video output into the TV's display
   input (the TV retunes itself to the VCR),
2. the tape is started *through the universal interaction pipeline* from
   the sofa remote,
3. a DDI controller (a native HAVi client, e.g. a vendor remote app)
   watches the same appliances semantically and sees every change,
4. the whole session is recorded by an event trace, and "what the TV
   panel shows" is rendered as ASCII art.

Run:  python examples/watch_tape.py
"""

from repro import Home
from repro.app import DdiController
from repro.appliances import Television, VideoRecorder
from repro.context import UserSituation
from repro.devices import RemoteControl, TvDisplay
from repro.havi import FcmType, SEID
from repro.havi.ddi import render_text, build_tree
from repro.tools import EventTrace, bitmap_to_ascii
from repro.util.ids import guid_from_seed


def main() -> None:
    home = Home(width=480, height=360)
    trace = EventTrace().attach(home, event_prefix="stream.")
    tv = home.add_appliance(Television("TV"))
    vcr = home.add_appliance(VideoRecorder("VCR"))
    home.settle()

    remote = RemoteControl("sofa-remote", home.scheduler)
    panel = TvDisplay("tv-panel", home.scheduler)
    home.add_device(remote)
    home.add_device(panel)
    home.context.set_situation(UserSituation.on_the_sofa())
    home.settle()

    display = tv.dcm.fcm_by_type(FcmType.DISPLAY)
    deck = vcr.dcm.fcm_by_type(FcmType.VCR)

    # -- 1. route the stream ------------------------------------------------
    print("Connecting VCR video-out -> TV video-in via the stream manager")
    connection = home.network.streams.connect(
        deck.seid, "video-out", display.seid, "video-in")
    home.settle()
    print(f"  connection #{connection.connection_id}; "
          f"TV source is now {display.get_state('source')!r}")

    # -- 2. roll the tape from the sofa ---------------------------------------
    print("\nStarting playback from the sofa remote (universal events):")
    home.app.show_appliance("VCR")
    home.settle()
    remote.press("next")   # focus the deck power toggle
    remote.press("ok")     # power on
    home.settle()
    # walk to PLAY and press it
    for _ in range(10):
        focused = home.window.focus
        if focused is not None and (focused.widget_id or "").endswith(
                ".play"):
            break
        remote.press("next")
        home.settle()
    remote.press("ok")
    home.settle()
    print(f"  deck transport: {deck.get_state('transport')}")

    # -- 3. a native DDI client watches the same state -------------------------
    controller = DdiController(SEID(guid_from_seed("vendor-app"), 0),
                               home.network.messaging, home.network.events)
    controller.attach()
    controller.open(vcr.dcm.seid)
    changes = []
    controller.on_changed = lambda eid, value: changes.append((eid, value))
    home.run_for(30.0)          # half a minute of tape rolls by
    deck.invoke_local("counter.get")
    home.settle()
    print(f"\nDDI controller saw {len(changes)} change(s); "
          f"cached counter = "
          f"{controller.tree.find('1:counter').value}")
    print("DDI text rendering of the VCR (as a vendor app would show it):")
    for line in render_text(build_tree(vcr.dcm))[:8]:
        print(f"    {line}")

    # -- 4. what the TV panel shows ------------------------------------------------
    print("\nThe TV panel (output device), as ASCII art:")
    home.screenshot()
    print(bitmap_to_ascii(home.window.bitmap, width=64))

    print("\nStream events recorded by the trace:")
    print(trace.format() or "  (none)")

    # tidy up: stop the deck, tear the stream down
    deck.invoke_local("transport.stop")
    home.network.streams.disconnect(connection.connection_id)
    home.settle()
    print(f"\nafter disconnect, TV source: {display.get_state('source')!r}")


if __name__ == "__main__":
    main()
