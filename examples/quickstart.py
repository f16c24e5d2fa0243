#!/usr/bin/env python3
"""Quickstart: a TV, a PDA, and universal interaction between them.

Builds a one-appliance home, connects a PDA, turns the TV on by tapping
its on-screen power toggle *through the universal interaction pipeline*
(PDA touch -> input plug-in -> universal pointer event -> UniInt server ->
window system -> widget -> HAVi command -> TV), and saves screenshots of
both the application framebuffer and the PDA's dithered 4-grey screen.

Run:  python examples/quickstart.py
"""

import os

from repro import Home
from repro.appliances import Television
from repro.devices import Pda
from repro.graphics import ops
from repro.havi import FcmType

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def main() -> None:
    os.makedirs(OUT_DIR, exist_ok=True)

    # 1. Assemble the home and plug in a TV.
    home = Home(width=480, height=360)
    tv = home.add_appliance(Television("Living Room TV"))
    home.settle()
    print(f"appliances discovered: "
          f"{[a.name for a in home.app.appliances]}")

    # 2. Connect a PDA; the context manager selects it for both roles.
    pda = Pda("my-pda", home.scheduler)
    home.add_device(pda)
    home.settle()
    print(f"selected input:  {home.proxy.current_input}")
    print(f"selected output: {home.proxy.current_output}")
    print(f"PDA screen: {pda.screen_image.width}x"
          f"{pda.screen_image.height} {pda.screen_image.format}, "
          f"{len(pda.screen_image.data)} bytes per full frame")

    # 3. Tap the TV's power toggle on the PDA (through the view transform).
    tuner = tv.dcm.fcm_by_type(FcmType.TUNER)
    print(f"\nTV power before tap: {tuner.get_state('power')}")
    power = home.window.root.find(f"{tv.guid[:8]}.tuner.power")
    cx, cy = power.abs_rect().center
    dx, dy = home.session.context.view.to_device(cx, cy)
    pda.tap(dx, dy)
    home.settle()
    print(f"TV power after tap:  {tuner.get_state('power')}")

    # 4. Surf up two channels with two more taps on CH+.
    ch_up = home.window.root.find(f"{tv.guid[:8]}.tuner.ch-up")
    cx, cy = ch_up.abs_rect().center
    dx, dy = home.session.context.view.to_device(cx, cy)
    pda.tap(dx, dy)
    pda.tap(dx, dy)
    home.settle()
    print(f"TV channel now: {tuner.get_state('channel')} "
          f"({tuner.get_state('station')})")

    # 5. Screenshots: the app framebuffer and the PDA's dithered screen.
    shot = home.screenshot().bitmap
    shot.save_ppm(os.path.join(OUT_DIR, "quickstart_app.ppm"))
    ops.gray_bitmap(pda.screen_luma()).save_ppm(
        os.path.join(OUT_DIR, "quickstart_pda.ppm"))
    print(f"\nscreenshots written to {OUT_DIR}/")
    print(f"simulated time elapsed: {home.scheduler.now():.3f}s")
    print(f"bytes over the PDA link: {pda.link_stats.bytes_received} down, "
          f"{pda.link_stats.bytes_sent} up")


if __name__ == "__main__":
    main()
