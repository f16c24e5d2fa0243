"""Universal Interaction with Networked Home Appliances — reproduction.

A complete implementation of Nakajima & Hasegawa's ICDCS 2002 system:
thin-client *universal interaction* (bitmaps out, key/pointer events in)
between HAVi-controlled home appliances and heterogeneous interaction
devices, with a plug-in proxy and context-driven dynamic device selection.

Quick start::

    from repro import Home
    from repro.appliances import Television
    from repro.devices import Pda

    home = Home()
    home.add_appliance(Television("Living Room TV"))
    home.add_device(Pda("my-pda", home.scheduler))
    home.settle()            # run the simulated home to quiescence
    pda = home.devices["my-pda"]
    print(pda.screen_image)  # the TV control panel, dithered for the PDA

Layered architecture (each layer importable on its own):

========================  ====================================================
``repro.util``            virtual clock + deterministic event scheduler
``repro.net``             link profiles, scheduled byte pipes, framing
``repro.graphics``        bitmaps, wire pixel format, regions, dithering, fonts
``repro.uip``             the universal interaction protocol (RFB-class)
``repro.toolkit``         the widget toolkit (AWT/GTK+ stand-in)
``repro.windows``         the window system (X stand-in)
``repro.havi``            HAVi middleware: registry, messaging, DCM/FCM, bus
``repro.appliances``      simulated TV, VCR, amp, DVD, aircon, light, oven
``repro.server``          the UniInt server
``repro.proxy``           the UniInt proxy, plug-ins, upstream client
``repro.devices``         PDA, phone, voice, remote, displays, gesture pad
``repro.context``         situations, preferences, selection policy
``repro.app``             the appliance application (composed GUIs)
``repro.home``            the one-call Home facade
``repro.tools``           ASCII rendering, event traces, experiment reports
========================  ====================================================
"""

from repro.fleet import HomeFleet
from repro.home import Home

__version__ = "1.0.0"

__all__ = ["Home", "HomeFleet", "__version__"]
