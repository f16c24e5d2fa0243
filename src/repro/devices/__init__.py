"""Interaction devices (paper §2.2, component 4).

Each device simulates a piece of 2002-era interaction hardware with a
realistic capability envelope and bearer link, and carries the *plug-in
modules* it uploads to the UniInt proxy on selection:

=============  ======================  ==========================  =========
device         screen                  input                       bearer
=============  ======================  ==========================  =========
PDA            320x240 4-grey touch    stylus touch                802.11b
Cell phone     128x128 1-bit           12-key keypad               PDC 9600
Voice input    —                       speech (error model)        Bluetooth
IR remote      —                       buttons                     IrDA
TV display     720x480 RGB             —                           Ethernet
Wall display   1024x768 RGB            —                           Ethernet
Gesture pad    —                       strokes (recogniser)        Bluetooth
=============  ======================  ==========================  =========

Devices never touch appliance state directly: every interaction flows
through the proxy as universal events, which is the paper's whole point.
"""

from repro.devices.base import DeviceScreen, InteractionDevice
from repro.devices.pda import Pda, PdaOutputPlugin, PdaTouchPlugin
from repro.devices.phone import CellPhone, PhoneKeypadPlugin, PhoneOutputPlugin
from repro.devices.voice import VoiceInput, VoiceCommandPlugin, VOCABULARY
from repro.devices.remote import RemoteControl, RemoteButtonPlugin
from repro.devices.displays import (
    DisplayOutputPlugin,
    TvDisplay,
    WallDisplay,
)
from repro.devices.gesture import GesturePad, GesturePlugin

__all__ = [
    "CellPhone",
    "DeviceScreen",
    "DisplayOutputPlugin",
    "GesturePad",
    "GesturePlugin",
    "InteractionDevice",
    "Pda",
    "PdaOutputPlugin",
    "PdaTouchPlugin",
    "PhoneKeypadPlugin",
    "PhoneOutputPlugin",
    "RemoteButtonPlugin",
    "RemoteControl",
    "TvDisplay",
    "VOCABULARY",
    "VoiceCommandPlugin",
    "VoiceInput",
    "WallDisplay",
]
