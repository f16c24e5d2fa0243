"""Voice input device with a synthetic speech recogniser.

The paper's motivating scenario: hands busy cooking, switch input to
voice.  Real 2002 recognisers were vocabulary-constrained and error-prone,
so the simulator models both: a fixed command vocabulary and a seeded
recognition error model (drop or confuse).

The *device* does the recognising (like an era headset + DSP box); the
uploaded plug-in just maps recognised words to universal key events.
"""

from __future__ import annotations

import random

from repro.devices.base import InteractionDevice
from repro.net.link import BLUETOOTH_1
from repro.proxy.descriptors import DeviceDescriptor
from repro.proxy.plugins import InputPlugin, UniversalEvent
from repro.uip import keysyms
from repro.uip.messages import KeyEvent

#: Recognised words -> key sequences (None entries are chords).
VOCABULARY: dict[str, tuple[int, ...]] = {
    "next": (keysyms.TAB,),
    "previous": (),  # chord, handled specially
    "select": (keysyms.RETURN,),
    "ok": (keysyms.RETURN,),
    "cancel": (keysyms.ESCAPE,),
    "up": (keysyms.UP,),
    "down": (keysyms.DOWN,),
    "left": (keysyms.LEFT,),
    "right": (keysyms.RIGHT,),
    "more": (keysyms.RIGHT,),
    "less": (keysyms.LEFT,),
    "home": (keysyms.HOME,),
}


def _press(keysym: int) -> list[KeyEvent]:
    return [KeyEvent(True, keysym), KeyEvent(False, keysym)]


class VoiceCommandPlugin(InputPlugin):
    """Maps recognised vocabulary words to universal key events."""

    def translate(self, event: dict) -> list[UniversalEvent]:
        if event.get("type") != "voice":
            return []
        word = str(event.get("word", "")).lower()
        if word == "previous":
            return [KeyEvent(True, keysyms.SHIFT_L),
                    KeyEvent(True, keysyms.TAB),
                    KeyEvent(False, keysyms.TAB),
                    KeyEvent(False, keysyms.SHIFT_L)]
        keys = VOCABULARY.get(word)
        if not keys:
            return []  # out-of-vocabulary utterances are ignored
        out: list[UniversalEvent] = []
        for keysym in keys:
            out.extend(_press(keysym))
        return out


class VoiceInput(InteractionDevice):
    """A hands-free microphone + recogniser."""

    kind = "voice"
    input_plugin_factory = VoiceCommandPlugin
    output_plugin_factory = None

    def __init__(self, device_id: str, scheduler, seed: int = 0,
                 accuracy: float = 1.0) -> None:
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1]: {accuracy}")
        self.accuracy = accuracy
        self._rng = random.Random(("voice", device_id, seed).__repr__())
        self.utterances = 0
        self.misrecognitions = 0
        super().__init__(device_id, scheduler, seed)

    def build_descriptor(self) -> DeviceDescriptor:
        return DeviceDescriptor(
            device_id=self.device_id,
            kind=self.kind,
            screen=None,
            input_modes=frozenset({"voice"}),
            link=BLUETOOTH_1,
            tags=frozenset({"hands_free", "eyes_free", "personal"}),
        )

    # -- user actions ------------------------------------------------------------

    def say(self, word: str) -> None:
        """Utter one word (or phrase); the recogniser may mishear it."""
        self.utterances += 1
        heard = self._recognise(word.lower())
        if heard is None:
            self.misrecognitions += 1
            return  # recogniser produced nothing
        if heard != word.lower():
            self.misrecognitions += 1
        self.send_event({"type": "voice", "word": heard})

    def _recognise(self, word: str) -> str | None:
        if self._rng.random() < self.accuracy:
            return word
        # failure mode: half drops, half confusions with vocabulary words
        if self._rng.random() < 0.5:
            return None
        candidates = sorted(set(VOCABULARY) - {word})
        return self._rng.choice(candidates)
