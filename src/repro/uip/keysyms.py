"""X11-style keysyms: the vocabulary of universal input key events.

The paper fixes keyboard/mouse events as the universal *input* events.  We
use the X11 keysym space: printable ASCII maps to itself, control keys live
in the 0xFF00 page.  Input plug-ins translate device-native events (keypad
digits, voice commands, gestures) into these.
"""

from __future__ import annotations

# -- control keys (X11 0xFF00 page) ------------------------------------------

BACKSPACE = 0xFF08
TAB = 0xFF09
RETURN = 0xFF0D
ESCAPE = 0xFF1B
HOME = 0xFF50
LEFT = 0xFF51
UP = 0xFF52
RIGHT = 0xFF53
DOWN = 0xFF54
PAGE_UP = 0xFF55
PAGE_DOWN = 0xFF56
END = 0xFF57
INSERT = 0xFF63
MENU = 0xFF67
F1 = 0xFFBE
F2 = 0xFFBF
F3 = 0xFFC0
F4 = 0xFFC1
F5 = 0xFFC2
F6 = 0xFFC3
F7 = 0xFFC4
F8 = 0xFFC5
F9 = 0xFFC6
F10 = 0xFFC7
F11 = 0xFFC8
F12 = 0xFFC9
SHIFT_L = 0xFFE1
SHIFT_R = 0xFFE2
CONTROL_L = 0xFFE3
CONTROL_R = 0xFFE4
ALT_L = 0xFFE9
ALT_R = 0xFFEA
DELETE = 0xFFFF
SPACE = 0x0020

#: Names for the non-printable keysyms (diagnostics, trace files).
NAMES: dict[int, str] = {
    BACKSPACE: "BackSpace",
    TAB: "Tab",
    RETURN: "Return",
    ESCAPE: "Escape",
    HOME: "Home",
    LEFT: "Left",
    UP: "Up",
    RIGHT: "Right",
    DOWN: "Down",
    PAGE_UP: "PageUp",
    PAGE_DOWN: "PageDown",
    END: "End",
    INSERT: "Insert",
    MENU: "Menu",
    F1: "F1", F2: "F2", F3: "F3", F4: "F4", F5: "F5", F6: "F6",
    F7: "F7", F8: "F8", F9: "F9", F10: "F10", F11: "F11", F12: "F12",
    SHIFT_L: "Shift_L",
    SHIFT_R: "Shift_R",
    CONTROL_L: "Control_L",
    CONTROL_R: "Control_R",
    ALT_L: "Alt_L",
    ALT_R: "Alt_R",
    DELETE: "Delete",
}


def char_for_keysym(keysym: int) -> str | None:
    """Printable character for a keysym, or None for control keys."""
    if 0x20 <= keysym <= 0xFF:
        return chr(keysym)
    return None


def name_for_keysym(keysym: int) -> str:
    """Human-readable name, e.g. for event traces."""
    char = char_for_keysym(keysym)
    if char is not None:
        return char
    return NAMES.get(keysym, f"keysym-0x{keysym:04X}")


# -- pointer buttons -----------------------------------------------------------

BUTTON_LEFT = 0x01
BUTTON_MIDDLE = 0x02
BUTTON_RIGHT = 0x04
SCROLL_UP = 0x08
SCROLL_DOWN = 0x10
