"""Widget toolkit — the reproduction's stand-in for Java AWT / GTK+ / Qt.

The paper's key transparency claim (§2.1, third characteristic) is that
appliance applications keep using a *traditional* GUI toolkit and gain
universal interaction for free, because the toolkit renders to a framebuffer
and consumes keyboard/mouse events — exactly the universal event vocabulary.

This package provides that traditional toolkit: a retained widget tree
(buttons, labels, sliders, toggles, lists, tabs) with box layout,
keyboard focus traversal, pointer capture and damage tracking, painting into
a :class:`~repro.graphics.Bitmap` through a clipped :class:`Canvas`.
"""

from repro.toolkit.canvas import Canvas
from repro.toolkit.events import KeyPress, Pointer, PointerKind
from repro.toolkit.theme import DEFAULT_THEME, Theme
from repro.toolkit.widget import Widget
from repro.toolkit.layout import Column, Row
from repro.toolkit.widgets import (
    Button,
    Label,
    ListBox,
    Panel,
    ProgressBar,
    Slider,
    TabPanel,
    TextField,
    ToggleButton,
)
from repro.toolkit.window import UIWindow

__all__ = [
    "Button",
    "Canvas",
    "Column",
    "DEFAULT_THEME",
    "KeyPress",
    "Label",
    "ListBox",
    "Panel",
    "Pointer",
    "PointerKind",
    "ProgressBar",
    "Row",
    "Slider",
    "TabPanel",
    "TextField",
    "Theme",
    "ToggleButton",
    "UIWindow",
    "Widget",
]
