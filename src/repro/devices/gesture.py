"""Wearable gesture pad: strokes classified into navigation gestures.

Stands in for the paper's "control appliances by his/her gesture by
navigating augmented real world generated by wearable devices": the device
reports raw strokes (point sequences); the uploaded plug-in runs a small
geometric recogniser and emits universal key events.
"""

from __future__ import annotations

import math

from repro.devices.base import InteractionDevice
from repro.net.link import BLUETOOTH_1
from repro.proxy.descriptors import DeviceDescriptor
from repro.proxy.plugins import InputPlugin, UniversalEvent
from repro.uip import keysyms
from repro.uip.messages import KeyEvent

#: Gesture name -> keysym.
GESTURE_MAP = {
    "swipe-right": keysyms.TAB,
    "swipe-up": keysyms.UP,
    "swipe-down": keysyms.DOWN,
    "tap": keysyms.RETURN,
    "circle": keysyms.ESCAPE,
}

#: Minimum displacement (device units) for a stroke to count as a swipe.
SWIPE_THRESHOLD = 30.0
#: Total absolute turning (radians) above which a stroke is a circle.
CIRCLE_TURNING = 4.5


def classify_stroke(points: list[tuple[float, float]]) -> str | None:
    """Classify a stroke into tap / swipe-<dir> / circle / None."""
    if not points:
        return None
    if len(points) == 1:
        return "tap"
    x0, y0 = points[0]
    x1, y1 = points[-1]
    dx, dy = x1 - x0, y1 - y0
    displacement = math.hypot(dx, dy)
    turning = _total_turning(points)
    if turning > CIRCLE_TURNING and displacement < SWIPE_THRESHOLD:
        return "circle"
    if displacement < SWIPE_THRESHOLD / 3:
        return "tap"
    if displacement < SWIPE_THRESHOLD:
        return None  # too small to be sure
    if abs(dx) >= abs(dy):
        return "swipe-right" if dx > 0 else "swipe-left"
    return "swipe-down" if dy > 0 else "swipe-up"


def _total_turning(points: list[tuple[float, float]]) -> float:
    total = 0.0
    previous_angle = None
    for (ax, ay), (bx, by) in zip(points, points[1:]):
        if ax == bx and ay == by:
            continue
        angle = math.atan2(by - ay, bx - ax)
        if previous_angle is not None:
            delta = angle - previous_angle
            while delta > math.pi:
                delta -= 2 * math.pi
            while delta < -math.pi:
                delta += 2 * math.pi
            total += abs(delta)
        previous_angle = angle
    return total


class GesturePlugin(InputPlugin):
    """Stroke classification -> universal key events."""

    def translate(self, event: dict) -> list[UniversalEvent]:
        if event.get("type") != "stroke":
            return []
        points = [(float(x), float(y)) for x, y in event.get("points", [])]
        gesture = classify_stroke(points)
        if gesture == "swipe-left":  # reverse focus chord
            return [KeyEvent(True, keysyms.SHIFT_L),
                    KeyEvent(True, keysyms.TAB),
                    KeyEvent(False, keysyms.TAB),
                    KeyEvent(False, keysyms.SHIFT_L)]
        keysym = GESTURE_MAP.get(gesture or "")
        if keysym is None:
            return []
        return [KeyEvent(True, keysym), KeyEvent(False, keysym)]


class GesturePad(InteractionDevice):
    """A wrist-worn gesture sensor."""

    kind = "gesture"
    input_plugin_factory = GesturePlugin
    output_plugin_factory = None

    def build_descriptor(self) -> DeviceDescriptor:
        return DeviceDescriptor(
            device_id=self.device_id,
            kind=self.kind,
            screen=None,
            input_modes=frozenset({"gesture"}),
            link=BLUETOOTH_1,
            tags=frozenset({"wearable", "hands_free", "personal"}),
        )
