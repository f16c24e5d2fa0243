"""The screen a device shows, rebuilt on the test side from the images an
output plug-in makes."""

from typing import Optional

from repro.devices import DeviceScreen
from repro.proxy import DeviceImage


class ScreenReplay:
    """A :class:`~repro.devices.DeviceScreen` fed through the wire form.

    Each image is encoded and decoded first, so a box outside the screen
    or a payload of part rows raises ``PluginError`` here as it would on
    the device; the device's own screen then applies it.  ``start`` is
    the whole screen to begin from (e.g. a device's ``screen_image``);
    without it the first image must be a full frame.
    """

    def __init__(self, start: Optional[DeviceImage] = None) -> None:
        self._screen = DeviceScreen()
        if start is not None:
            self.show(start)

    def show(self, image: DeviceImage) -> DeviceImage:
        """Apply ``image``; returns the whole screen after it."""
        self._screen.show(DeviceImage.decode(b"".join(image.encode())))
        return self._screen.image
