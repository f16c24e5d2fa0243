"""Device descriptors: the capability envelope a device presents.

When an interaction device registers with the proxy it presents a
descriptor: what it can display (if anything), what events it can produce
(if any), which network bearer it sits on, and *modality tags* the
context-driven selection policy matches against user situations (e.g. a
voice input is ``hands_free``, a TV display is ``fixed`` and ``shared``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.link import LinkProfile
from repro.util.errors import ProxyError

#: Device-side image formats an output plug-in may produce, and the bits
#: each packs a pixel into (rows are padded to whole bytes).
BITS_PER_PIXEL = {"mono1": 1, "gray4": 2, "rgb888": 24}


@dataclass(frozen=True)
class ScreenSpec:
    """Display capability of an output-capable device."""

    width: int
    height: int
    format: str  # a key of BITS_PER_PIXEL

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ProxyError(f"screen size must be positive: "
                             f"{self.width}x{self.height}")
        if self.format not in BITS_PER_PIXEL:
            raise ProxyError(f"unknown image format {self.format!r}")

    @property
    def bits_per_pixel(self) -> int:
        return BITS_PER_PIXEL[self.format]


@dataclass(frozen=True)
class DeviceDescriptor:
    """Everything the proxy needs to know about an interaction device."""

    device_id: str
    kind: str  # "pda", "phone", "voice", "remote", "tv-display", ...
    #: Display, or None for input-only devices (voice, remote, gesture).
    screen: Optional[ScreenSpec] = None
    #: Input modalities: subset of {"touch", "keypad", "voice", "ir",
    #: "gesture"}; empty for output-only devices.
    input_modes: frozenset = frozenset()
    #: The bearer this device talks over.
    link: Optional[LinkProfile] = None
    #: Tags the selection policy scores against user situations.
    tags: frozenset = frozenset()

    def __post_init__(self) -> None:
        if not self.device_id:
            raise ProxyError("device_id must be non-empty")
        if self.screen is None and not self.input_modes:
            raise ProxyError(
                f"device {self.device_id!r} is neither input nor output")
        object.__setattr__(self, "input_modes", frozenset(self.input_modes))
        object.__setattr__(self, "tags", frozenset(self.tags))

    @property
    def is_input(self) -> bool:
        return bool(self.input_modes)

    @property
    def is_output(self) -> bool:
        return self.screen is not None

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags
