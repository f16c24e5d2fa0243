"""Software element identifiers.

HAVi addresses every software element with a SEID: the 64-bit GUID of the
hosting device plus a local handle.  We keep GUIDs as stable hex strings
(derived from model + unit number, see :func:`repro.util.ids.guid_from_seed`)
so simulation runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class SEID:
    """A software element identifier: (device GUID, local handle)."""

    guid: str
    handle: int

    def __post_init__(self) -> None:
        if not self.guid:
            raise ValueError("SEID guid must be non-empty")
        if self.handle < 0:
            raise ValueError(f"SEID handle must be >= 0: {self.handle}")

    def __str__(self) -> str:
        return f"{self.guid}:{self.handle}"

    @classmethod
    def parse(cls, text: str) -> "SEID":
        guid, _, handle = text.rpartition(":")
        if not guid:
            raise ValueError(f"malformed SEID {text!r}")
        return cls(guid, int(handle))
