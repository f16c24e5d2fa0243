"""Deterministic identifier generation.

HAVi software elements, proxy sessions and devices all need unique ids.  We
avoid :mod:`uuid` so that repeated runs of a simulation produce identical
identifiers, which keeps golden-file tests and trace diffs meaningful.
"""

from __future__ import annotations

import hashlib


def guid_prefixes(guids, start: int = 8) -> dict[str, str]:
    """Map each GUID to a prefix that is unique within the set.

    Widget and page ids embed a GUID prefix; two devices whose GUIDs share
    the first ``start`` hex digits would silently alias each other's
    widgets.  The prefix length is extended (uniformly, so id shapes stay
    consistent across the UI) until every prefix is distinct.
    """
    ordered = list(dict.fromkeys(guids))
    longest = max((len(guid) for guid in ordered), default=start)
    length = start
    while length < longest:
        prefixes = {guid: guid[:length] for guid in ordered}
        if len(set(prefixes.values())) == len(ordered):
            return prefixes
        length += 1
    return {guid: guid for guid in ordered}


def guid_from_seed(seed: str, length: int = 16) -> str:
    """Derive a stable hex GUID from a seed string.

    Used for simulated IEEE-1394 device GUIDs: the same appliance model and
    unit number always yields the same GUID, run after run.
    """
    if length <= 0 or length > 64:
        raise ValueError(f"guid length out of range: {length}")
    digest = hashlib.sha256(seed.encode("utf-8")).hexdigest()
    return digest[:length]
