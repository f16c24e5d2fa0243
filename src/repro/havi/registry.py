"""The HAVi registry: attribute-based software element lookup.

Software elements register a table of attributes (device class, FCM type,
manufacturer, an FCM's capability descriptor, ...).  Clients find them with
a query tree of comparisons combined with AND/OR/NOT — this is how the home
appliance application discovers "every FCM currently on the network" and
reads what it needs to build its control panel (paper §2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.havi.seid import SEID
from repro.util.errors import RegistryError

#: Attribute values are plain data: scalars, strings, or lists and dicts
#: of them (an FCM's ``capability.descriptor``).
AttrValue = object


class Query:
    """Base query node; subclasses implement :meth:`matches`."""

    def matches(self, attributes: dict[str, AttrValue]) -> bool:
        raise NotImplementedError

    # composition sugar
    def __and__(self, other: "Query") -> "Query":
        return QueryAnd([self, other])

    def __or__(self, other: "Query") -> "Query":
        return QueryOr([self, other])

    def __invert__(self) -> "Query":
        return QueryNot(self)


_OPS: dict[str, Callable[[AttrValue, AttrValue], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">": lambda a, b: a > b,       # type: ignore[operator]
    "<": lambda a, b: a < b,       # type: ignore[operator]
    ">=": lambda a, b: a >= b,     # type: ignore[operator]
    "<=": lambda a, b: a <= b,     # type: ignore[operator]
    "contains": lambda a, b: b in a,  # type: ignore[operator]
    "exists": lambda a, b: True,
}


@dataclass(frozen=True)
class Comparison(Query):
    """Leaf query: compare one attribute against a value."""

    attribute: str
    op: str
    value: AttrValue = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise RegistryError(f"unknown comparison op {self.op!r}")

    def matches(self, attributes: dict[str, AttrValue]) -> bool:
        if self.attribute not in attributes:
            return False
        try:
            return _OPS[self.op](attributes[self.attribute], self.value)
        except TypeError:
            return False


@dataclass(frozen=True)
class QueryAnd(Query):
    children: tuple[Query, ...]

    def __init__(self, children: Iterable[Query]) -> None:
        object.__setattr__(self, "children", tuple(children))
        if not self.children:
            raise RegistryError("AND query needs at least one child")

    def matches(self, attributes: dict[str, AttrValue]) -> bool:
        return all(child.matches(attributes) for child in self.children)


@dataclass(frozen=True)
class QueryOr(Query):
    children: tuple[Query, ...]

    def __init__(self, children: Iterable[Query]) -> None:
        object.__setattr__(self, "children", tuple(children))
        if not self.children:
            raise RegistryError("OR query needs at least one child")

    def matches(self, attributes: dict[str, AttrValue]) -> bool:
        return any(child.matches(attributes) for child in self.children)


@dataclass(frozen=True)
class QueryNot(Query):
    child: Query

    def matches(self, attributes: dict[str, AttrValue]) -> bool:
        return not self.child.matches(attributes)


@dataclass
class Registration:
    seid: SEID
    attributes: dict[str, AttrValue]


class Registry:
    """The network-wide element directory.

    ``on_change`` observers fire after every register/unregister — the event
    manager bridges these into HAVi events so applications can track
    appliance arrival/departure.
    """

    def __init__(self) -> None:
        self._entries: dict[SEID, Registration] = {}
        self.on_change: list[Callable[[str, Registration], None]] = []

    def register(self, seid: SEID,
                 attributes: dict[str, AttrValue]) -> None:
        if seid in self._entries:
            raise RegistryError(f"SEID {seid} already in registry")
        entry = Registration(seid, dict(attributes))
        self._entries[seid] = entry
        for observer in list(self.on_change):
            observer("registered", entry)

    def unregister(self, seid: SEID) -> None:
        entry = self._entries.pop(seid, None)
        if entry is None:
            raise RegistryError(f"SEID {seid} not in registry")
        for observer in list(self.on_change):
            observer("unregistered", entry)

    def get_attributes(self, seid: SEID) -> dict[str, AttrValue]:
        entry = self._entries.get(seid)
        if entry is None:
            raise RegistryError(f"SEID {seid} not in registry")
        return dict(entry.attributes)

    def query(self, query: Optional[Query] = None) -> list[SEID]:
        """SEIDs matching the query (all entries when query is None)."""
        if query is None:
            return sorted(self._entries)
        return sorted(
            seid for seid, entry in self._entries.items()
            if query.matches(entry.attributes)
        )

    def __len__(self) -> int:
        return len(self._entries)
