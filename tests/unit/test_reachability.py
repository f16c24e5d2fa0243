"""Reachability guard: every name ``src/repro`` defines is reached.

Both scans list every module-level function and class, and every method
of a module-level class, under ``src/repro`` (dunders excepted), and
count the mentions of each name in the ``.py`` files of the scanned
trees:

* the first scan reads ``src/``, ``tests/``, ``benchmarks/`` and
  ``examples/``, so a name it lists is referenced nowhere;
* the second scan leaves ``tests/`` out, so a name it lists is reached
  only from tests.

A mention is

* a ``Name`` (a call, a base class, an annotation, a decorator),
* an ``Attribute`` (``obj.name``),
* an import alias (``from m import name``, ``import m as name``),
* an identifier inside a string constant, docstrings included — the
  end-to-end tracer names the callables it wraps in strings such as
  ``"repro.windows.server:DisplayServer.composite"``.

Mentions inside the name's own definition do not count: its body, its
docstring and its messages, and for a class, its own methods too (a
method annotated ``-> "Owner"`` does not keep ``Owner`` alive).  A
package ``__init__.py`` only re-exports, so its imports and ``__all__``
do not count: an export alone does not keep a name alive.  This file is
not scanned either, since its own code names AST node types.

The check matches by *name*, not by binding.  It cannot see a dead
definition whose word occurs in any *other* definition, in code or in a
string or docstring: a method named ``swipe`` counts as used wherever a
gesture string such as ``"swipe-right"`` appears, and a ``drag`` method
counts as used once another docstring says "drag".  So it is a floor
under dead code, not a proof of liveness.  Each scan makes one pass: a
name that only a deleted definition mentioned shows up on the next run.

Only stdlib :mod:`ast` is used.  To keep a name a scan lists, add it to
:data:`ALLOWED` or :data:`ALLOWED_OUTSIDE_TESTS` with a one-line reason.
A reason in the second list names the README section or example that
teaches the name, or says "probe" with its test call-site count: a
read-only accessor stays when deleting it would make the tests longer
than ``src/`` gets shorter, make them read a private attribute, or change
what they compare.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
EVERYWHERE = ("src", "tests", "benchmarks", "examples")
OUTSIDE_TESTS = ("src", "benchmarks", "examples")

#: Unreferenced names that stay on purpose: ``"Owner.name": "reason"``.
ALLOWED: dict[str, str] = {}

#: Names only tests reach that stay on purpose: ``"Owner.name": "reason"``.
ALLOWED_OUTSIDE_TESTS: dict[str, str] = {
    # taught by README.md
    "FaultInjector.stall_link": "README 'Fault injection': a storm verb",
    "FaultPlan.errno_at": "README 'Fault injection': syscall errno plans",
    "FcmHandle.command_stats": "README 'Command spine': handle error stats",
    "Home.remove_device": "README 'Multi-user homes': inverse of "
                          "add_device",
    "Home.remove_user": "README 'Multi-user homes': a resident leaves",
    "Home.submit_command": "README 'Command spine' snippet",
    "HomeFleet.error_of": "README 'Fleet': a quarantined home's error",
    "HomeFleet.failed_homes": "README 'Fleet': quarantined homes",
    "HomeUser.move_to": "README 'Multi-user homes' snippet: follow-me",
    "MessageSystem.clear_faults": "README 'Command spine': lifts "
                                  "inject_faults",
    "MessageSystem.inject_faults": "README 'Command spine' snippet",
    "inject_socket_faults": "README 'Fault injection': socket errnos",
    "render_command_journal": "README 'Command spine' snippet",
    # test probes
    "Bitmap.get_pixel": "probe: 49 test call sites; pixels[y, x] gives "
                        "numpy scalars that wrap under arithmetic",
    "CommandSpine.inflight_count": "probe: 3 test call sites; sums the "
                                   "private lanes",
    "EncodeCache.stored_bytes": "probe: 1 test call site; private store",
    "FaultyTransport.queued_bytes": "probe: 1 test call site; delegates "
                                    "to the wrapped leg",
    "FrameAssembler.buffered_bytes": "probe: 7 test call sites; private "
                                     "buffer",
    "IOHandle.want_write": "probe: 5 test call sites; private event mask",
    "InteractionDevice.connected_proxies": "probe: 3 test call sites; "
                                           "private legs",
    "MessageSystem.is_registered": "probe: 2 test call sites; private "
                                   "handlers",
    "Reactor.failed_members": "probe: 1 test call site; private members",
    "Reactor.handle_count": "probe: 8 test call sites; private handles",
    "Rect.contains_rect": "probe: 15 test call sites; the containment "
                          "oracle of the clipping and damage tests",
    "UIWindow.press_key": "probe: 39 press_key test call sites, each "
                          "one call for a down and an up event",
    "UniIntClient.press_key": "probe: 39 press_key test call sites, each "
                              "one call for a down and an up event",
    "_StreamDecoder.buffered_bytes": "probe: 5 test call sites; private "
                                     "buffer",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _sources(scanned: tuple[str, ...]) -> list[Path]:
    files: list[Path] = []
    for top in scanned:
        files.extend(sorted((ROOT / top).rglob("*.py")))
    return [path for path in files if path != Path(__file__).resolve()]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree: ast.Module) -> list[tuple[str, str, ast.AST]]:
    """(qualified name, bare name, node) of every tracked definition."""
    defs: list[tuple[str, str, ast.AST]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((node.name, node.name, node))
        elif isinstance(node, ast.ClassDef):
            defs.append((node.name, node.name, node))
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((f"{node.name}.{item.name}", item.name,
                                 item))
    return [d for d in defs if not _is_dunder(d[1])]


def _is_all_assignment(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def _mentions(roots: list[ast.AST], reexports_only: bool) -> Counter:
    """How often each identifier occurs under ``roots``."""
    counts: Counter = Counter()
    for node in (node for root in roots for node in ast.walk(root)):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias) and not reexports_only:
            counts.update(node.name.split("."))
            if node.asname:
                counts[node.asname] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            counts.update(_IDENTIFIER.findall(node.value))
    return counts


def unreferenced(scanned: tuple[str, ...]) -> list[str]:
    """Qualified names under ``src/repro`` that the ``scanned`` trees
    mention nowhere outside the name's own definition."""
    mentions: Counter = Counter()
    own: list[tuple[str, str, int]] = []
    for path in _sources(scanned):
        tree = _parse(path)
        reexports_only = path.name == "__init__.py"
        mentions.update(_mentions(
            [stmt for stmt in tree.body if not _is_all_assignment(stmt)],
            reexports_only))
        if path.is_relative_to(PACKAGE):
            own.extend((qual, bare, _mentions([node], reexports_only)[bare])
                       for qual, bare, node in _definitions(tree))
    return sorted({qual for qual, bare, inside in own
                   if mentions[bare] == inside})


def _check(scanned: tuple[str, ...], allowed: dict[str, str],
           allowlist: str) -> None:
    for name, reason in allowed.items():
        assert reason.strip(), f"{allowlist}[{name!r}] needs a reason"
    dead = unreferenced(scanned)
    stale = sorted(set(allowed) - set(dead))
    assert not stale, f"reached now, so drop them from {allowlist}: {stale}"
    unexplained = [name for name in dead if name not in allowed]
    assert not unexplained, (
        f"defined under src/repro but referenced nowhere in "
        f"{', '.join(f'{top}/' for top in scanned)}: {unexplained} -- "
        f"delete them, or add each to {allowlist} with a one-line reason")


def test_every_definition_is_referenced():
    _check(EVERYWHERE, ALLOWED, "ALLOWED")


def test_every_definition_is_reached_outside_tests():
    _check(OUTSIDE_TESTS, ALLOWED_OUTSIDE_TESTS, "ALLOWED_OUTSIDE_TESTS")
