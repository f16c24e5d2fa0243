"""Reachability guard: every name ``src/repro`` defines is used somewhere.

The guard lists every module-level function and class, and every method
of a module-level class, under ``src/repro`` (dunders excepted).  A name
counts as used when it occurs anywhere in the ``.py`` files under
``src/``, ``tests/``, ``benchmarks/`` or ``examples/``:

* as a ``Name`` (a call, a base class, an annotation, a decorator),
* as an ``Attribute`` (``obj.name``),
* as an import alias (``from m import name``, ``import m as name``),
* as an identifier inside a string constant, docstrings included — the
  end-to-end tracer names the callables it wraps in strings such as
  ``"repro.windows.server:DisplayServer.composite"``.

A package ``__init__.py`` only re-exports, so its imports and
``__all__`` do not count: an export alone does not keep a name alive.
This file is not scanned either, since its own code names AST node types.

The check matches by *name*, not by binding.  It cannot see a dead
definition whose word occurs anywhere else: a method named ``swipe``
counts as used wherever a gesture string such as ``"swipe-right"``
appears, and a ``drag`` method or a ``primed`` property counts as used
once any docstring says "drag" or "primed".  So it is a floor under dead
code, not a proof of liveness.

Only stdlib :mod:`ast` is used.  To keep a name nothing references, add it
to :data:`ALLOWED` with a one-line reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
SCANNED = ("src", "tests", "benchmarks", "examples")

#: Unreferenced names that stay on purpose: ``"Owner.name": "reason"``.
ALLOWED: dict[str, str] = {}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _sources() -> list[Path]:
    files: list[Path] = []
    for top in SCANNED:
        files.extend(sorted((ROOT / top).rglob("*.py")))
    return [path for path in files if path != Path(__file__).resolve()]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, bare name) of every definition the guard tracks."""
    defs: list[tuple[str, str]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            defs.append((node.name, node.name))
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((f"{node.name}.{item.name}", item.name))
    return [(qual, bare) for qual, bare in defs if not _is_dunder(bare)]


def _is_all_assignment(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def _uses(tree: ast.Module, reexports_only: bool) -> set[str]:
    """Every identifier ``tree`` mentions outside a definition's own name."""
    used: set[str] = set()
    nodes = (node for stmt in tree.body if not _is_all_assignment(stmt)
             for node in ast.walk(stmt))
    for node in nodes:
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias) and not reexports_only:
            used.update(node.name.split("."))
            if node.asname:
                used.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(_IDENTIFIER.findall(node.value))
    return used


def unreferenced() -> list[str]:
    """Qualified names under ``src/repro`` that nothing else mentions."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for path in _sources():
        tree = _parse(path)
        if path.is_relative_to(PACKAGE):
            defined.extend(_definitions(tree))
        used |= _uses(tree, reexports_only=path.name == "__init__.py")
    return sorted({qual for qual, bare in defined if bare not in used})


def test_every_definition_is_referenced():
    for name, reason in ALLOWED.items():
        assert reason.strip(), f"ALLOWED[{name!r}] needs a one-line reason"
    dead = unreferenced()
    stale = sorted(set(ALLOWED) - set(dead))
    assert not stale, f"referenced now, so drop them from ALLOWED: {stale}"
    unexplained = [name for name in dead if name not in ALLOWED]
    assert not unexplained, (
        "defined under src/repro but referenced nowhere in src/, tests/, "
        f"benchmarks/ or examples/: {unexplained} -- delete them, or add "
        "each to ALLOWED with a one-line reason")
