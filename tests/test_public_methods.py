"""Every public ``PermGroup`` method is used by the package itself.

A static check over ``src/nilcrit/``: each method or property that
``PermGroup`` defines without a leading underscore is read as an attribute,
``x.name``, in some module of the package, so no method lives on only for
the tests, which keep their own predicates in ``tests/oracles.py``.  The
check goes by name: an attribute of the same name on another class counts
too (``StabilizerChain.contains`` for ``PermGroup.contains``), so it catches
a method whose name nothing in the package reads at all.
"""

from __future__ import annotations

import ast
from pathlib import Path

import nilcrit

PACKAGE = Path(nilcrit.__file__).resolve().parent


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_methods() -> set[str]:
    """The names of the methods and properties ``PermGroup`` defines in group.py, but for _-names."""
    for node in _parse(PACKAGE / "group.py").body:
        if isinstance(node, ast.ClassDef) and node.name == "PermGroup":
            return {item.name for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
    raise AssertionError("group.py defines no PermGroup")


def attributes_read() -> set[str]:
    """Every ``x.name`` attribute name in the package's modules."""
    return {node.attr for path in PACKAGE.glob("*.py")
            for node in ast.walk(_parse(path)) if isinstance(node, ast.Attribute)}


def test_the_public_methods_are_found():
    assert {"chain", "order", "memo"} <= public_methods()


def test_every_public_method_is_read_by_the_package():
    assert sorted(public_methods() - attributes_read()) == []
