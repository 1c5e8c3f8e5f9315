"""Every public ``PermGroup`` and ``IndexedGroup`` method is used by the package itself.

A static check over ``src/nilcrit/``: each method or property that
``PermGroup`` or ``IndexedGroup`` defines without a leading underscore is
read as an attribute, ``x.name``, in some module of the package, so no
method lives on only for the tests, which keep their own predicates in
``tests/oracles.py``.  The check goes by name, so it catches a method whose
name nothing in the package reads at all.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import nilcrit

PACKAGE = Path(nilcrit.__file__).resolve().parent
# class -> the module that defines it
CLASSES = {"PermGroup": "group.py", "IndexedGroup": "indexed.py"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_methods(cls: str) -> set[str]:
    """The names of the methods and properties cls defines in its module, but for _-names."""
    for node in _parse(PACKAGE / CLASSES[cls]).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return {item.name for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
    raise AssertionError(f"{CLASSES[cls]} defines no {cls}")


def attributes_read() -> set[str]:
    """Every ``x.name`` attribute name in the package's modules."""
    return {node.attr for path in PACKAGE.glob("*.py")
            for node in ast.walk(_parse(path)) if isinstance(node, ast.Attribute)}


def test_the_public_methods_are_found():
    assert {"chain", "order", "memo"} <= public_methods("PermGroup")
    assert {"closure", "conj", "normalizing", "order_of"} <= public_methods("IndexedGroup")


@pytest.mark.parametrize("cls", sorted(CLASSES))
def test_every_public_method_is_read_by_the_package(cls):
    assert sorted(public_methods(cls) - attributes_read()) == []
