"""Every error type the package declares is raised somewhere and exported.

A static check over ``src/nilcrit/``: each ``NilcritError`` subclass in
``errors.py`` appears in a ``raise`` statement of some module and is
imported by the package's ``__init__.py``, so no error type outlives the
last code that raises it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import nilcrit

PACKAGE = Path(nilcrit.__file__).resolve().parent


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def declared_errors() -> set[str]:
    """The classes of errors.py that derive, directly or not, from NilcritError."""
    found = {"NilcritError"}
    for node in _parse(PACKAGE / "errors.py").body:  # a base is declared before its subclasses
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in found for base in node.bases):
            found.add(node.name)
    return found - {"NilcritError"}


def raised_names() -> set[str]:
    """Names raised anywhere in the package, as ``raise X`` or ``raise X(...)``."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def exported_names() -> set[str]:
    """Names ``__init__.py`` imports from the package's modules."""
    return {alias.asname or alias.name
            for node in _parse(PACKAGE / "__init__.py").body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_the_declared_errors_are_found():
    assert {"NotSoluble", "ParseError", "PermutabilityViolated"} <= declared_errors()


def test_every_error_type_is_raised():
    assert sorted(declared_errors() - raised_names()) == []


def test_every_error_type_is_exported():
    assert sorted(declared_errors() - exported_names()) == []
