"""Exception types shared across the package."""

from __future__ import annotations


class NilcritError(Exception):
    """Base class for all package-specific errors."""


class InvalidPermutation(NilcritError):
    """Image array is not a bijection of the stated point set, or has more than 256 points."""


class DegreeMismatch(NilcritError):
    """Operands act on point sets of different sizes."""


class OrderCapExceeded(NilcritError):
    """A computation requiring enumeration hit its element cap."""

    def __init__(self, order: int, cap: int, what: str = "group"):
        super().__init__(f"{what} order {order} exceeds cap {cap}")
        self.order = order
        self.cap = cap


class NotNormal(NilcritError):
    """Subgroup argument is not normal in (or not contained in) the ambient group."""


class NotPrimeDivisor(NilcritError):
    """p is not a prime dividing the group order."""


class NotSoluble(NilcritError):
    """Operation requires a soluble group."""


class NotMetanilpotent(NilcritError):
    """Operation requires a metanilpotent group."""


class PermutabilityViolated(NilcritError):
    """Internal invariant failure: an intersected Sylow family stopped being a basis."""


class NotPElementSet(NilcritError):
    """Element set contains an element whose order is not a power of p."""


class HypothesisNotSatisfied(NilcritError):
    """A conditional check received inputs that fail its standing hypothesis."""


class ParseError(NilcritError):
    """Malformed group descriptor text."""

    def __init__(self, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line


class OrderMismatch(NilcritError):
    """Computed group order differs from the descriptor's expected order."""


class TagMismatch(NilcritError):
    """A descriptor's structural tag failed re-verification at load."""
