"""Permutation arithmetic on the points 1..n.

Products are read left to right: ``(a * b)`` means "apply ``a`` first, then
``b``", so ``x^(a*b) = b(a(x))``.  Conjugation is ``y^x = x^-1 * y * x`` and
the commutator is ``[a, b] = a^-1 * b^-1 * a * b``, which makes the identity
``y^x = y * [y, x]`` hold verbatim.  Points are 1-based in all I/O.

Internally a permutation of degree n is the ``bytes`` object of its 0-based
images, so the degree is at most ``MAX_DEGREE`` = 256 and larger degrees are
refused at construction.  The hot operations are single C calls on bytes:

* ``a * b`` is ``a.images.translate(b's pad)``, the pad being b's images
  followed by the identity on n..255, a 256-byte translation table built the
  first time b is a right operand and kept on b;
* ``inverse`` is ``bytes.maketrans(images, identity)``, whose first n bytes
  are the inverse's images and whose whole table is the inverse's pad;
* ``is_identity`` is a prefix test against the identity on 0..255;
* ``order`` counts cycle lengths on the bytes (``image_order``).

Hot loops elsewhere (the indexed view, element enumeration, chain sifts)
work on the bytes directly: ``pad`` gives any permutation's translation
table, ``pad_tables`` the tables of many image strings at once, and
``wrap_images`` wraps bytes known to be a bijection.

Indexing bytes yields ints and bytes compare lexicographically like int
tuples, so element order is the order of image lists; bytes also cache their
hash.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Sequence

from .errors import DegreeMismatch, InvalidPermutation

_CYCLE_RE = re.compile(r"\(([^()]*)\)")

MAX_DEGREE = 256
_IDENTITY = bytes(range(MAX_DEGREE))


class Permutation:
    """An element of the symmetric group on {1..n}, n <= 256, stored as the bytes of its 0-based images.

    ``_pad`` is None until the permutation is first the right operand of a
    product; from then on it holds the 256-byte translation table.
    """

    __slots__ = ("images", "_pad")

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        n = len(imgs)
        _check_degree(n)
        if not all(type(x) is int and 0 <= x < n for x in imgs) or len(set(imgs)) != n:
            raise InvalidPermutation(f"images {imgs!r} are not a bijection of 0..{n - 1}")
        self.images = bytes(imgs)
        self._pad = None

    # construction helpers

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        _check_degree(degree)
        return wrap_images(_IDENTITY[:degree])

    @classmethod
    def from_one_based(cls, images: Sequence[int]) -> Permutation:
        """Build from a 1-based image array, the external descriptor form."""
        _check_degree(len(images))
        try:
            return cls(x - 1 for x in images)
        except InvalidPermutation:
            raise InvalidPermutation(f"images {list(images)!r} are not a bijection of 1..{len(images)}")

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> Permutation:
        """Build from disjoint cycles of 1-based points."""
        imgs = list(range(degree))
        touched = set()
        for cycle in cycles:
            for p in cycle:
                if not 1 <= p <= degree:
                    raise InvalidPermutation(f"point {p} outside 1..{degree}")
                if p in touched:
                    raise InvalidPermutation(f"point {p} appears in two cycles")
                touched.add(p)
            for i, p in enumerate(cycle):
                imgs[p - 1] = cycle[(i + 1) % len(cycle)] - 1
        return cls(imgs)

    @classmethod
    def parse_cycles(cls, text: str, degree: int) -> Permutation:
        """Parse cycle notation like ``(1 2 3)(4 5)``; commas and spaces both separate points."""
        stripped = text.strip()
        if stripped in ("()", "e", "id"):
            return cls.identity(degree)
        cycles = []
        consumed = _CYCLE_RE.sub("", stripped).strip()
        if consumed:
            raise InvalidPermutation(f"unparsable cycle text {text!r}")
        for m in _CYCLE_RE.finditer(stripped):
            body = m.group(1).replace(",", " ").split()
            if body:
                cycles.append([int(tok) for tok in body])
        return cls.from_cycles(degree, cycles)

    # basic protocol

    @property
    def degree(self) -> int:
        return len(self.images)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: Permutation) -> bool:
        return self.images < other.images

    def __le__(self, other: Permutation) -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation.parse_cycles({self.cycle_string()!r}, {self.degree})"

    def __str__(self) -> str:
        return self.cycle_string()

    def __call__(self, point: int) -> int:
        """Apply to a 1-based point."""
        return self.images[point - 1] + 1

    # group arithmetic

    def __mul__(self, other: Permutation) -> Permutation:
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self.images) != len(other.images):
            raise DegreeMismatch(f"degrees {self.degree} and {other.degree} differ")
        out = _new(Permutation)
        out.images = self.images.translate(pad(other))
        out._pad = None
        return out

    def inverse(self) -> Permutation:
        table = inverse_table(self.images)
        return wrap_images(table[:len(self.images)], table)

    def __pow__(self, n: int) -> Permutation:
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self, by: Permutation) -> Permutation:
        """Return self^by = by^-1 * self * by."""
        return by.inverse() * self * by

    def is_identity(self) -> bool:
        return _IDENTITY.startswith(self.images)

    # cycle structure

    def cycles(self, with_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles as 1-based point tuples, each starting at its minimum."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cur, cycle = start, []
            while not seen[cur]:
                seen[cur] = True
                cycle.append(cur + 1)
                cur = self.images[cur]
            if len(cycle) > 1 or with_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def order(self) -> int:
        return image_order(self.images)

    def one_based(self) -> list[int]:
        return [x + 1 for x in self.images]


_new = object.__new__


def wrap_images(images: bytes, table: bytes | None = None) -> Permutation:
    """A Permutation around images already known to be a bijection (and its pad, if known)."""
    out = _new(Permutation)
    out.images = images
    out._pad = table
    return out


def pad(p: Permutation) -> bytes:
    """p's 256-byte translation table: its images, then the identity on n..255.

    ``images.translate(pad(p))`` is the images of the product with p on the
    right.  Built the first time it is asked for and kept on p.
    """
    table = p._pad
    if table is None:
        table = p._pad = p.images + _IDENTITY[len(p.images):]
    return table


def pad_tables(images: Iterable[bytes], degree: int) -> list[bytes]:
    """The pads of the permutations of this degree with these images, each as ``pad`` builds it."""
    tail = _IDENTITY[degree:]
    return [b + tail for b in images]


def inverse_table(images: bytes) -> bytes:
    """The pad of the inverse of a permutation given by its images.

    It maps images[i] to i and fixes n..255, so its first n bytes are the
    inverse's images and translating by it multiplies by the inverse.
    """
    return bytes.maketrans(images, _IDENTITY[:len(images)])


def image_order(images: bytes) -> int:
    """The order of the permutation with these images: the lcm of its cycle lengths."""
    seen = bytearray(len(images))
    lengths = set()
    for start, x in enumerate(images):
        if seen[start] or x == start:
            continue
        length = 1
        while x != start:  # start itself is never looked at again
            seen[x] = 1
            x = images[x]
            length += 1
        lengths.add(length)
    return math.lcm(*lengths)


def _check_degree(n: int) -> None:
    if n < 1:
        raise InvalidPermutation("degree must be at least 1")
    if n > MAX_DEGREE:
        raise InvalidPermutation(f"degree {n} exceeds the limit of {MAX_DEGREE} points")


def commutator(a: Permutation, b: Permutation) -> Permutation:
    """[a, b] = a^-1 b^-1 a b."""
    return a.inverse() * b.inverse() * a * b
