"""Builtin group corpus and the descriptor file format.

Descriptors are line-oriented text:

    # comment
    id: S4_copy            (optional)
    degree: 4
    order: 24              (optional; verified at load)
    tags: soluble          (optional; comma separated, verified at load)
    gen: [2, 1, 3, 4]      (1-based image array)
    gen: (1 2 3 4)         (cycle notation, accepted as input sugar)

Image arrays are the canonical form; serialization always writes them.
Builtins cover cyclic, dihedral and symmetric-type groups plus assorted
soluble and insoluble groups of order up to 360, spanning Fitting heights
1-3 and derived lengths 1-3, with the larger matrix-type members realized as
regular permutation representations.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .errors import OrderMismatch, ParseError, TagMismatch
from .group import PermGroup
from .perm import MAX_DEGREE, Permutation
from .structure import is_nilpotent, is_soluble

KNOWN_TAGS = ("nilpotent", "soluble", "insoluble")


class GroupDescriptor(NamedTuple):
    """Portable description of a permutation group: degree plus 1-based image arrays."""

    id: str
    degree: int
    generators: tuple[tuple[int, ...], ...]
    expected_order: int | None = None
    tags: tuple[str, ...] = ()
    source: str = "builtin"

    def build(self) -> PermGroup:
        gens = tuple(Permutation.from_one_based(images) for images in self.generators)
        return PermGroup(self.degree, gens, name=self.id)

    def canonical_text(self) -> str:
        lines = [f"id: {self.id}", f"degree: {self.degree}"]
        if self.expected_order is not None:
            lines.append(f"order: {self.expected_order}")
        if self.tags:
            lines.append(f"tags: {', '.join(self.tags)}")
        for images in self.generators:
            lines.append(f"gen: [{', '.join(map(str, images))}]")
        return "\n".join(lines) + "\n"


# builders for builtins

def _cycle(degree: int, *cycles: list[int]) -> tuple[int, ...]:
    return tuple(Permutation.from_cycles(degree, cycles).one_based())


def _descriptor(name: str, degree: int, gens: list[tuple[int, ...]], order: int,
                tags: tuple[str, ...]) -> GroupDescriptor:
    return GroupDescriptor(name, degree, tuple(gens), order, tags)


def _cyclic(n: int) -> GroupDescriptor:
    return _descriptor(f"C{n}", n, [_cycle(n, list(range(1, n + 1)))], n,
                       ("nilpotent", "soluble"))

def _dihedral(n: int) -> GroupDescriptor:
    """Dihedral group of order 2n acting on n points."""
    rot = _cycle(n, list(range(1, n + 1)))
    flip = tuple(reversed(range(1, n + 1)))
    tags = ("nilpotent", "soluble") if (n & (n - 1)) == 0 else ("soluble",)
    return _descriptor(f"D{2 * n}", n, [rot, flip], 2 * n, tags)


def _symmetric(n: int, order: int) -> GroupDescriptor:
    return _descriptor(f"S{n}", n,
                       [_cycle(n, [1, 2]), _cycle(n, list(range(1, n + 1)))],
                       order, ("soluble",) if n <= 4 else ("insoluble",))


def _alternating(n: int, order: int) -> GroupDescriptor:
    if n % 2 == 1:
        second = _cycle(n, list(range(1, n + 1)))
    else:
        second = _cycle(n, list(range(2, n + 1)))
    tags = ("soluble",) if n <= 4 else ("insoluble",)
    return _descriptor(f"A{n}", n, [_cycle(n, [1, 2, 3]), second], order, tags)


def _regular_from_table(name: str, elems: list, mul, order: int,
                        gen_elems: list, tags: tuple[str, ...]) -> GroupDescriptor:
    """Right-regular representation of an abstract group given by a multiplication rule."""
    index = {e: i for i, e in enumerate(elems)}
    gens = []
    for g in gen_elems:
        images = tuple(index[mul(e, g)] + 1 for e in elems)
        gens.append(images)
    return _descriptor(name, len(elems), gens, order, tags)


def _quaternion8() -> GroupDescriptor:
    # units {1,-1,i,-i,j,-j,k,-k} as pairs (axis, sign) with axis 0 for 1
    elems = [(0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1)]
    table = {(1, 2): (3, 1), (2, 1): (3, -1), (2, 3): (1, 1), (3, 2): (1, -1),
             (3, 1): (2, 1), (1, 3): (2, -1)}

    def mul(a, b):
        (ax, sa), (bx, sb) = a, b
        if ax == 0:
            return (bx, sa * sb)
        if bx == 0:
            return (ax, sa * sb)
        if ax == bx:
            return (0, -sa * sb)
        cx, cs = table[(ax, bx)]
        return (cx, cs * sa * sb)

    return _regular_from_table("Q8", elems, mul, 8, [(1, 1), (2, 1)],
                               ("nilpotent", "soluble"))


def _heisenberg27() -> GroupDescriptor:
    """Extraspecial group of order 27 and exponent 3, regular representation."""
    elems = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]

    def mul(u, v):
        a, b, c = u
        d, e, f = v
        return ((a + d) % 3, (b + e) % 3, (c + f + a * e) % 3)

    return _regular_from_table("E27", elems, mul, 27, [(1, 0, 0), (0, 1, 0)],
                               ("nilpotent", "soluble"))


def _matrix_group_regular(name: str, q: int, gens: list, order: int,
                          tags: tuple[str, ...]) -> GroupDescriptor:
    """Regular representation of a subgroup of SL(2, q) generated by 2x2 matrices."""

    def mul(m, n):
        (a, b), (c, d) = m
        (e, f), (g, h) = n
        return (((a * e + b * g) % q, (a * f + b * h) % q),
                ((c * e + d * g) % q, (c * f + d * h) % q))

    identity = ((1, 0), (0, 1))
    elems = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                x = mul(m, g)
                if x not in elems:
                    elems.add(x)
                    new.append(x)
        frontier = new
    ordered = sorted(elems)
    return _regular_from_table(name, ordered, mul, order, gens, tags)


def _psl27() -> GroupDescriptor:
    """PSL(2,7) on the 8 points of the projective line over F_7."""
    shift = _cycle(8, list(range(2, 9)))           # x -> x + 1, fixing infinity
    inv = _cycle(8, [1, 2], [3, 8], [4, 5], [6, 7])  # x -> -1/x swapped with infinity
    return _descriptor("PSL2_7", 8, [shift, inv], 168, ("insoluble",))


def _builtin_descriptors() -> dict[str, GroupDescriptor]:
    out: list[GroupDescriptor] = []
    out.append(_descriptor("trivial", 1, [(1,)], 1, ("nilpotent", "soluble")))
    for n in range(2, 13):
        out.append(_cyclic(n))
    for n in range(3, 13):
        out.append(_dihedral(n))
    out.append(_descriptor("V4", 4, [_cycle(4, [1, 2], [3, 4]), _cycle(4, [1, 3], [2, 4])],
                           4, ("nilpotent", "soluble")))
    out.append(_quaternion8())
    out.append(_symmetric(3, 6))
    out.append(_symmetric(4, 24))
    out.append(_symmetric(5, 120))
    out.append(_alternating(4, 12))
    out.append(_alternating(5, 60))
    out.append(_alternating(6, 360))
    out.append(_descriptor("F20", 5, [_cycle(5, [1, 2, 3, 4, 5]), _cycle(5, [2, 3, 5, 4])],
                           20, ("soluble",)))
    out.append(_descriptor("C3:C4", 7, [_cycle(7, [1, 2, 3]), _cycle(7, [2, 3], [4, 5, 6, 7])],
                           12, ("soluble",)))
    out.append(_descriptor("C7:C3", 7, [_cycle(7, [1, 2, 3, 4, 5, 6, 7]),
                                        _cycle(7, [2, 3, 5], [4, 7, 6])],
                           21, ("soluble",)))
    out.append(_descriptor("S3xS3", 6, [_cycle(6, [1, 2]), _cycle(6, [1, 2, 3]),
                                        _cycle(6, [4, 5]), _cycle(6, [4, 5, 6])],
                           36, ("soluble",)))
    out.append(_descriptor("C3wrC2", 6, [_cycle(6, [1, 2, 3]), _cycle(6, [4, 5, 6]),
                                         _cycle(6, [1, 4], [2, 5], [3, 6])],
                           18, ("soluble",)))
    out.append(_descriptor("S4xC3", 7, [_cycle(7, [1, 2]), _cycle(7, [1, 2, 3, 4]),
                                        _cycle(7, [5, 6, 7])],
                           72, ("soluble",)))
    out.append(_heisenberg27())
    out.append(_matrix_group_regular("SL2_3", 3, [((1, 1), (0, 1)), ((0, 1), (2, 0))],
                                     24, ("soluble",)))
    out.append(_matrix_group_regular("SL2_5", 5, [((1, 1), (0, 1)), ((0, 1), (4, 0))],
                                     120, ("insoluble",)))
    out.append(_psl27())
    return {d.id: d for d in out}


BUILTINS: dict[str, GroupDescriptor] = _builtin_descriptors()


def builtin_names() -> list[str]:
    return sorted(BUILTINS)


def filter_names(tag: str | None) -> list[str]:
    if tag is None or tag == "all":
        return builtin_names()
    if tag not in KNOWN_TAGS:
        raise ValueError(f"unknown tag {tag!r}; expected one of {KNOWN_TAGS} or 'all'")
    return [n for n in builtin_names() if tag in BUILTINS[n].tags]


def verify_descriptor(desc: GroupDescriptor, G: PermGroup) -> None:
    """Re-verify the descriptor's order and structural tags against the group."""
    if desc.expected_order is not None and G.order() != desc.expected_order:
        raise OrderMismatch(
            f"{desc.id}: descriptor promises order {desc.expected_order}, got {G.order()}")
    for tag in desc.tags:
        if tag == "nilpotent" and not is_nilpotent(G):
            raise TagMismatch(f"{desc.id}: tagged nilpotent but is not")
        if tag == "soluble" and not is_soluble(G):
            raise TagMismatch(f"{desc.id}: tagged soluble but is not")
        if tag == "insoluble" and is_soluble(G):
            raise TagMismatch(f"{desc.id}: tagged insoluble but is soluble")


def parse_descriptor(text: str, source: str = "file") -> GroupDescriptor:
    degree: int | None = None
    gen_specs: list[tuple[int, str]] = []
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value', got {line!r}", lineno)
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "gen":
            gen_specs.append((lineno, value))
        elif key in ("id", "degree", "order", "tags"):
            if key in fields:
                raise ParseError(f"duplicate field {key!r}", lineno)
            fields[key] = value
        else:
            raise ParseError(f"unknown field {key!r}", lineno)

    if "degree" not in fields:
        raise ParseError("missing required field 'degree'")
    try:
        degree = int(fields["degree"])
    except ValueError:
        raise ParseError(f"degree must be an integer, got {fields['degree']!r}")
    if degree < 1:
        raise ParseError("degree must be at least 1")
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the limit of {MAX_DEGREE} points")
    if not gen_specs:
        raise ParseError("descriptor has no 'gen:' lines")

    generators = []
    for lineno, spec in gen_specs:
        if spec.startswith("["):
            try:
                images = json.loads(spec)
            except json.JSONDecodeError:
                raise ParseError(f"bad image array {spec!r}", lineno)
            if (not isinstance(images, list) or len(images) != degree
                    or not all(isinstance(x, int) for x in images)):
                raise ParseError(f"image array must list {degree} integers", lineno)
            p = Permutation.from_one_based(images)
        else:
            p = Permutation.parse_cycles(spec, degree)
        generators.append(tuple(p.one_based()))

    expected = None
    if "order" in fields:
        try:
            expected = int(fields["order"])
        except ValueError:
            raise ParseError(f"order must be an integer, got {fields['order']!r}")
    tags = ()
    if "tags" in fields:
        tags = tuple(t.strip() for t in fields["tags"].split(",") if t.strip())
        for t in tags:
            if t not in KNOWN_TAGS:
                raise ParseError(f"unknown tag {t!r}; expected one of {KNOWN_TAGS}")
    name = fields.get("id") or "unnamed"
    return GroupDescriptor(name, degree, tuple(generators), expected, tags, source)


def load_group(name_or_path: str) -> PermGroup:
    """Load a builtin by id, or parse a descriptor file by path; its order and tags are verified."""
    if name_or_path in BUILTINS:
        desc = BUILTINS[name_or_path]
    else:
        path = Path(name_or_path)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ParseError(f"{name_or_path!r} is neither a builtin id nor a file; "
                             f"builtins: {', '.join(builtin_names())}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read descriptor {name_or_path!r}: {exc}") from exc
        desc = parse_descriptor(text, source=str(path))
    G = desc.build()
    verify_descriptor(desc, G)
    return G


def corpus_hash(names: list[str]) -> str:
    """Stable digest of the selected descriptors, for report provenance."""
    import hashlib  # loads OpenSSL; only the reports' provenance needs it

    payload = "\n".join(BUILTINS[n].canonical_text() if n in BUILTINS else n
                        for n in sorted(names))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
