"""Permutation groups: membership, enumeration, closure and conjugacy machinery.

A :class:`PermGroup` is generators plus a lazily built stabilizer chain; the
chain answers order and membership questions with no cap.  Classes,
centralizers, normalizers and cosets are read off G's indexed view, so G is
first enumerated under an explicit cap.  Groups and element sets are
immutable once their caches are built, so sharing them is safe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .chain import StabilizerChain
from .errors import DegreeMismatch, NotNormal, OrderCapExceeded
from .perm import MAX_DEGREE, Permutation, pad, wrap_images

if TYPE_CHECKING:
    from .indexed import IndexedGroup

DEFAULT_ENUM_CAP = 200_000

_images = attrgetter("images")


@dataclass(frozen=True)
class ElementSet:
    """A canonically ordered, duplicate-free set of same-degree permutations."""

    degree: int
    elements: tuple[Permutation, ...]

    @classmethod
    def from_iterable(cls, degree: int, elems: Iterable[Permutation]) -> ElementSet:
        unique = sorted(set(elems), key=_images)
        for e in unique:
            if e.degree != degree:
                raise DegreeMismatch(f"element of degree {e.degree} in a degree-{degree} set")
        return cls(degree, tuple(unique))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        lo, hi = 0, len(self.elements)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.elements[mid] < p:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(self.elements) and self.elements[lo] == p

    def intersection(self, other: Iterable[Permutation]) -> ElementSet:
        mine = set(self.elements)
        return ElementSet.from_iterable(self.degree, (p for p in other if p in mine))


class PermGroup:
    """A finite permutation group given by generators.

    The identity group is represented by the identity generator.  Caches
    (chain, element list, derived structural data) are built lazily and never
    mutated afterwards.
    """

    def __init__(self, degree: int, generators: Iterable[Permutation], name: str | None = None):
        gens = tuple(generators)
        if not gens:
            gens = (Permutation.identity(degree),)
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatch(f"generator of degree {g.degree} in a degree-{degree} group")
        self.degree = degree
        self.generators = gens
        self.name = name
        self._chain: StabilizerChain | None = None
        self._elements: tuple[Permutation, ...] | None = None
        self._cache: dict = {}

    def __repr__(self) -> str:
        label = self.name or f"degree {self.degree}"
        return f"<PermGroup {label}, {len(self.generators)} generators>"

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, list(self.generators))
        return self._chain

    def order(self) -> int:
        if self._elements is not None:
            return len(self._elements)
        return self.chain().order()

    def contains(self, p: Permutation) -> bool:
        return p.degree == self.degree and self.chain().contains(p)

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def is_trivial(self) -> bool:
        return self.order() == 1

    def elements(self, cap: int = DEFAULT_ENUM_CAP) -> tuple[Permutation, ...]:
        """All elements in canonical (lexicographic image) order."""
        n = self.order()
        if n > cap:
            raise OrderCapExceeded(n, cap)
        if self._elements is None:
            self._elements = tuple(map(wrap_images, sorted(self.chain().elements())))
        return self._elements

    def element_set(self, cap: int = DEFAULT_ENUM_CAP) -> ElementSet:
        return ElementSet(self.degree, self.elements(cap))

    def random_element(self, rng: random.Random) -> Permutation:
        """Uniformly random element via independent transversal choices."""
        chain = self.chain()
        g = self.identity
        for level in range(len(chain.base) - 1, -1, -1):
            reps = list(chain.transversals[level].values())
            g = g * reps[rng.randrange(len(reps))]
        return g

    def is_subgroup_of(self, other: PermGroup) -> bool:
        return self.degree == other.degree and all(other.contains(g) for g in self.generators)

    def equals(self, other: PermGroup) -> bool:
        """Same underlying set of permutations (not object identity)."""
        return (self.degree == other.degree
                and self.order() == other.order()
                and self.is_subgroup_of(other))

    def conjugated(self, by: Permutation) -> PermGroup:
        return PermGroup(self.degree, tuple(g.conjugate(by) for g in self.generators))

    def memo(self, key, compute: Callable):
        """Cache structural results on the group; results must be immutable."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


def trivial_group(degree: int) -> PermGroup:
    return PermGroup(degree, ())


def subgroup_generated(degree: int, gens: Iterable[Permutation]) -> PermGroup:
    """Smallest subgroup containing the given elements; empty input gives the trivial group.

    The inputs are walked in order and one is kept only if the group
    generated by those kept so far does not contain it.  Each kept generator
    at least doubles the order, so the result H has at most Omega(|H|) <=
    log2|H| generators, Omega counting prime factors with multiplicity.
    """
    group = trivial_group(degree)
    kept: list[Permutation] = []
    for g in gens:
        if not group.contains(g):
            kept.append(g)
            group = PermGroup(degree, kept)
    return group


def group_from_elements(degree: int, elements: Iterable[Permutation]) -> PermGroup:
    """Build a group from its full (closed) element collection, with a reduced generating set."""
    elems = tuple(sorted(set(elements), key=_images))
    group = subgroup_generated(degree, elems)
    if group.order() != len(elems):
        raise ValueError(f"element collection of size {len(elems)} is not closed "
                         f"(generates order {group.order()})")
    group._elements = elems
    return group


def group_with_elements(degree: int, generators: Iterable[Permutation],
                        elements: Iterable[Permutation]) -> PermGroup:
    """The group the generators generate, given its elements in canonical order.

    The caller vouches for the elements; no chain is built until one is needed.
    """
    group = PermGroup(degree, generators)
    group._elements = tuple(elements)
    return group


def conjugacy_classes(G: PermGroup, cap: int = DEFAULT_ENUM_CAP) -> list[ElementSet]:
    """Conjugacy classes as element sets, sorted by their minimal member.

    The classes are those of the class-label array of G's indexed view, so
    G is enumerated under cap.
    """
    from .indexed import indexed_view

    def compute() -> tuple[ElementSet, ...]:
        iv = indexed_view(G, cap)
        # index order is canonical order, so each class comes out sorted
        return tuple(ElementSet(G.degree, tuple(iv.perms(c))) for c in iv.classes())

    return list(G.memo(("classes",), compute))


def normal_closure(G: PermGroup, seed: Iterable[Permutation]) -> PermGroup:
    """Smallest normal subgroup of G containing the seed elements.

    Starts from the subgroup the seed generates and runs a worklist over its
    generators, adding a conjugate n^g (g a generator of G) only when the
    group does not yet contain it.  Like subgroup_generated, the result N has
    at most Omega(|N|) <= log2|N| generators.
    """
    group = subgroup_generated(G.degree, seed)
    work = list(group.generators)
    while work:
        n = work.pop()
        for g in G.generators:
            c = n.conjugate(g)
            if not group.contains(c):
                group = PermGroup(G.degree, group.generators + (c,))
                work.append(c)
    return group


def centralizer(G: PermGroup, a: Permutation, cap: int = DEFAULT_ENUM_CAP) -> PermGroup:
    """C_G(a) for a in G: the g with a^g = a, read off a's conjugates on G's indexed view."""
    from .indexed import indexed_view

    if a.degree != G.degree:
        raise DegreeMismatch("element degree differs from group degree")
    iv = indexed_view(G, cap)
    r = iv.index.get(a.images)
    if r is None:
        raise NotNormal("element is not in the group")
    conj = iv.conjugates(r)
    return iv.subgroup(g for g in range(iv.size) if conj[g] == r)


def normalizer(G: PermGroup, H: PermGroup, cap: int = DEFAULT_ENUM_CAP) -> PermGroup:
    """N_G(H) for H <= G: the g with h^g in H for every generator h, on G's indexed view."""
    from .indexed import indexed_view

    if H.degree != G.degree:
        raise DegreeMismatch("subgroup degree differs from group degree")
    iv = indexed_view(G, cap)
    return iv.subgroup(iv.normalizing([H], cap=cap))


def is_normal(G: PermGroup, N: PermGroup) -> bool:
    if not N.is_subgroup_of(G):
        return False
    return all(N.contains(n.conjugate(g)) for n in N.generators for g in G.generators)


@dataclass
class CosetMap:
    """The action of a group on the right cosets of a normal subgroup.

    Cosets are numbered in order of their minimal elements: ``labels[i]`` is
    the coset number of element i of the indexed view of the source, and
    ``reps[c]`` the (lexicographically minimal) element of coset c.  Calling
    the map sends a group element to the permutation it induces on coset
    numbers.
    """

    source: PermGroup
    kernel: PermGroup
    view: IndexedGroup = field(repr=False)
    labels: list[int] = field(repr=False)
    reps: tuple[Permutation, ...]

    def __call__(self, g: Permutation) -> Permutation:
        if g.degree != self.source.degree:
            raise DegreeMismatch("element degree differs from group degree")
        index, labels, table = self.view.index, self.labels, pad(g)
        return Permutation(tuple(labels[index[r.images.translate(table)]] for r in self.reps))


def quotient(G: PermGroup, N: PermGroup,
             cap: int = DEFAULT_ENUM_CAP) -> tuple[PermGroup, CosetMap]:
    """Faithful action of G/N on the right cosets of N.

    N must be normal in G; the index must stay within MAX_DEGREE since it
    becomes the degree of the quotient group.  Cosets are labelled on the
    indexed view of G, so G itself is enumerated under cap.
    """
    from .indexed import indexed_view

    if not N.is_subgroup_of(G):
        raise NotNormal("N is not a subgroup of G")
    if not is_normal(G, N):
        raise NotNormal("N is not normal in G")
    index = G.order() // N.order()
    if index > MAX_DEGREE:
        raise OrderCapExceeded(index, MAX_DEGREE, what="coset space")
    iv = indexed_view(G, cap)
    labels, reps = iv.coset_labels(N)
    if len(reps) != index:
        raise RuntimeError(f"coset labelling found {len(reps)} cosets, expected {index}")

    cmap = CosetMap(G, N, iv, labels, tuple(iv.perms(reps)))
    Q = PermGroup(index, tuple(cmap(g) for g in G.generators),
                  name=f"{G.name}/{N.name}" if G.name and N.name else None)
    if Q.order() * N.order() != G.order():
        raise RuntimeError("quotient order mismatch: kernel of the coset action is not N")
    return Q, cmap
