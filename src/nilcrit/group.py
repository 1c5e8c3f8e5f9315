"""Permutation groups: closure and conjugacy machinery.

A :class:`PermGroup` is generators plus a lazily built stabilizer chain; the
chain answers order and membership questions with no cap.  A group of
known order (``group_of_order``, as an indexed view wraps the subgroups it
closes) builds no chain until its chain is asked for.  Elements are
enumerated only by a group's indexed view, which checks the cap.  A
closure (``subgroup_generated``, ``normal_closure``) grows one chain over
its candidates and hands it to the group it returns; a normal closure that
fills a known subgroup bounding it returns that subgroup itself.  Groups
are immutable once their caches are built, so sharing them is safe.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .chain import StabilizerChain
from .errors import DegreeMismatch
from .perm import Permutation, inverse_table, pad, wrap_images

# the largest group order an indexed view enumerates unless given a cap
DEFAULT_ENUM_CAP = 200_000


class PermGroup:
    """A finite permutation group given by generators.

    The identity group is represented by the identity generator.  Caches
    (chain, order, derived structural data) are built lazily and never
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
        self._order: int | None = None
        self._cache: dict = {}

    def __repr__(self) -> str:
        label = self.name or f"degree {self.degree}"
        return f"<PermGroup {label}, {len(self.generators)} generators>"

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, list(self.generators))
        return self._chain

    def order(self) -> int:
        if self._order is None:
            self._order = self.chain().order()
        return self._order

    def is_trivial(self) -> bool:
        return self.order() == 1

    def memo(self, key, compute: Callable):
        """Cache a result that is immutable or only grows; a compute that raises stores nothing."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


def trivial_group(degree: int) -> PermGroup:
    return PermGroup(degree, ())


def subgroup_generated(degree: int, gens: Iterable[Permutation]) -> PermGroup:
    """Smallest subgroup containing the given elements; empty input gives the trivial group.

    One stabilizer chain is grown over the inputs, in order: ``add`` sifts
    each one and extends the chain only when the group so far does not
    contain it, and those inputs are kept as generators.  Each kept generator
    at least doubles the order, so the result H has at most Omega(|H|) <=
    log2|H| generators, Omega counting prime factors with multiplicity.  H
    keeps the chain, so it builds no other.
    """
    chain = StabilizerChain(degree)
    return _group_on_chain(chain, [g for g in gens if chain.add(g)])


def _group_on_chain(chain: StabilizerChain, generators: list[Permutation]) -> PermGroup:
    """The group the generators generate, given a complete chain of it built from them."""
    group = PermGroup(chain.degree, generators)
    group._chain = chain
    return group


def group_of_order(degree: int, generators: Iterable[Permutation], order: int) -> PermGroup:
    """The group the generators generate, given its order.

    The caller vouches for the order; no chain is built until one is needed.
    """
    group = PermGroup(degree, generators)
    group._order = order
    return group


def normal_closure(G: PermGroup, seed: Iterable[Permutation],
                   within: PermGroup | None = None) -> PermGroup:
    """Smallest normal subgroup of G containing the seed elements.

    One stabilizer chain is grown as in subgroup_generated: first over the
    seed, then over a worklist of the generators kept, adding each conjugate
    n^g (g a generator of G) and keeping it only when ``add`` extends the
    chain.  Each candidate is formed on image bytes, with each generator's
    inverse formed once per closure.  Like subgroup_generated, the result N
    has at most Omega(|N|) <= log2|N| generators, and N keeps the one chain
    built.

    ``within``, when given, is a subgroup known to contain N, such as the
    series term the seeds are commutators of.  The chain's group lies in N,
    so once its order reaches |within| it is all of within, and within
    itself is returned at once: N is then built no second time.
    """
    chain = StabilizerChain(G.degree)
    full = None if within is None else within.order()
    kept = []
    for n in seed:
        if chain.add(n):
            if chain.order() == full:
                return within
            kept.append(n)
    # n^g = g^-1 * n * g on image bytes: g^-1's images translated by the pads of n and g
    conjugators = [(inverse_table(g.images)[:G.degree], pad(g)) for g in G.generators]
    work = list(kept)
    while work:
        table = pad(work.pop())
        for inverse, right in conjugators:
            c = wrap_images(inverse.translate(table).translate(right))
            if chain.add(c):
                if chain.order() == full:
                    return within
                kept.append(c)
                work.append(c)
    # a trivial within is reached with no chain growth
    return within if chain.order() == full else _group_on_chain(chain, kept)
