"""Test oracles: quotients, verbal subgroups, the tuple brute force and literal word evaluation.

No check in nilcrit builds a quotient group: the coset lemmas read G/N off
coset labels on G's indexed view.  The quotient here is built apart from
that labelling, from plain Permutation products: the right coset of g is
{n * g for n in N}, and cosets are numbered in order of their minimal
elements, so a coset's number agrees with the library's labelling without
sharing its code.  The tuple brute force evaluates the derived word on
every argument tuple through a commutator table of single ``comm`` lookups,
so it shares neither the word levels' class walk nor the view's rows.  The
word evaluators and the closure predicates form ``Permutation`` commutators
directly, and ``group_from_elements`` builds a group from a closed element
collection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from nilcrit.errors import DegreeMismatch, NotNormal, OrderCapExceeded
from nilcrit.group import PermGroup, subgroup_generated
from nilcrit.indexed import indexed_view
from nilcrit.perm import MAX_DEGREE, Permutation, commutator
from nilcrit.words import DeltaValueSet

TUPLE_BUDGET = 50_000_000


def is_normal(G: PermGroup, N: PermGroup) -> bool:
    if not N.is_subgroup_of(G):
        return False
    return all(N.contains(n.conjugate(g)) for n in N.generators for g in G.generators)


@dataclass
class CosetMap:
    """The action of a group on the right cosets of a normal subgroup.

    ``labels`` maps each element of the source to its coset number, and
    ``reps[c]`` is the (lexicographically minimal) element of coset c.
    Calling the map sends a group element to the permutation it induces on
    coset numbers.
    """

    source: PermGroup
    kernel: PermGroup
    labels: dict[Permutation, int] = field(repr=False)
    reps: tuple[Permutation, ...]

    def __call__(self, g: Permutation) -> Permutation:
        if g.degree != self.source.degree:
            raise DegreeMismatch("element degree differs from group degree")
        return Permutation(tuple(self.labels[r * g] for r in self.reps))


def quotient(G: PermGroup, N: PermGroup) -> tuple[PermGroup, CosetMap]:
    """Faithful action of G/N on the right cosets of N.

    N must be normal in G; the index must stay within MAX_DEGREE since it
    becomes the degree of the quotient group.
    """
    if not N.is_subgroup_of(G):
        raise NotNormal("N is not a subgroup of G")
    if not is_normal(G, N):
        raise NotNormal("N is not normal in G")
    index = G.order() // N.order()
    if index > MAX_DEGREE:
        raise OrderCapExceeded(index, MAX_DEGREE, what="coset space")
    kernel = N.elements()
    labels: dict[Permutation, int] = {}
    reps: list[Permutation] = []
    for g in G.elements():  # canonical order: a coset is first met at its minimal element
        if g not in labels:
            labels.update((x, len(reps)) for x in {n * g for n in kernel})
            reps.append(g)
    if len(reps) != index:
        raise RuntimeError(f"coset scan found {len(reps)} cosets, expected {index}")

    cmap = CosetMap(G, N, labels, tuple(reps))
    Q = PermGroup(index, tuple(cmap(g) for g in G.generators),
                  name=f"{G.name}/{N.name}" if G.name and N.name else None)
    if Q.order() * N.order() != G.order():
        raise RuntimeError("quotient order mismatch: kernel of the coset action is not N")
    return Q, cmap


def verbal_subgroup(G: PermGroup, values: frozenset[int]) -> PermGroup:
    """The subgroup generated by a word value set, an index set on G's view, grown on a chain."""
    return subgroup_generated(G.degree, indexed_view(G).perms(sorted(values)))


def commutator_table(G: PermGroup) -> list[list[int]]:
    """``table[a][b]`` is the index of [a, b] on G's view, one ``comm`` per pair."""
    iv = indexed_view(G)
    return [[iv.comm(a, b) for b in range(iv.size)] for a in range(iv.size)]


def delta_values_bruteforce(G: PermGroup, k: int) -> DeltaValueSet:
    """Tuple-enumeration oracle: evaluates the depth-k derived word on every 2^k argument tuple.

    Exponential in |G|; for cross-checking delta_values on small groups only.
    """
    if k < 0:
        raise ValueError("depth must be nonnegative")
    n = G.order()
    if n ** (2 ** k) > TUPLE_BUDGET:
        raise OrderCapExceeded(n ** (2 ** k), TUPLE_BUDGET, what="argument tuple space")
    if k == 0:
        return DeltaValueSet("delta", 0, frozenset(range(n)))
    ct = commutator_table(G)
    rng = range(n)
    if k == 1:
        idxs = {ct[a][b] for a in rng for b in rng}
    elif k == 2:
        idxs = set()
        for a in rng:
            row_a = ct[a]
            for b in rng:
                left = ct[row_a[b]]
                for c in rng:
                    row_c = ct[c]
                    for d in rng:
                        idxs.add(left[row_c[d]])
    else:

        def word(tup: tuple[int, ...]) -> int:
            if len(tup) == 1:
                return tup[0]
            half = len(tup) // 2
            return ct[word(tup[:half])][word(tup[half:])]

        idxs = {word(t) for t in itertools.product(rng, repeat=2 ** k)}
    return DeltaValueSet("delta", k, frozenset(idxs))


def group_from_elements(degree: int, elements: Iterable[Permutation]) -> PermGroup:
    """Build a group from its full (closed) element collection, with a reduced generating set."""
    elems = tuple(sorted(set(elements), key=lambda p: p.images))
    group = subgroup_generated(degree, elems)
    if group.order() != len(elems):
        raise ValueError(f"element collection of size {len(elems)} is not closed "
                         f"(generates order {group.order()})")
    group._elements = elems
    return group


def evaluate_delta(k: int, args: Sequence[Permutation]) -> Permutation:
    """Literal evaluation of the depth-k derived word on 2^k arguments."""
    if len(args) != 2 ** k:
        raise ValueError(f"depth {k} takes {2 ** k} arguments, got {len(args)}")
    if k == 0:
        return args[0]
    half = len(args) // 2
    return commutator(evaluate_delta(k - 1, args[:half]),
                      evaluate_delta(k - 1, args[half:]))


def evaluate_gamma(args: Sequence[Permutation]) -> Permutation:
    """Left-normed commutator [g1, g2, ..., gk]."""
    if not args:
        raise ValueError("the left-normed word takes at least one argument")
    acc = args[0]
    for g in args[1:]:
        acc = commutator(acc, g)
    return acc


def is_symmetric(X: Iterable[Permutation]) -> bool:
    elems = set(X)
    return all(x.inverse() in elems for x in elems)


def is_commutator_closed(X: Iterable[Permutation]) -> bool:
    elems = set(X)
    return all(commutator(a, b) in elems for a in elems for b in elems)
