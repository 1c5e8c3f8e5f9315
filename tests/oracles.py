"""Test oracles: quotients, verbal subgroups, the normal-subgroup lattice, the tuple brute force,
literal word evaluation, the full criterion scan, commutator-closed generating sets, the
coset lemma instances and the focal subgroup.

No check in nilcrit builds a quotient group: the coset lemmas read G/N off
coset labels on G's indexed view.  The quotient here is built apart from
that labelling, from plain Permutation products: the right coset of g is
{n * g for n in N}, and cosets are numbered in order of their minimal
elements, so a coset's number agrees with the library's labelling without
sharing its code.  The tuple brute force evaluates the derived word on
every argument tuple through a commutator table of single ``comm`` lookups,
so it shares neither the word levels' class walk nor the view's rows.  The
normal-subgroup lattice is the former closure join: a chain per class
closure, closed under pairwise joins of chains by their generators.  The
word evaluators and the closure predicates form ``Permutation`` commutators
directly, ``group_from_elements`` builds a group from a closed element
collection, and ``elements_of`` lists a group's elements as Permutations,
which the library never does.  The full criterion scan runs over every pair of values, with no
conjugacy reduction.  Random commutator-closed generating sets, and the
subgroup their pair commutators generate, are index sets on G's view.  The
coset lemma instances come one at a time, in the order the batch checks
them.  The focal subgroup gives P cap G^(k) by Higman's theorem, from
conjugation in G^(k-1), whose terms are closed from pair commutators.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Iterator, Sequence

from nilcrit.errors import DegreeMismatch, NotNormal, OrderCapExceeded
from nilcrit.group import DEFAULT_ENUM_CAP, PermGroup, subgroup_generated, trivial_group
from nilcrit.indexed import indexed_view
from nilcrit.lemmas import COSET_DEPTHS, normal_subgroups, p_power_value_closure
from nilcrit.perm import MAX_DEGREE, Permutation, commutator, wrap_images
from nilcrit.primes import prime_factors
from nilcrit.structure import sylow_subgroup
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
    kernel = elements_of(N)
    labels: dict[Permutation, int] = {}
    reps: list[Permutation] = []
    for g in elements_of(G):  # canonical order: a coset is first met at its minimal element
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


def coset_closure_oracle(G: PermGroup, N: frozenset[int], seeds: Iterable[int]) -> set[int]:
    """The label set of the preimage <N, one element per seed coset>, closed in G.

    This is how the lifted-generation check closed <P-bar cap X-bar> before
    it closed on coset labels: |N| times the products of the label closure.
    """
    iv = indexed_view(G)
    labels, reps = iv.coset_labels(N)
    return {labels[i] for i in iv.closure(sorted(N) + [reps[c] for c in seeds])}


def normal_subgroups_oracle(G: PermGroup) -> list[PermGroup]:
    """Class closures, closed under pairwise joins of chains; sorted by order, then elements."""
    found: dict[frozenset, PermGroup] = {}

    def add(H: PermGroup) -> bool:
        key = frozenset(elements_of(H))
        if key in found:
            return False
        found[key] = H
        return True

    iv = indexed_view(G)
    add(trivial_group(G.degree))
    for cls in iv.classes():
        add(subgroup_generated(G.degree, iv.perms(cls)))
    grew = True
    while grew:
        grew = False
        current = list(found.values())
        for i, A in enumerate(current):
            for B in current[i + 1:]:
                if A.is_subgroup_of(B) or B.is_subgroup_of(A):
                    continue
                if add(subgroup_generated(G.degree, A.generators + B.generators)):
                    grew = True
    return sorted(found.values(), key=lambda H: (H.order(), [p.images for p in elements_of(H)]))


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
    return group


def elements_of(G: PermGroup, cap: int = DEFAULT_ENUM_CAP) -> tuple[Permutation, ...]:
    """All elements of G as Permutations, in canonical (lexicographic image) order."""
    n = G.order()
    if n > cap:
        raise OrderCapExceeded(n, cap)
    return tuple(map(wrap_images, sorted(G.chain().elements())))


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


def full_scan_oracle(values: Iterable[Permutation]) -> bool:
    """The criterion over every pair of non-identity values, straight off the permutations."""
    vals = [(v, v.order()) for v in values if not v.is_identity()]
    return all(gcd(oa, ob) != 1 or (a * b).order() == oa * ob
               for (a, oa), (b, ob) in itertools.product(vals, repeat=2))


def commutator_closure(G: PermGroup, seed: Iterable[int]) -> frozenset[int]:
    """The smallest set holding the seed indices and 1 and closed under commutators."""
    iv = indexed_view(G)
    closed = set(seed)
    closed.add(iv.identity_index)
    members = list(closed)
    frontier = list(closed)
    while frontier and len(closed) < iv.size:
        fresh = []
        for x in frontier:
            for y in members:
                # [x, y], and [y, x] = [x, y]^-1
                c = iv.comm(x, y)
                for d in (c, iv.inverse[c]):
                    if d not in closed:
                        closed.add(d)
                        fresh.append(d)
        members.extend(fresh)
        frontier = fresh
    return frozenset(closed)


def random_commutator_closed_generating_set(G: PermGroup, rng: random.Random) -> frozenset[int]:
    """Uniform picks until they generate G, then closed under commutators; an index set."""
    iv = indexed_view(G)
    picks: list[int] = []
    while len(iv.closure(picks)) < iv.size:
        picks.append(rng.randrange(iv.size))
    return commutator_closure(G, picks)


def pair_commutator_span(G: PermGroup, X: frozenset[int]) -> frozenset[int]:
    """The subgroup generated by the commutators [x1, x2], x1 and x2 in X, as an index set."""
    iv = indexed_view(G)
    return iv.closure({iv.comm(a, b) for a in X for b in X})


def derived_term_by_commutators(G: PermGroup, k: int) -> tuple[frozenset[int], list[int]]:
    """``(G^(k), gens)``: the kth derived subgroup as an index set on G's view, and generators.

    No ``derived_term``: for a term H generated by S, the pair commutators
    [a, s], a in H and s in S, generate H'.  They lie in H', hold [S, S], and
    span a normal subgroup of H, as [a, s]^b = [ab, s] [b, s]^-1.  A
    commutator joins the next term's generators when the closure of those
    kept so far lacks it.
    """
    iv = indexed_view(G)
    term = frozenset(range(iv.size))
    gens = [iv.index[g.images] for g in G.generators]
    for _ in range(k):
        commutators = sorted({iv.comm(a, s) for a in term for s in gens})
        term, gens = frozenset({iv.identity_index}), []
        for c in commutators:
            if c not in term:
                gens.append(c)
                term = iv.closure(gens)
    return term, gens


def focal_subgroup_oracle(G: PermGroup, p: int, k: int) -> frozenset[int]:
    """P cap G^(k), for a Sylow p-subgroup P of G and k >= 1, by Higman's focal subgroup theorem.

    H = G^(k-1) is normal in G, so Q = P cap H is a Sylow p-subgroup of H, and
    Q cap H' = <x^-1 y : x, y in Q, y = x^h for some h in H>.  The H-class of
    x is its orbit under conjugation by H's generators.  Conjugation alone:
    no word values and no ``derived_term``.
    """
    if k < 1:
        raise ValueError("the focal subgroup gives derived terms from depth 1")
    iv = indexed_view(G)
    H, gens = derived_term_by_commutators(G, k - 1)
    Q = iv.member_indices(sylow_subgroup(G, p)) & H
    met: set[int] = set()
    focal: set[int] = set()
    for x in sorted(Q):
        if x in met:
            continue
        orbit, seen = [x], {x}
        for y in orbit:  # grows while it is walked
            for h in gens:
                z = iv.conj(y, h)
                if z not in seen:
                    seen.add(z)
                    orbit.append(z)
        fused = [y for y in orbit if y in Q]
        met.update(fused)
        focal.update(iv.index[iv.images[iv.inverse[a]].translate(iv.pads[b])]
                     for a in fused for b in fused)
    return iv.closure(focal)


def coset_intersection_instances(G: PermGroup) -> Iterator[dict]:
    """Every (N, p, X): N normal, X the depth's p-power value closure."""
    for p in prime_factors(G.order()):
        for depth in COSET_DEPTHS:
            X = p_power_value_closure(G, depth, p)
            for N in normal_subgroups(G):
                yield {"N": N, "p": p, "X": X, "depth": depth}


def lifted_generation_instances(G: PermGroup) -> Iterator[dict]:
    """Every (N, L, p, X) with N <= L both normal, L in the order of ``normal_subgroups``."""
    normals = normal_subgroups(G)
    for p in prime_factors(G.order()):
        for depth in COSET_DEPTHS:
            X = p_power_value_closure(G, depth, p)
            for N in normals:
                for L in normals:
                    if N <= L:
                        yield {"N": N, "L": L, "p": p, "X": X, "depth": depth}
