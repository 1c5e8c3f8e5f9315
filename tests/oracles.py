"""Test oracles: quotients, verbal subgroups, the normal-subgroup lattice, the tuple brute force,
literal word evaluation, the full criterion scan, commutator-closed generating sets, the
coset lemma instances, the focal subgroup and normalizers.

No check in nilcrit builds a quotient group: the coset lemmas read G/N off
coset labels on G's indexed view.  The quotient here is built apart from
that labelling, from plain Permutation products: the right coset of g is
{n * g for n in N}, and cosets are numbered in order of their minimal
elements, so a coset's number agrees with the library's labelling without
sharing its code.  The tuple brute force evaluates the derived word on
every argument tuple through a commutator table of single ``comm`` lookups,
so it shares neither the word levels' class walk nor the view's rows; the
former class-representative walk, which formed every conjugate r^b, is
kept to check the levels on groups too large for all pairs.  The former
Sylow scan, which read y^-1 from G's inverse list, checks the scan that
forms each y's inverse table.  The
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
conjugation in G^(k-1), whose terms are closed from pair commutators.  The
normalizer test conjugates every generator by each element of G as a
Permutation.  The membership and subgroup predicates, random elements and
the single commutator ``comm`` on the view are used only by tests, so they
live here and not on ``PermGroup`` or ``IndexedGroup``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Iterator, Sequence

from nilcrit.errors import DegreeMismatch, NotNormal, OrderCapExceeded
from nilcrit.group import DEFAULT_ENUM_CAP, PermGroup, subgroup_generated, trivial_group
from nilcrit.indexed import IndexedGroup, indexed_view
from nilcrit.lemmas import COSET_DEPTHS, normal_subgroups, p_power_value_closure
from nilcrit.perm import MAX_DEGREE, Permutation, commutator, wrap_images
from nilcrit.primes import p_part, prime_factors
from nilcrit.structure import sylow_subgroup
from nilcrit.words import DeltaValueSet

TUPLE_BUDGET = 50_000_000


def contains(G: PermGroup, p: Permutation) -> bool:
    """p lies in G: the same degree, and p sifts to the identity through G's chain."""
    return p.degree == G.degree and G.chain().contains(p)


def is_subgroup_of(H: PermGroup, G: PermGroup) -> bool:
    """H <= G: the same degree, and every generator of H in G."""
    return H.degree == G.degree and all(contains(G, h) for h in H.generators)


def equals(H: PermGroup, G: PermGroup) -> bool:
    """The same set of permutations (not object identity)."""
    return H.degree == G.degree and H.order() == G.order() and is_subgroup_of(H, G)


def random_element(G: PermGroup, rng: random.Random) -> Permutation:
    """A uniformly random element of G, from independent choices in its chain's transversals."""
    g = Permutation.identity(G.degree)
    for transversal in reversed(G.chain().transversals):
        reps = list(transversal.values())
        g = g * reps[rng.randrange(len(reps))]
    return g


def normalizer_oracle(G: PermGroup, subgroups: Iterable[PermGroup],
                      domain: Iterable[int] | None = None) -> list[int]:
    """The indices g of the domain (default all of G), in its order, that normalize every subgroup.

    g is kept when h^g lies in H for every generator h of every subgroup H,
    by ``Permutation.conjugate`` on G's elements listed by ``elements_of``,
    whose order is the indexed view's, against each H's own element set.
    """
    elements = elements_of(G)
    tests = [(h, frozenset(elements_of(H))) for H in subgroups for h in H.generators]
    return [g for g in (range(len(elements)) if domain is None else domain)
            if all(h.conjugate(elements[g]) in members for h, members in tests)]


def is_normal(G: PermGroup, N: PermGroup) -> bool:
    if not is_subgroup_of(N, G):
        return False
    return all(contains(N, n.conjugate(g)) for n in N.generators for g in G.generators)


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
    if not is_subgroup_of(N, G):
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
                if is_subgroup_of(A, B) or is_subgroup_of(B, A):
                    continue
                if add(subgroup_generated(G.degree, A.generators + B.generators)):
                    grew = True
    return sorted(found.values(), key=lambda H: (H.order(), [p.images for p in elements_of(H)]))


def verbal_subgroup(G: PermGroup, values: frozenset[int]) -> PermGroup:
    """The subgroup generated by a word value set, an index set on G's view, grown on a chain."""
    return subgroup_generated(G.degree, indexed_view(G).perms(sorted(values)))


def comm(iv: IndexedGroup, i: int, j: int) -> int:
    """The index of [elements[i], elements[j]] = i^-1 j^-1 i j on the view, from image bytes."""
    inv, pads = iv.inverse, iv.pads
    return iv.index[iv.images[inv[i]].translate(pads[inv[j]]).translate(pads[i]).translate(pads[j])]


def commutator_table(G: PermGroup) -> list[list[int]]:
    """``table[a][b]`` is the index of [a, b] on G's view, one ``comm`` per pair."""
    iv = indexed_view(G)
    return [[comm(iv, a, b) for b in range(iv.size)] for a in range(iv.size)]


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


def class_rep_levels_oracle(G: PermGroup, kind: str, upto: int) -> list[frozenset[int]]:
    """Value levels 0..upto on G's view by the former class-representative walk.

    Level i+1 is the union of the classes of [r, b] = r^-1 * r^b, r a class
    representative of level i and b in level i ("delta") or in G ("gamma"),
    one product per distinct conjugate r^b.  When b ranges over G, the
    conjugates are r's class; otherwise every r^b is formed, one per b.
    "gamma" level i holds the values of depth i+1.  Nothing is kept on G.
    """
    iv = indexed_view(G)
    labels, reps = iv.class_labels()
    key, images, pads, inverse = iv.index, iv.images, iv.pads, iv.inverse
    levels = [frozenset(range(iv.size))]
    while len(levels) <= upto:
        prev = levels[-1]
        whole = kind == "gamma" or len(prev) == iv.size
        conjugators = [] if whole else [(images[inverse[b]], pads[b]) for b in prev]
        hit = set()
        for c in {labels[a] for a in prev}:
            r = reps[c]
            conj_r = iv.classes()[c] if whole else {
                key[inv_b.translate(pads[r]).translate(pad_b)] for inv_b, pad_b in conjugators}
            inv_r = images[inverse[r]]
            hit.update(labels[key[inv_r.translate(pads[y])]] for y in conj_r)
        levels.append(frozenset(x for x in range(iv.size) if labels[x] in hit))
    return levels


def sylow_scan_oracle(iv: IndexedGroup, p: int,
                      domain: range | list[int]) -> tuple[frozenset[int], list[int]]:
    """``(members, generators)`` of a Sylow p-subgroup of the subgroup with index list domain.

    The former normalizer scan: P grows from the trivial group by the p-part
    of the first p-element y, in domain order, outside P with z^y = y^-1 z y
    in P for each kept generator z, y^-1 read from G's inverse list.
    """
    key, images, pads, inverse, order_of = iv.index, iv.images, iv.pads, iv.inverse, iv.order_of
    target = p_part(len(domain), p)
    p_elements = [i for i in domain if order_of[i] % p == 0]
    members, gens = frozenset([iv.identity_index]), []
    while len(members) < target:
        for y in p_elements:
            if y in members:
                continue
            inv_y, pad_y = images[inverse[y]], pads[y]
            if all(key[inv_y.translate(pads[g]).translate(pad_y)] in members for g in gens):
                n, z = order_of[y], images[y]
                for _ in range(n // p_part(n, p) - 1):
                    z = z.translate(pad_y)
                z = key[z]
                if z not in members:
                    break
        else:
            raise AssertionError("Sylow growth stalled")
        gens.append(z)
        members = iv.closure(gens)
    return members, gens


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
                c = comm(iv, x, y)
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
    return iv.closure({comm(iv, a, b) for a in X for b in X})


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
        commutators = sorted({comm(iv, a, s) for a in term for s in gens})
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
