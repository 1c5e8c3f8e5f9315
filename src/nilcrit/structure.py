"""Structural series and distinguished subgroups.

Derived, lower central and lower Fitting series; nilpotency, solubility and
metanilpotency predicates; Sylow subgroups, p-cores and the Fitting subgroup;
Sylow bases and their (system) normalizers.

The series and the nilpotency and solubility predicates run on stabilizer
chains, and never enumerate G; the commutators that seed each series term
are formed on image bytes.  Each term is built once: it is closed within
the term it descends from, so a series that stalls repeats that term
itself, and the lower central series takes gamma_2(G) from
``derived_subgroup``.  The subgroups are index sets on G's indexed
view, the only enumeration, each wrapped with its order and no chain.  A Sylow
subgroup, of G or of a subgroup's index list, grows by p-elements that
conjugate its generators, on image bytes, into its index set.  Its
conjugates are one orbit under the conjugation tables of G's generators, one
per right coset of its normalizer, each an index tuple with known generators.
A Sylow basis is chosen from them in one pass over the primes, keeping at
each prime the first candidate that permutes with those already kept; a
candidate is wrapped as a group only when it is tested, and two
candidates permute when the closure of their generators on G's view has
|P| |Q| members.  Basis normalizers and intersected bases are index sets on
the ambient group's view, and factorizations are checked by
|AB| = |A| |B| / |A cap B|.  None of it builds a stabilizer chain.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from .errors import NotPrimeDivisor, NotSoluble, PermutabilityViolated
from .group import PermGroup, normal_closure
from .indexed import IndexedGroup, indexed_view
from .perm import Permutation, inverse_table, pad, wrap_images
from .primes import is_prime, p_part, prime_factors


class SeriesReport(NamedTuple):
    """A descending subgroup series with its order profile.

    When the series stops above the trivial group, the repeated order is
    kept so the profile shows the stall (e.g. (60, 60) for a perfect group);
    a series reaching the trivial group ends at 1 without repetition.
    ``fitting_height`` is set for the lower Fitting series of a soluble group.
    """

    kind: str
    terms: tuple[PermGroup, ...]
    orders: tuple[int, ...]
    fitting_height: int | None = None

    def last(self) -> PermGroup:
        return self.terms[-1]

    def reaches_trivial(self) -> bool:
        return self.orders[-1] == 1


def _descending_series(G: PermGroup, kind: str, step) -> SeriesReport:
    terms = [G]
    while terms[-1].order() != 1:
        terms.append(step(terms[-1]))
        if terms[-1].order() == terms[-2].order():
            break
    return SeriesReport(kind, tuple(terms), tuple(t.order() for t in terms))


def _commutators(xs: Sequence[Permutation], ys: Sequence[Permutation]) -> list[Permutation]:
    """[x, y] = x^-1 y^-1 x y for x in xs and y in ys, in order, on image bytes.

    A pair x = y is skipped: its commutator is 1, which no closure keeps.
    Each element's inverse is formed once; a commutator is three translates.
    """
    inverse = {p.images: inverse_table(p.images) for p in (*xs, *ys)}
    return [wrap_images(inverse[x.images][:len(x.images)].translate(inverse[y.images])
                        .translate(pad(x)).translate(pad(y)))
            for x in xs for y in ys if x != y]


def derived_subgroup(G: PermGroup) -> PermGroup:
    """Commutator subgroup: normal closure of the commutators of the generators.

    The closure is bounded by G, so a perfect G is its own derived subgroup,
    the same object.
    """
    return G.memo(("derived_subgroup",),
                  lambda: normal_closure(G, _commutators(G.generators, G.generators), within=G))


def derived_series(G: PermGroup) -> SeriesReport:
    return G.memo(("derived_series",), lambda: _descending_series(G, "derived", derived_subgroup))


def derived_term(G: PermGroup, k: int) -> PermGroup:
    """kth derived subgroup; indices past stabilization return the last term."""
    if k < 0:
        raise ValueError("derived terms are indexed from 0")
    series = derived_series(G)
    return series.terms[min(k, len(series.terms) - 1)]


def _lower_central_step(G: PermGroup):
    """[term, G], the normal closure in G of [t, g] over generators, within term.

    [G, G] is G's derived subgroup, from the same seeds: it is read from
    its memo, not built again.
    """
    def step(term: PermGroup) -> PermGroup:
        if term is G:
            return derived_subgroup(G)
        return normal_closure(G, _commutators(term.generators, G.generators), within=term)

    return step


def lower_central_series(G: PermGroup) -> SeriesReport:
    return G.memo(("lower_central_series",),
                  lambda: _descending_series(G, "lower_central", _lower_central_step(G)))


def lower_central_term(G: PermGroup, k: int) -> PermGroup:
    """kth lower central term, 1-indexed: term 1 is G itself."""
    if k < 1:
        raise ValueError("lower central terms are indexed from 1")
    series = lower_central_series(G)
    return series.terms[min(k - 1, len(series.terms) - 1)]


def gamma_infinity(G: PermGroup) -> PermGroup:
    """Nilpotent residual: the stable term of the lower central series."""
    return lower_central_series(G).last()


def lower_fitting_series(G: PermGroup) -> SeriesReport:
    def compute() -> SeriesReport:
        report = _descending_series(G, "lower_fitting", gamma_infinity)
        height = len(report.orders) - 1 if report.reaches_trivial() else None
        if G.order() == 1:
            height = 0
        return SeriesReport(report.kind, report.terms, report.orders, fitting_height=height)

    return G.memo(("lower_fitting_series",), compute)


def is_nilpotent(G: PermGroup) -> bool:
    return gamma_infinity(G).is_trivial()


def is_soluble(G: PermGroup) -> bool:
    return derived_series(G).reaches_trivial()


def is_metanilpotent(G: PermGroup) -> bool:
    return is_nilpotent(gamma_infinity(G))


# Sylow machinery

def _check_prime_divisor(G: PermGroup, p: int) -> None:
    if not is_prime(p):
        raise NotPrimeDivisor(f"{p} is not prime")
    if G.order() % p != 0:
        raise NotPrimeDivisor(f"{p} does not divide the group order {G.order()}")


def _sylow_indices(iv: IndexedGroup, p: int, domain: range | list[int]) -> tuple[frozenset[int], list[int]]:
    """``(members, generators)`` of a Sylow p-subgroup of the subgroup M with index list domain.

    Starting from the trivial group, the current p-subgroup P is enlarged by
    adjoining the p-part of the first p-element of N_M(P) whose p-part lies
    outside P; such an element always exists while |P| is short of the full
    p-part, and the extension stays a p-group because the new element
    normalizes P.  The scan runs in index order, which is canonical element
    order as on M's own view.  y lies in N_M(P) when z^y = y^-1 z y, formed
    on the image bytes of y^-1, z and y, lies in P's index set for each kept
    generator z; only the y the scan reaches are tested.  The p-part of y,
    y^(|y| / p-part of |y|), is a power walk on y's image bytes.
    """
    key, images, pads, inverse, order_of = iv.index, iv.images, iv.pads, iv.inverse, iv.order_of
    target = p_part(len(domain), p)
    p_elements = [i for i in domain if order_of[i] % p == 0]
    members, gens = frozenset([iv.identity_index]), []
    while len(members) < target:
        for y in p_elements:
            inv_y, pad_y = images[inverse[y]], pads[y]
            if all(key[inv_y.translate(pads[g]).translate(pad_y)] in members for g in gens):
                n, z = order_of[y], images[y]
                for _ in range(n // p_part(n, p) - 1):
                    z = z.translate(pad_y)
                z = key[z]
                if z not in members:
                    break
        else:
            raise RuntimeError("Sylow growth stalled; normalizer scan found no p-element")
        gens.append(z)
        members = iv.closure(gens)
    return members, gens


def sylow_subgroup(G: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup, grown through normalizers on G's indexed view (see ``_sylow_indices``)."""
    _check_prime_divisor(G, p)

    def compute() -> PermGroup:
        iv = indexed_view(G)
        return iv.subgroup(_sylow_indices(iv, p, range(iv.size))[1])

    return G.memo(("sylow", p), compute)


def p_core(G: PermGroup, p: int) -> PermGroup:
    """O_p(G), the intersection of the conjugates of a Sylow P: the classes of G inside P."""
    _check_prime_divisor(G, p)

    def compute() -> PermGroup:
        P = sylow_subgroup(G, p)
        iv = indexed_view(G)
        labels = iv.class_labels()[0]
        p_idx = iv.member_indices(P)
        outside = {c for i, c in enumerate(labels) if i not in p_idx}
        return iv.subgroup(sorted(i for i in p_idx if labels[i] not in outside))

    return G.memo(("p_core", p), compute)


def fitting_subgroup(G: PermGroup) -> PermGroup:
    """F(G): the product of the p-cores over primes dividing |G|."""

    def compute() -> PermGroup:
        iv = indexed_view(G)
        return iv.subgroup(iv.index[g.images] for p in prime_factors(G.order())
                           for g in p_core(G, p).generators)

    return G.memo(("fitting",), compute)


# Sylow bases and basis normalizers

class SylowBasis(NamedTuple):
    """Pairwise permutable Sylow subgroups, one per prime, with their normalizer.

    ``normalizer`` is the basis (system) normalizer: the intersection of the
    ambient-group normalizers of the basis members.  It is nilpotent, and the
    ambient group factors as ``normalizer * gamma_infinity``.
    """

    ambient: PermGroup
    basis: dict[int, PermGroup]
    normalizer: PermGroup
    seed: int

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(sorted(self.basis))


def product_order(G: PermGroup, A: PermGroup, B: PermGroup) -> int:
    """|AB| for subgroups A, B of G, as |A| |B| / |A cap B|.

    The identity holds for any two subgroups: ab = a'b' exactly when
    a'^-1 a = b' b^-1 lies in A cap B, so every product is hit |A cap B|
    times.  The intersection is read on G's index sets.
    """
    iv = indexed_view(G)
    a, b = iv.member_indices(A), iv.member_indices(B)
    return len(a) * len(b) // len(a & b)


def _permutable(iv: IndexedGroup, P: PermGroup, Q: PermGroup) -> bool:
    """PQ == QP, for Sylow subgroups P, Q at distinct primes of G: |<P, Q>| == |P| |Q|.

    P cap Q = 1 has coprime order, so |PQ| = |P| |Q|.  PQ lies in <P, Q>
    and is all of it exactly when PQ is a subgroup, that is when PQ == QP.
    <P, Q> is closed from both generator lists on iv, G's view, with no
    chain built; the |P| |Q| bound is read from P's and Q's orders.
    """
    gens = [iv.index[g.images] for g in P.generators + Q.generators]
    return len(iv.closure(gens)) == P.order() * Q.order()


def _distinct_conjugates(G: PermGroup, P: PermGroup) -> list[tuple[tuple[int, ...], list[int]]]:
    """The conjugates of P in G, as ``(members, generators)`` index lists, sorted by members.

    They form one orbit under conjugation by G's generators, since
    P^(g*s) = (P^g)^s, so each is reached from P by the view's conjugation
    tables, together with its generators; every conjugate P^g, one per right
    coset of N_G(P), is found once.  Index order is canonical element order,
    so sorting index tuples sorts the conjugates by their sorted elements.
    None of them is wrapped as a group here.
    """
    iv = indexed_view(G)
    start = tuple(sorted(iv.member_indices(P)))
    gens = {start: [iv.index[h.images] for h in P.generators]}
    orbit = [start]
    for members in orbit:  # grows while it is walked
        for table in iv.conjugation_tables():
            image = tuple(sorted(table[i] for i in members))
            if image not in gens:
                gens[image] = [table[h] for h in gens[members]]
                orbit.append(image)
    return sorted(gens.items())


def sylow_basis(G: PermGroup, seed: int = 0) -> SylowBasis:
    """A Sylow basis, chosen prime by prime in one pass over Sylow conjugates.

    The candidates at each prime are the conjugates of one Sylow subgroup,
    read off G's conjugation tables, in canonical order (shuffled
    reproducibly when seed is nonzero), so the same inputs always yield the
    same basis.  At each prime the first candidate that permutes with every
    member already chosen is kept (``_permutable``, on G's view).  No choice
    is ever undone (P. Hall, 1937): in a soluble group, pairwise permutable
    Sylow subgroups P_1..P_j generate a Hall subgroup H = P_1...P_j; some
    conjugate of any basis of G meets H in a basis of H, and the bases of H
    are conjugate in H, so {P_1..P_j} extends to a basis of G.  The result
    is checked against G = T * gamma_inf(G) by the order identity
    |T| |R| == |G| |T cap R|.
    """
    if not is_soluble(G):
        raise NotSoluble("Sylow bases exist exactly for soluble groups")

    def compute() -> SylowBasis:
        iv = indexed_view(G)
        basis: dict[int, PermGroup] = {}
        for p in prime_factors(G.order()):
            candidates = _distinct_conjugates(G, sylow_subgroup(G, p))
            if seed:
                random.Random(f"{seed}/{p}").shuffle(candidates)
            for members, gens in candidates:
                P = iv.known_subgroup(frozenset(members), gens)
                if all(_permutable(iv, Q, P) for Q in basis.values()):
                    basis[p] = P
                    break
            else:
                raise RuntimeError(f"no Sylow {p}-subgroup permutes with the basis so far; "
                                   "this is a bug")
        T = iv.subgroup(iv.normalizing(basis.values()))
        if product_order(G, T, gamma_infinity(G)) != G.order():
            raise RuntimeError("basis normalizer failed the factorization G = T * gamma_inf(G)")
        return SylowBasis(G, basis, T, seed)

    return G.memo(("sylow_basis", seed), compute)


def intersect_basis(B: SylowBasis, K: PermGroup) -> SylowBasis:
    """Sylow basis of a normal subgroup K, by intersecting the ambient basis.

    Intersections of a Sylow basis with a normal subgroup always form a basis
    of it; a permutability failure here means an internal bug, reported as
    PermutabilityViolated.  Everything is read on the ambient group's view:
    K's normality is checked on its conjugation tables (NotNormal), the
    members are intersections of index sets, permutability is tested as in
    ``sylow_basis``, and the basis normalizer of K is the set of K's indices
    whose conjugation lookups keep every member, so K needs no view of its
    own.  When K is B's ambient group itself, B is returned: ``sylow_basis``
    has just tested its members' permutability and read its normalizer in
    the same way.
    """
    if K is B.ambient:
        return B
    iv = indexed_view(B.ambient)
    k_idx = iv.member_indices(K)
    iv.require_normal(iv._generator_key(K), k_idx)
    new_basis: dict[int, PermGroup] = {}
    for p in prime_factors(K.order()):
        inter = k_idx & iv.member_indices(B.basis[p])
        if len(inter) != p_part(K.order(), p):
            raise PermutabilityViolated(
                f"intersection with the normal subgroup is not Sylow at p={p}")
        new_basis[p] = iv.subgroup(sorted(inter))
    for p in new_basis:
        for q in new_basis:
            if p < q and not _permutable(iv, new_basis[p], new_basis[q]):
                raise PermutabilityViolated(
                    f"intersected Sylow subgroups for p={p}, q={q} do not permute")
    T = iv.subgroup(iv.normalizing(new_basis.values(), sorted(k_idx)))
    return SylowBasis(K, new_basis, T, B.seed)
