"""Structural series and distinguished subgroups.

Derived, lower central and lower Fitting series; nilpotency, solubility and
metanilpotency predicates; Sylow subgroups, p-cores, p'-cores and the Fitting
subgroup; Sylow bases and their (system) normalizers.

The series and the nilpotency and solubility predicates run on stabilizer
chains, and never enumerate G; the commutators that seed each series term
are formed on image bytes.  The subgroups are index sets on G's indexed
view, the only enumeration, each wrapped with no chain built for it.  A Sylow
subgroup, of G or of a subgroup's index list, grows by p-elements whose
conjugation lookups keep its index set.  Its conjugates are one orbit under
the conjugation tables of G's generators, one per right coset of its
normalizer, each an index tuple with known generators.  A Sylow basis comes
from a bounded deterministic backtracking search over them, in which two
candidates permute when a chain finds <P, Q> of order |P| |Q|.  Basis
normalizers and intersected bases are index sets on the ambient group's
view, and factorizations are checked by |AB| = |A| |B| / |A cap B|.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from .errors import (
    NotPrimeDivisor,
    NotSoluble,
    PermutabilityViolated,
    SearchExhausted,
)
from .group import PermGroup, group_with_elements, normal_closure
from .indexed import IndexedGroup, indexed_view
from .perm import Permutation, inverse_table, pad, wrap_images
from .primes import is_prime, p_part, prime_factors

# permutability tests the Sylow basis backtracking may run before giving up
SYLOW_BASIS_MAX_TESTS = 200_000


class SeriesReport(NamedTuple):
    """A descending subgroup series with its order profile.

    ``stabilized`` records that the final term is a genuine fixed point of the
    step map.  When the series stops above the trivial group, the repeated
    order is kept so the profile shows the stall (e.g. (60, 60) for a perfect
    group); a series reaching the trivial group ends at 1 without repetition.
    ``fitting_height`` is set for the lower Fitting series of a soluble group.
    """

    kind: str
    terms: tuple[PermGroup, ...]
    orders: tuple[int, ...]
    stabilized: bool
    fitting_height: int | None = None

    def last(self) -> PermGroup:
        return self.terms[-1]

    def reaches_trivial(self) -> bool:
        return self.orders[-1] == 1


def _descending_series(G: PermGroup, kind: str, step) -> SeriesReport:
    terms = [G]
    while True:
        current = terms[-1]
        if current.order() == 1:
            return SeriesReport(kind, tuple(terms), tuple(t.order() for t in terms), True)
        nxt = step(current)
        if nxt.order() == current.order():
            terms.append(nxt)
            return SeriesReport(kind, tuple(terms), tuple(t.order() for t in terms), True)
        terms.append(nxt)


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
    """Commutator subgroup: normal closure of the commutators of the generators."""
    return G.memo(("derived_subgroup",),
                  lambda: normal_closure(G, _commutators(G.generators, G.generators)))


def derived_series(G: PermGroup) -> SeriesReport:
    return G.memo(("derived_series",), lambda: _descending_series(G, "derived", derived_subgroup))


def derived_term(G: PermGroup, k: int) -> PermGroup:
    """kth derived subgroup; indices past stabilization return the last term."""
    if k < 0:
        raise ValueError("derived terms are indexed from 0")
    series = derived_series(G)
    return series.terms[min(k, len(series.terms) - 1)]


def _lower_central_step(G: PermGroup):
    def step(term: PermGroup) -> PermGroup:
        return normal_closure(G, _commutators(term.generators, G.generators))

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
        return SeriesReport(report.kind, report.terms, report.orders,
                            report.stabilized, fitting_height=height)

    return G.memo(("lower_fitting_series",), compute)


def fitting_height(G: PermGroup) -> int:
    h = lower_fitting_series(G).fitting_height
    if h is None:
        raise NotSoluble("Fitting height is only defined for soluble groups")
    return h


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
    order as on M's own view, and tests membership in N_M(P) by conjugation
    lookups against P's index set.  The p-part of y, y^(|y| / p-part of |y|),
    is a power walk on y's image bytes.
    """
    target = p_part(len(domain), p)
    p_elements = [i for i in domain if iv.order_of[i] % p == 0]
    members, gens, conj = frozenset([iv.identity_index]), [], []
    while len(members) < target:
        for y in p_elements:
            if all(c[y] in members for c in conj):
                n, z, table = iv.order_of[y], iv.images[y], iv.pads[y]
                for _ in range(n // p_part(n, p) - 1):
                    z = z.translate(table)
                z = iv.index[z]
                if z not in members:
                    break
        else:
            raise RuntimeError("Sylow growth stalled; normalizer scan found no p-element")
        gens.append(z)
        conj.append(iv.conjugates(z))
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


def p_prime_core(G: PermGroup, p: int) -> PermGroup:
    """O_{p'}(G): join of the class closures that turn out to be p'-groups.

    Every normal p'-subgroup is a union of p'-classes and a join of normal
    p'-subgroups is again one, so the join below is exactly the p'-core.
    Class closures and their join are index sets on G's indexed view.
    """
    if not is_prime(p):
        raise NotPrimeDivisor(f"{p} is not prime")

    def compute() -> PermGroup:
        iv = indexed_view(G)
        core: set[int] = set()
        for cls in iv.classes():
            if iv.order_of[cls[0]] % p:
                closed = iv.closure(cls)
                if len(closed) % p:
                    core |= closed
        return iv.subgroup(sorted(iv.closure(core)))

    return G.memo(("p_prime_core", p), compute)


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


def _permutable(P: PermGroup, Q: PermGroup) -> bool:
    """PQ == QP, for Sylow subgroups P, Q at distinct primes: |<P, Q>| == |P| |Q|.

    P cap Q = 1 has coprime order, so |PQ| = |P| |Q|.  PQ lies in <P, Q>
    and is all of it exactly when PQ is a subgroup, that is when PQ == QP.
    One chain order replaces the 2 |P| |Q| products of comparing PQ and QP.
    """
    joined = PermGroup(P.degree, P.generators + Q.generators)
    return joined.order() == P.order() * Q.order()


def _distinct_conjugates(G: PermGroup, P: PermGroup) -> list[PermGroup]:
    """The conjugates of P in G, in order of their sorted element indices.

    They form one orbit under conjugation by G's generators, since
    P^(g*s) = (P^g)^s, so each is reached from P by the view's conjugation
    tables, together with its generators; every conjugate P^g, one per right
    coset of N_G(P), is found once.  Index order is canonical element order,
    so sorting index tuples sorts the conjugates by their sorted elements.
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
    return [group_with_elements(G.degree, iv.perms(gens[m]), iv.perms(m)) for m in sorted(gens)]


def sylow_basis(G: PermGroup, seed: int = 0) -> SylowBasis:
    """Find a Sylow basis by backtracking over Sylow conjugates.

    The candidates at each prime are the conjugates of one Sylow subgroup,
    read off G's conjugation tables, in canonical order (shuffled
    reproducibly when seed is nonzero), so the same inputs always yield the
    same basis.  Two candidates permute when they generate a group of order
    |P| |Q|.  Existence is guaranteed for soluble groups; the bounded search
    raises SearchExhausted if SYLOW_BASIS_MAX_TESTS tests run out first.  The result is
    checked against G = T * gamma_inf(G) by the order identity
    |T| |R| == |G| |T cap R|.
    """
    if not is_soluble(G):
        raise NotSoluble("Sylow bases exist exactly for soluble groups")

    def compute() -> SylowBasis:
        primes = prime_factors(G.order())
        candidates = []
        for p in primes:
            conj = _distinct_conjugates(G, sylow_subgroup(G, p))
            if seed:
                random.Random((seed, p).__hash__() & 0x7FFFFFFF).shuffle(conj)
            candidates.append(conj)

        tests = 0
        memo: dict[tuple[int, int, int, int], bool] = {}

        def permutable(i: int, a: int, j: int, b: int) -> bool:
            nonlocal tests
            key = (i, a, j, b)
            if key not in memo:
                tests += 1
                if tests > SYLOW_BASIS_MAX_TESTS:
                    raise SearchExhausted(f"no pairwise permutable Sylow family within "
                                          f"{SYLOW_BASIS_MAX_TESTS} tests")
                memo[key] = _permutable(candidates[i][a], candidates[j][b])
            return memo[key]

        chosen: list[int] = []

        def extend(i: int) -> bool:
            if i == len(candidates):
                return True
            for a in range(len(candidates[i])):
                if all(permutable(j, chosen[j], i, a) for j in range(i)):
                    chosen.append(a)
                    if extend(i + 1):
                        return True
                    chosen.pop()
            return False

        if not extend(0):
            raise SearchExhausted("backtracking exhausted all Sylow conjugate families")

        basis = {p: candidates[i][chosen[i]] for i, p in enumerate(primes)}
        T = basis_normalizer(G, basis)
        if product_order(G, T, gamma_infinity(G)) != G.order():
            raise RuntimeError("basis normalizer failed the factorization G = T * gamma_inf(G)")
        return SylowBasis(G, basis, T, seed)

    return G.memo(("sylow_basis", seed), compute)


def basis_normalizer(G: PermGroup, basis: dict[int, PermGroup]) -> PermGroup:
    """Intersection of the G-normalizers of the basis members.

    One pass over G's indexed view: g is kept when every generator of every
    member conjugates by g into that member's index set.
    """
    iv = indexed_view(G)
    return iv.subgroup(iv.normalizing(basis.values()))


def intersect_basis(B: SylowBasis, K: PermGroup) -> SylowBasis:
    """Sylow basis of a normal subgroup K, by intersecting the ambient basis.

    Intersections of a Sylow basis with a normal subgroup always form a basis
    of it; a permutability failure here means an internal bug, reported as
    PermutabilityViolated.  Everything is read on the ambient group's view:
    K's normality is checked on its conjugation tables (NotNormal), the
    members are intersections of index sets, and the basis normalizer of K
    is the set of K's indices whose conjugation lookups keep every member,
    so K needs no view of its own.
    """
    iv = indexed_view(B.ambient)
    k_idx = iv.normal_subgroup_indices(K)
    new_basis: dict[int, PermGroup] = {}
    for p in prime_factors(K.order()):
        inter = k_idx & iv.member_indices(B.basis[p])
        if len(inter) != p_part(K.order(), p):
            raise PermutabilityViolated(
                f"intersection with the normal subgroup is not Sylow at p={p}")
        new_basis[p] = iv.subgroup(sorted(inter))
    for p in new_basis:
        for q in new_basis:
            if p < q and not _permutable(new_basis[p], new_basis[q]):
                raise PermutabilityViolated(
                    f"intersected Sylow subgroups for p={p}, q={q} do not permute")
    T = iv.subgroup(iv.normalizing(new_basis.values(), sorted(k_idx)))
    return SylowBasis(K, new_basis, T, B.seed)
