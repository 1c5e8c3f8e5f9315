"""Structural series and distinguished subgroups.

Derived, lower central and lower Fitting series; nilpotency, solubility and
metanilpotency predicates; Sylow subgroups, p-cores, p'-cores and the Fitting
subgroup; Sylow bases and their (system) normalizers.

Everything here works at desk scale: normalizers and cores read the indexed
view, enumerated under the cap, and the Sylow basis comes from a bounded
deterministic backtracking search over Sylow conjugates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from .errors import (
    NotNormal,
    NotPrimeDivisor,
    NotSoluble,
    PermutabilityViolated,
    SearchExhausted,
)
from .group import (
    DEFAULT_ENUM_CAP,
    PermGroup,
    conjugacy_classes,
    group_from_elements,
    is_normal,
    normal_closure,
    normalizer,
    product_set,
    subgroup_generated,
)
from .indexed import indexed_view
from .perm import Permutation, commutator
from .primes import is_prime, p_part, prime_factors


@dataclass(frozen=True)
class SeriesReport:
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


def derived_subgroup(G: PermGroup) -> PermGroup:
    """Commutator subgroup: normal closure of the commutators of the generators."""

    def compute() -> PermGroup:
        comms = [commutator(a, b) for a in G.generators for b in G.generators if a != b]
        return normal_closure(G, comms)

    return G.memo(("derived_subgroup",), compute)


def derived_series(G: PermGroup) -> SeriesReport:
    return G.memo(("derived_series",), lambda: _descending_series(G, "derived", derived_subgroup))


def derived_term(G: PermGroup, k: int) -> PermGroup:
    """kth derived subgroup; indices past stabilization return the last term."""
    series = derived_series(G)
    return series.terms[min(k, len(series.terms) - 1)]


def _lower_central_step(G: PermGroup):
    def step(term: PermGroup) -> PermGroup:
        comms = [commutator(x, g) for x in term.generators for g in G.generators]
        return normal_closure(G, comms)

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


def _p_power_part(x: Permutation, p: int) -> Permutation:
    """The p-part of x: a power of x whose order is the p-part of |x|."""
    n = x.order()
    return x ** (n // p_part(n, p))


def sylow_subgroup(G: PermGroup, p: int, cap: int = DEFAULT_ENUM_CAP) -> PermGroup:
    """A Sylow p-subgroup, grown through normalizers.

    Starting from the p-part of some element, the current p-subgroup P is
    enlarged by adjoining a p-element of N_G(P) outside P; such an element
    always exists while |P| is short of the full p-part, and the extension
    stays a p-group because the new element normalizes P.
    """
    _check_prime_divisor(G, p)

    def compute() -> PermGroup:
        target = p_part(G.order(), p)
        seed = next(x for x in G.elements(cap) if x.order() % p == 0)
        P = subgroup_generated(G.degree, [_p_power_part(seed, p)])
        while P.order() < target:
            N = normalizer(G, P, cap)
            for y in N.elements(cap):
                if y.order() % p == 0:
                    z = _p_power_part(y, p)
                    if not P.contains(z):
                        P = subgroup_generated(G.degree, P.generators + (z,))
                        break
            else:
                raise RuntimeError("Sylow growth stalled; normalizer scan found no p-element")
        return P

    return G.memo(("sylow", p), compute)


def p_core(G: PermGroup, p: int, cap: int = DEFAULT_ENUM_CAP) -> PermGroup:
    """O_p(G), the intersection of the conjugates of a Sylow P: the classes of G inside P."""
    _check_prime_divisor(G, p)

    def compute() -> PermGroup:
        P = sylow_subgroup(G, p, cap)
        iv = indexed_view(G, cap)
        labels = iv.class_labels()[0]
        p_idx = {iv.index[x] for x in P.elements(cap)}
        outside = {c for i, c in enumerate(labels) if i not in p_idx}
        return group_from_elements(G.degree, [iv.elements[i] for i in p_idx
                                              if labels[i] not in outside])

    return G.memo(("p_core", p), compute)


def p_prime_core(G: PermGroup, p: int, cap: int = DEFAULT_ENUM_CAP) -> PermGroup:
    """O_{p'}(G): join of the class closures that turn out to be p'-groups.

    Every normal p'-subgroup is a union of p'-classes and a join of normal
    p'-subgroups is again one, so the join below is exactly the p'-core.
    """
    if not is_prime(p):
        raise NotPrimeDivisor(f"{p} is not prime")

    def compute() -> PermGroup:
        gens: list[Permutation] = []
        for cls in conjugacy_classes(G, cap):
            rep = cls.elements[-1]
            if rep.order() % p == 0:
                continue
            closed = subgroup_generated(G.degree, cls.elements)
            if closed.order() % p != 0:
                gens.extend(closed.generators)
        return subgroup_generated(G.degree, gens)

    return G.memo(("p_prime_core", p), compute)


def fitting_subgroup(G: PermGroup, cap: int = DEFAULT_ENUM_CAP) -> PermGroup:
    """F(G): the product of the p-cores over primes dividing |G|."""

    def compute() -> PermGroup:
        gens: list[Permutation] = []
        for p in prime_factors(G.order()):
            gens.extend(p_core(G, p, cap).generators)
        return subgroup_generated(G.degree, gens)

    return G.memo(("fitting",), compute)


# Sylow bases and basis normalizers

@dataclass(frozen=True)
class SylowBasis:
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


def _permutable(P: PermGroup, Q: PermGroup, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """PQ is a subgroup iff PQ == QP as element sets."""
    pe, qe = P.elements(cap), Q.elements(cap)
    return product_set(pe, qe) == product_set(qe, pe)


def _distinct_conjugates(G: PermGroup, P: PermGroup, cap: int) -> list[PermGroup]:
    seen: dict[frozenset, PermGroup] = {}
    base = P.elements(cap)
    for g in G.elements(cap):
        key = frozenset(x.conjugate(g) for x in base)
        if key not in seen:
            seen[key] = group_from_elements(G.degree, key)
    return [seen[k] for k in sorted(seen, key=lambda s: sorted(p.images for p in s))]


def sylow_basis(G: PermGroup, seed: int = 0, cap: int = DEFAULT_ENUM_CAP,
                max_tests: int = 200_000) -> SylowBasis:
    """Find a Sylow basis by backtracking over Sylow conjugates.

    Candidate lists are in canonical order (shuffled reproducibly when seed is
    nonzero), so the same inputs always yield the same basis.  Existence is
    guaranteed for soluble groups; the bounded search raises SearchExhausted
    if the test budget runs out first.
    """
    if not is_soluble(G):
        raise NotSoluble("Sylow bases exist exactly for soluble groups")

    def compute() -> SylowBasis:
        primes = prime_factors(G.order())
        candidates = []
        for p in primes:
            conj = _distinct_conjugates(G, sylow_subgroup(G, p, cap), cap)
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
                if tests > max_tests:
                    raise SearchExhausted(
                        f"no pairwise permutable Sylow family within {max_tests} tests")
                memo[key] = _permutable(candidates[i][a], candidates[j][b], cap)
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
        T = basis_normalizer(G, basis, cap)
        residual = gamma_infinity(G)
        covered = product_set(T.elements(cap), residual.elements(cap))
        if len(covered) != G.order():
            raise RuntimeError("basis normalizer failed the factorization G = T * gamma_inf(G)")
        return SylowBasis(G, basis, T, seed)

    return G.memo(("sylow_basis", seed), compute)


def basis_normalizer(G: PermGroup, basis: dict[int, PermGroup],
                     cap: int = DEFAULT_ENUM_CAP) -> PermGroup:
    """Intersection of the G-normalizers of the basis members."""
    members = set(G.elements(cap))
    for P in basis.values():
        members &= set(normalizer(G, P, cap).elements(cap))
    return group_from_elements(G.degree, members)


def intersect_basis(B: SylowBasis, K: PermGroup, cap: int = DEFAULT_ENUM_CAP) -> SylowBasis:
    """Sylow basis of a normal subgroup K, by intersecting the ambient basis.

    Intersections of a Sylow basis with a normal subgroup always form a basis
    of it; a permutability failure here means an internal bug, reported as
    PermutabilityViolated.  The basis normalizer of K is computed inside K.
    """
    G = B.ambient
    if not is_normal(G, K):
        raise NotNormal("basis intersection requires a normal subgroup")
    new_basis: dict[int, PermGroup] = {}
    for p in prime_factors(K.order()):
        P = B.basis[p]
        inter = set(P.elements(cap)) & set(K.elements(cap))
        Pk = group_from_elements(K.degree, inter)
        if Pk.order() != p_part(K.order(), p):
            raise PermutabilityViolated(
                f"intersection with the normal subgroup is not Sylow at p={p}")
        new_basis[p] = Pk
    for p in new_basis:
        for q in new_basis:
            if p < q and not _permutable(new_basis[p], new_basis[q], cap):
                raise PermutabilityViolated(
                    f"intersected Sylow subgroups for p={p}, q={q} do not permute")
    T = basis_normalizer(K, new_basis, cap)
    return SylowBasis(K, new_basis, T, B.seed)
