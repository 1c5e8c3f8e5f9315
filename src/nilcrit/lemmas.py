"""Machine checks of the supporting subgroup-generation and coprime-action facts.

Five checks, each a conditional verified extensionally on concrete groups:

* coset_intersection — for a normal subgroup N, a Sylow p-subgroup P and a
  normal subset X of p-elements: XN intersected with PN equals (X cap P)N.
* lifted_generation — if P-bar cap L-bar is generated by P-bar cap X-bar in
  G/N, then P cap L is generated by (P cap X) and (P cap N) in G.  No
  quotient group is built: subsets of G/N are sets of coset labels of N, and
  <P-bar cap X-bar> is closed on the labels, cosets multiplied on their
  minimal elements (``IndexedGroup.coset_closure``).
* focal_generation — P cap G^(i) is generated by the depth-i word values
  lying in P (soluble G).
* fitting_membership — in a metanilpotent group, a p-element centralizing
  the p'-part of the Fitting subgroup lies in the Fitting subgroup.
* coprime_action — under the standing coprime-product hypothesis at depth k,
  a depth-k value x acts trivially on every x-invariant subgroup of coprime
  order; the proof's commutator gymnastics are replayed literally.

Every subgroup and subset the five checks meet, the normal subgroups N, L
and the value sets X passed to the coset checks included, is an index set
on G's indexed view: each N, L and X is checked once per set and kept on G
(normality is one pass over the generators' conjugation tables), generation
is ``IndexedGroup.closure``, the normal subgroups are products of class
closures read off coset labels, and the coprime-action check reads every
commutator off table lookups.  G's view is the only one built, and a
PermGroup only wraps an index set, with no chain built for it.

The batch drivers check both coset lemmas with ``coset_lemma_batch``, once
per (p, X): p and X are checked once, each normal subgroup once, and each N
meets every L above it in one call, so the work free of L is done once per
(N, p, X) and each L costs one subset test and two intersections.  The
one-instance checks ``check_coset_intersection`` and
``check_lifted_generation`` run on the same cores.

Inadmissible inputs raise HypothesisNotSatisfied (or a structural error);
holds=False is reserved for genuine counter-evidence, which for proven facts
means an implementation bug.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from typing import Iterator, NamedTuple

from .errors import (
    HypothesisNotSatisfied,
    NotMetanilpotent,
    NotNormal,
    NotPElementSet,
    NotSoluble,
)
from .group import PermGroup
from .indexed import indexed_view
from .primes import p_part, prime_factors
from .criterion import coprime_product_criterion
from .structure import (
    derived_term,
    fitting_subgroup,
    is_metanilpotent,
    is_soluble,
    sylow_subgroup,
    _check_prime_divisor,
    _sylow_indices,
)
from .words import delta_values

# depths of the value sets X the drivers feed the two coset lemmas
COSET_DEPTHS = (0, 1, 2)
QUOTIENT_HYPOTHESIS_FAILS = "quotient-side generation P-bar cap L-bar = <P-bar cap X-bar> fails"


class LemmaReport(NamedTuple):
    """Outcome of one lemma check on one concrete instance."""

    lemma_id: str
    group_id: str | None
    params: dict
    holds: bool
    witness: dict | None
    checked: int


def normal_subgroups(G: PermGroup) -> list[frozenset[int]]:
    """All normal subgroups, as index sets on G's indexed view: products of class closures.

    A normal subgroup is the product of the closures of the conjugacy classes
    it contains, and the join of a normal S with such a closure M is SM, the
    union of the cosets of S that meet M.  G's indices are sorted by S's
    coset labels once per S; every coset has |S| members, so coset c is one
    slice of that list, and each join reads the labels of M and copies only
    the cosets it hits: |M| + |SM| steps, not |G|.  Joining each
    subgroup found, from the trivial one, with each closure outside it
    reaches every normal subgroup: one closure per class, none per join.
    Results are sorted by order, then by sorted index list, which is
    canonical element order.
    """

    def compute() -> tuple[frozenset[int], ...]:
        iv = indexed_view(G)
        closures = {iv.closure(cls) for cls in iv.classes()}
        every = list(iv.index.values())  # 0..|G|-1 as the view's own ints, not fresh copies
        found = {frozenset([iv.identity_index])}
        work = list(found)
        while work:
            S = work.pop()
            labels, n = iv.coset_labels(S)[0], len(S)
            by_coset = sorted(every, key=labels.__getitem__)  # coset c is [c*n, c*n + n)
            for M in closures:
                if not M <= S:
                    joined = frozenset().union(
                        *[by_coset[c * n:c * n + n] for c in {labels[m] for m in M}])
                    if joined not in found:
                        found.add(joined)
                        work.append(joined)
        return tuple(sorted(found, key=lambda S: (len(S), sorted(S))))

    return list(G.memo(("normal_subgroups",), compute))


def _check_normal_subgroup(G: PermGroup, N: frozenset[int]) -> None:
    """Check that the index set N is a normal subgroup of G, once per set.

    A member outside G's view raises NotNormal, then a set that is not its
    own closure, then one not closed under conjugation.  Only successes are
    kept, so a bad N raises the same error on every call.
    """

    def compute() -> bool:
        iv = indexed_view(G)
        if not iv.are_indices(N):
            raise NotNormal("subgroup is not contained in the group")
        members, kept = iv._close(sorted(N))
        if members != N:
            raise NotNormal("subset is not a subgroup of the group")
        iv.require_normal(kept, N)
        return True

    G.memo(("normal_subgroup", N), compute)


def _check_normal_p_set(G: PermGroup, X: frozenset[int], p: int) -> None:
    """Check that the index set X is a normal subset of p-elements of G, once per (p, X).

    A member that is not an index of G's view raises NotNormal, then a member
    that is not a p-element NotPElementSet, then a set that is not
    conjugation-closed NotNormal.  Only successes are kept, so a bad X raises
    the same error on every call.
    """

    def compute() -> bool:
        iv = indexed_view(G)
        if not iv.are_indices(X):
            raise NotNormal("subset is not contained in the group")
        for x in X:
            n = iv.order_of[x]
            if p_part(n, p) != n:
                raise NotPElementSet(f"{iv.element(x)} has order {n}, not a power of {p}")
        iv.require_normal(X, X)
        return True

    G.memo(("normal_p_set", p, X), compute)


def p_power_value_closure(G: PermGroup, depth: int, p: int) -> frozenset[int]:
    """The p-power-order depth-i word values, a normal subset of G, as an index set.

    This is the canonical X fed to the coset lemmas.  Value sets are normal
    subsets and conjugation preserves order, so their p-elements form a
    normal subset too; they are sliced out by order with no further closure.
    Kept on G per (depth, p): both instance generators share one X object.
    """

    def compute() -> frozenset[int]:
        order_of = indexed_view(G).order_of
        return frozenset(i for i in delta_values(G, depth).indices
                         if p_part(n := order_of[i], p) == n)

    return G.memo(("p_power_values", depth, p), compute)


def check_coset_intersection(G: PermGroup, N: frozenset[int], p: int, X: frozenset[int]) -> LemmaReport:
    """XN cap PN = (X cap P)N for a normal subset X of p-elements; N and X are index sets.

    Both sides are compared as sets of coset labels; cosets are numbered by
    their minimal elements, so the smallest stray label names the minimal
    stray element.
    """
    _check_prime_divisor(G, p)
    _check_normal_subgroup(G, N)
    _check_normal_p_set(G, X, p)
    return _coset_report(G, N, p, X)


def _coset_report(G: PermGroup, N: frozenset[int], p: int, X: frozenset[int]) -> LemmaReport:
    """``check_coset_intersection`` on checked inputs: its core, shared with ``coset_lemma_batch``."""
    iv = indexed_view(G)
    labels, reps = iv.coset_labels(N)
    p_idx = iv.member_indices(sylow_subgroup(G, p))
    lhs = {labels[i] for i in X} & {labels[i] for i in p_idx}
    rhs = {labels[i] for i in X & p_idx}

    holds = lhs == rhs
    witness = None
    if not holds:
        stray = min(lhs ^ rhs)
        witness = {"element": iv.element(reps[stray]),
                   "in_lhs": stray in lhs, "in_rhs": stray in rhs}
    return LemmaReport(
        "coset_intersection", G.name,
        {"p": p, "N_order": len(N), "X_size": len(X)},
        holds, witness, checked=len(N) * (len(lhs) + len(rhs)))


def check_lifted_generation(G: PermGroup, N: frozenset[int], L: frozenset[int], p: int,
                            X: frozenset[int]) -> LemmaReport:
    """From generation in G/N, conclude P cap L = <P cap X, P cap N> in G; N, L, X are index sets.

    The G/N hypothesis P-bar cap L-bar = <P-bar cap X-bar> is decided on the
    coset labels of N: the label set of a subset of G is its image in G/N,
    and <P-bar cap X-bar> is closed on the labels themselves.  Instances
    failing it are inadmissible and raise HypothesisNotSatisfied rather than
    producing a verdict.
    """
    _check_prime_divisor(G, p)
    _check_normal_subgroup(G, N)
    _check_normal_subgroup(G, L)
    if not N <= L:
        raise NotNormal("N must be contained in L")
    _check_normal_p_set(G, X, p)
    (report,) = _lifted_reports(G, N, p, X, [L])
    if report is None:
        raise HypothesisNotSatisfied(QUOTIENT_HYPOTHESIS_FAILS)
    return report


def _lifted_reports(G: PermGroup, N: frozenset[int], p: int, X: frozenset[int],
                    uppers: list[frozenset[int]]) -> list[LemmaReport | None]:
    """``check_lifted_generation`` at each L in uppers, on checked inputs; None where inadmissible.

    The core of the check, shared with ``coset_lemma_batch``.  The parts
    free of L are built once per (N, p, X) and kept on G: P's index set,
    the minimal elements of the cosets in P-bar and in <P-bar cap X-bar>,
    and <(X cup N) cap P>.  L is a union of N's cosets, so the minima of
    P-bar cap L-bar are those of P-bar that lie in L: each L costs one
    intersection for the G/N hypothesis and, when it holds, one for P cap L.
    """

    def sides() -> tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]:
        iv = indexed_view(G)
        labels, reps = iv.coset_labels(N)
        p_idx = iv.member_indices(sylow_subgroup(G, p))
        p_bar = {labels[i] for i in p_idx}
        generated = iv.coset_closure(N, p_bar & {labels[i] for i in X})
        return (p_idx, frozenset([reps[c] for c in p_bar]), frozenset([reps[c] for c in generated]),
                iv.closure((X | N) & p_idx))

    p_idx, p_bar_reps, generated_reps, rhs = G.memo(("lifted_generation_sides", N, p, X), sides)
    reports: list[LemmaReport | None] = []
    for L in uppers:
        if p_bar_reps & L != generated_reps:
            reports.append(None)
            continue
        lhs = p_idx & L
        holds = lhs == rhs
        witness = None
        if not holds:
            stray = min(lhs ^ rhs)
            witness = {"element": indexed_view(G).element(stray),
                       "in_lhs": stray in lhs, "in_rhs": stray in rhs}
        reports.append(LemmaReport(
            "lifted_generation", G.name,
            {"p": p, "N_order": len(N), "L_order": len(L), "X_size": len(X)},
            holds, witness, checked=len(lhs) + len(rhs)))
    return reports


def _normal_pairs(G: PermGroup) -> tuple[tuple[frozenset[int], list[frozenset[int]]], ...]:
    """Each normal subgroup N with the normal subgroups L containing it, in lattice order.

    An L above N has |L| >= |N|, so it comes no earlier than N in the order
    of ``normal_subgroups``, and only those are tested.  Kept on G.
    """

    def compute() -> tuple[tuple[frozenset[int], list[frozenset[int]]], ...]:
        normals = normal_subgroups(G)
        return tuple((N, [L for L in normals[i:] if N <= L]) for i, N in enumerate(normals))

    return G.memo(("normal_pairs",), compute)


class CosetBatch(NamedTuple):
    """Both coset lemmas at one (p, X): every normal N, and every normal L above N.

    ``coset`` holds one report per N, ``lifted`` one ``(N, L, report)`` per
    pair, report None where the G/N hypothesis fails; N and L run in the
    order of ``normal_subgroups``.
    """

    coset: list[LemmaReport]
    lifted: list[tuple[frozenset[int], frozenset[int], LemmaReport | None]]


def coset_lemma_batch(G: PermGroup, p: int, X: frozenset[int]) -> CosetBatch:
    """Both coset checks at (p, X) over the lattice, each input checked once per batch.

    p and X are checked once, each normal subgroup once, and each N meets
    all the L above it in one call of the lifted-generation core, so the
    work free of L is done once per (N, p, X).  The reports are those of
    ``check_coset_intersection`` and ``check_lifted_generation``.
    """
    _check_prime_divisor(G, p)
    _check_normal_p_set(G, X, p)
    pairs = _normal_pairs(G)
    for N, _ in pairs:
        _check_normal_subgroup(G, N)
    coset, lifted = [], []
    for N, uppers in pairs:
        coset.append(_coset_report(G, N, p, X))
        lifted += zip(repeat(N), uppers, _lifted_reports(G, N, p, X, uppers))
    return CosetBatch(coset, lifted)


def check_focal_generation(G: PermGroup, depth: int, p: int) -> LemmaReport:
    """P cap G^(depth) is generated by the depth-k values lying in P.

    Both sides are index sets on G's indexed view: the closure of P's index
    set cut with the value indices, against P's cut with G^(depth)'s.
    """
    if not is_soluble(G):
        raise NotSoluble("focal generation is checked on soluble groups")
    _check_prime_divisor(G, p)

    P = sylow_subgroup(G, p)
    iv = indexed_view(G)
    p_idx = iv.member_indices(P)
    inside = p_idx & delta_values(G, depth).indices
    generated = iv.closure(inside)
    target = p_idx & iv.member_indices(derived_term(G, depth))

    holds = generated == target
    witness = None
    if not holds:
        witness = {"generated_order": len(generated), "target_order": len(target)}
    return LemmaReport(
        "focal_generation", G.name,
        {"p": p, "depth": depth, "values_in_P": len(inside)},
        holds, witness, checked=len(inside))


def check_fitting_membership(G: PermGroup, p: int) -> LemmaReport:
    """p-elements centralizing the p'-part of the Fitting subgroup lie inside it.

    F is nilpotent, so its p'-core is its set of p'-elements.  A p-element x,
    in index order, centralizes the core when o^x = o for each generator o,
    one lookup in o's conjugates; F-membership is a lookup in F's index set.
    """
    if not is_metanilpotent(G):
        raise NotMetanilpotent("the membership fact assumes a metanilpotent group")
    _check_prime_divisor(G, p)

    F = fitting_subgroup(G)
    iv = indexed_view(G)
    f_idx = iv.member_indices(F)
    core, kept = iv._close(sorted(i for i in f_idx if iv.order_of[i] % p))
    core_conj = [(o, iv.conjugates(o)) for o in kept]
    qualifying = 0
    witness = None
    for x, n in enumerate(iv.order_of):
        if p_part(n, p) != n:
            continue
        if not all(conj[x] == o for o, conj in core_conj):
            continue
        qualifying += 1
        if x not in f_idx:
            witness = {"element": iv.element(x), "order": n, "fitting_order": F.order()}
            break
    return LemmaReport(
        "fitting_membership", G.name,
        {"p": p, "fitting_order": F.order(), "core_order": len(core)},
        witness is None, witness, checked=qualifying)


def _invariant_subgroup_family(G: PermGroup) -> list[frozenset[int]]:
    """Subgroups tested for coprime action, as index sets on G's indexed view.

    The family is every cyclic subgroup, the Sylow subgroups of every
    normal subgroup and the p'-cores of the Fitting subgroup; the full
    subgroup lattice would explode, and this family covers every subgroup
    the coprime-action argument is ever applied to.  <y> is the closure of
    y, its powers, made once per cyclic subgroup: its generators, the
    members of y's order, are skipped by the scan.  A Sylow subgroup of M
    grows on M's index list, and the p'-core of the nilpotent F is its set
    of p'-elements.  Members are ordered by size, then by sorted index list.
    """

    def compute() -> tuple[frozenset[int], ...]:
        iv = indexed_view(G)
        order_of, family, generators = iv.order_of, set(), set()
        for y in range(iv.size):
            if y not in generators:
                cyclic = iv.closure([y])
                family.add(cyclic)
                generators.update(z for z in cyclic if order_of[z] == order_of[y])
        for M in normal_subgroups(G):
            domain = sorted(M)
            family.update(_sylow_indices(iv, q, domain)[0] for q in prime_factors(len(domain)))
        f_idx = iv.member_indices(fitting_subgroup(G))
        family.update(frozenset(i for i in f_idx if iv.order_of[i] % q)
                      for q in prime_factors(G.order()))
        return tuple(sorted(family, key=lambda S: (len(S), sorted(S))))

    return list(G.memo(("invariant_family",), compute))


def check_coprime_action(G: PermGroup, k: int) -> LemmaReport:
    """Depth-k values act trivially on invariant subgroups of coprime order.

    Standing hypothesis: the coprime product criterion holds for (G, k);
    otherwise the instance is inadmissible.  For every qualifying pair the
    proof's steps are replayed: the double commutator [y, x, x] is itself a
    depth-k value of order coprime to |x|, the product [y, x, x] x^-1 is
    conjugate to x^-1 (the two share a class label on G's indexed view),
    hence [y, x, x] = 1, and finally [N, x] = 1.

    Every product is a lookup on G's indexed view, in maps built once per
    value x: z*x and z*x^-1 (``IndexedGroup.times``), and the conjugates of
    x^-1, so that [y, x] = (x^-1)^y x.  x normalizes N when z^x = x^-1 (z*x),
    one product on x^-1's image bytes, lies in N's index set for every z in N.
    """
    if not coprime_product_criterion(G, k, "delta").holds:
        raise HypothesisNotSatisfied(
            f"coprime product criterion fails for depth {k}; the action fact does not apply")

    iv = indexed_view(G)
    inv, order_of, e = iv.inverse, iv.order_of, iv.identity_index
    key, pads, labels = iv.index, iv.pads, iv.class_labels()[0]
    values = delta_values(G, k).indices
    value_list = sorted(values)
    family = _invariant_subgroup_family(G)
    maps: dict[int, tuple[list[int], ...]] = {}  # per value x, built once
    pairs = 0

    def failures() -> Iterator[dict]:
        """Witnesses of failed steps; the caller stops at the first."""
        nonlocal pairs
        for N in family:
            members = sorted(N)
            for x in value_list:
                if gcd(len(N), order_of[x]) != 1:
                    continue
                if x not in maps:
                    maps[x] = iv.times(x), iv.times(inv[x]), iv.conjugates(inv[x]), iv.images[inv[x]]
                times_x, times_x_inv, conj_x_inv, inv_x = maps[x]
                if any(key[inv_x.translate(pads[times_x[z]])] not in N for z in members):
                    continue
                pairs += 1
                for y in members:
                    comm = times_x[conj_x_inv[y]]
                    double = times_x[conj_x_inv[comm]]
                    if double not in values:
                        fail = "double commutator left the value set"
                    elif gcd(order_of[double], order_of[x]) != 1:
                        fail = "double commutator order not coprime to |x|"
                    elif labels[times_x_inv[double]] != labels[inv[x]]:
                        fail = "product is not conjugate to x^-1"
                    elif double != e:
                        fail = "double commutator is not trivial"
                    elif comm != e:
                        fail = "x does not centralize N"
                    else:
                        continue
                    yield {"N_order": len(N), "x": iv.element(x), "y": iv.element(y),
                           "failure": fail}

    witness = next(failures(), None)
    return LemmaReport(
        "coprime_action", G.name,
        {"k": k, "family_size": len(family), "value_count": len(value_list)},
        witness is None, witness, checked=pairs)

