"""Machine checks of the supporting subgroup-generation and coprime-action facts.

Five checks, each a conditional verified extensionally on concrete groups:

* coset_intersection — for a normal subgroup N, a Sylow p-subgroup P and a
  normal subset X of p-elements: XN intersected with PN equals (X cap P)N.
* lifted_generation — if P-bar cap L-bar is generated by P-bar cap X-bar in
  G/N, then P cap L is generated by (P cap X) and (P cap N) in G.  No
  quotient group is built: subsets of G/N are sets of coset labels of N, and
  <P-bar cap X-bar> is read off its preimage <N, one element per coset>.
* focal_generation — P cap G^(i) is generated by the depth-i word values
  lying in P (soluble G).
* fitting_membership — in a metanilpotent group, a p-element centralizing
  the p'-part of the Fitting subgroup lies in the Fitting subgroup.
* coprime_action — under the standing coprime-product hypothesis at depth k,
  a depth-k value x acts trivially on every x-invariant subgroup of coprime
  order; the proof's commutator gymnastics are replayed literally.

Every subgroup and subset the five checks meet is an index set on G's
indexed view: normality is one pass over the generators' conjugation
tables, made once per normal subgroup and kept on the view, generation is
``IndexedGroup.closure``, the normal subgroups are closures of unions of
conjugacy classes, and the coprime-action check reads every commutator off
table lookups.  G's view is the only one built, and a PermGroup only wraps
an index set, with no chain built for it.

Inadmissible inputs raise HypothesisNotSatisfied (or a structural error);
holds=False is reserved for genuine counter-evidence, which for proven facts
means an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

from .errors import (
    HypothesisNotSatisfied,
    NotMetanilpotent,
    NotNormal,
    NotPElementSet,
    NotSoluble,
)
from .group import DEFAULT_ENUM_CAP, ElementSet, PermGroup
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


@dataclass
class LemmaReport:
    """Outcome of one lemma check on one concrete instance."""

    lemma_id: str
    group_id: str | None
    params: dict
    holds: bool
    witness: dict | None
    checked: int


def normal_subgroups(G: PermGroup, cap: int = DEFAULT_ENUM_CAP) -> list[PermGroup]:
    """All normal subgroups, as closures of class unions on G's indexed view.

    A normal subgroup is generated by the conjugacy classes it contains, and
    the closure of a union of classes is normal.  So joining each subgroup
    found, starting from the trivial one, with each class outside it, as the
    closure of their union, reaches every normal subgroup.  Results are
    sorted by order, then by element list, which is the sorted index list
    since index order is canonical element order; each result wraps its
    index list.
    """

    def compute() -> tuple[PermGroup, ...]:
        iv = indexed_view(G, cap)
        classes = iv.classes()
        found = {frozenset([iv.identity_index])}
        work = list(found)
        while work:
            S = work.pop()
            for cls in classes:
                if cls[0] not in S:
                    # S first, in index order: its kept seeds, and so the rows
                    # fetched, are the same in each of its joins
                    joined = iv.closure(sorted(S) + cls)
                    if joined not in found:
                        found.add(joined)
                        work.append(joined)
        ordered = sorted((sorted(S) for S in found), key=lambda S: (len(S), S))
        return tuple(iv.subgroup(S) for S in ordered)

    return list(G.memo(("normal_subgroups",), compute))


def _p_element_normal_indices(G: PermGroup, X: ElementSet, p: int, cap: int) -> frozenset[int]:
    """Indices of X on G's indexed view, once X is checked to be a normal set of p-elements.

    A member outside G raises NotNormal, then a member that is not a
    p-element NotPElementSet, then a set that is not conjugation-closed
    NotNormal.  The instance generators pass one X per (depth, p) to every
    (N, L), so a checked X is kept on G, keyed by p and the identity of X
    (held alongside, so the key cannot be reused; X is immutable).  Only
    successes are kept, so a bad X raises the same error on every call.
    """
    checked = G._cache.setdefault(("p_element_sets",), {})
    hit = checked.get((p, id(X)))
    if hit is not None:
        return hit[1]
    iv = indexed_view(G, cap)
    if all(x.images in iv.index for x in X):  # else normal_indices raises NotNormal
        for x in X:
            n = iv.order_of[iv.index[x.images]]
            if p_part(n, p) != n:
                raise NotPElementSet(f"{x} has order {n}, not a power of {p}")
    members = frozenset(iv.normal_indices(X))
    checked[(p, id(X))] = (X, members)
    return members


def p_power_value_closure(G: PermGroup, depth: int, p: int,
                          cap: int = DEFAULT_ENUM_CAP) -> ElementSet:
    """The p-power-order depth-i word values, a normal subset of G.

    This is the canonical X fed to the coset lemmas.  Value sets are normal
    subsets and conjugation preserves order, so their p-elements form a
    normal subset too; they are sliced out by order with no further closure.
    """
    iv = indexed_view(G, cap)
    members = tuple(x for x in delta_values(G, depth, cap).values
                    if p_part(n := iv.order_of[iv.index[x.images]], p) == n)
    return ElementSet(G.degree, members, conj_closed=True)


def check_coset_intersection(G: PermGroup, N: PermGroup, p: int, X: ElementSet,
                             cap: int = DEFAULT_ENUM_CAP) -> LemmaReport:
    """XN cap PN = (X cap P)N for a normal subset X of p-elements.

    Both sides are compared as sets of coset labels; cosets are numbered by
    their minimal elements, so the smallest stray label names the minimal
    stray element.
    """
    _check_prime_divisor(G, p)
    iv = indexed_view(G, cap)
    iv.normal_subgroup_indices(N, cap)
    x_idx = _p_element_normal_indices(G, X, p, cap)

    P = sylow_subgroup(G, p, cap)
    labels, reps = iv.coset_labels(N)
    p_idx = iv.member_indices(P, cap)
    lhs = {labels[i] for i in x_idx} & {labels[i] for i in p_idx}
    rhs = {labels[i] for i in x_idx & p_idx}

    holds = lhs == rhs
    witness = None
    if not holds:
        stray = min(lhs ^ rhs)
        witness = {"element": iv.elements[reps[stray]],
                   "in_lhs": stray in lhs, "in_rhs": stray in rhs}
    return LemmaReport(
        "coset_intersection", G.name,
        {"p": p, "N_order": N.order(), "X_size": len(X)},
        holds, witness, checked=N.order() * (len(lhs) + len(rhs)))


def _lifted_generation_sides(G: PermGroup, N: PermGroup, n_idx: frozenset[int], p: int,
                             X: ElementSet, cap: int
                             ) -> tuple[set[int], set[int], set[int], frozenset[int]]:
    """``(P, P-bar, <P-bar cap X-bar>, <(X cup N) cap P>)``: the lifted check's parts free of L.

    P and the last are index sets on G's view.  P-bar and the generated
    subgroup are sets of coset labels of N, the generated subgroup read off
    its preimage <N, one element per coset of P-bar cap X-bar>.  The
    instance generators pair each (N, p, X) with every L above N, so these
    are kept on G, keyed by N's index set, p and the identity of X (held
    alongside, so the key cannot be reused).  X is checked on a miss.
    """
    kept = G._cache.setdefault(("lifted_generation_sides",), {})
    hit = kept.get((n_idx, p, id(X)))
    if hit is not None:
        return hit[1]
    x_idx = _p_element_normal_indices(G, X, p, cap)
    iv = indexed_view(G, cap)
    labels, reps = iv.coset_labels(N)
    p_idx = iv.member_indices(sylow_subgroup(G, p, cap), cap)
    p_bar = {labels[i] for i in p_idx}
    gen_bar = p_bar & {labels[i] for i in x_idx}
    preimage = iv.closure([iv.index[n.images] for n in N.generators] + [reps[c] for c in gen_bar])
    sides = p_idx, p_bar, {labels[i] for i in preimage}, iv.closure((x_idx | n_idx) & p_idx)
    kept[(n_idx, p, id(X))] = (X, sides)
    return sides


def check_lifted_generation(G: PermGroup, N: PermGroup, L: PermGroup, p: int,
                            X: ElementSet, cap: int = DEFAULT_ENUM_CAP) -> LemmaReport:
    """From generation in G/N, conclude P cap L = <P cap X, P cap N> in G.

    The G/N hypothesis P-bar cap L-bar = <P-bar cap X-bar> is decided on the
    coset labels of N: the label set of a subset of G is its image in G/N, and
    the preimage of <P-bar cap X-bar> is <N, one element per coset in
    P-bar cap X-bar>.  Instances failing it are inadmissible and raise
    HypothesisNotSatisfied rather than producing a verdict.
    """
    _check_prime_divisor(G, p)
    iv = indexed_view(G, cap)
    n_idx = iv.normal_subgroup_indices(N, cap)
    l_idx = iv.normal_subgroup_indices(L, cap)
    if not n_idx <= l_idx:
        raise NotNormal("N must be contained in L")
    p_idx, p_bar, generated_bar, rhs = _lifted_generation_sides(G, N, n_idx, p, X, cap)
    labels = iv.coset_labels(N)[0]
    if generated_bar != p_bar & {labels[i] for i in l_idx}:
        raise HypothesisNotSatisfied(
            "quotient-side generation P-bar cap L-bar = <P-bar cap X-bar> fails")

    lhs = p_idx & l_idx
    holds = lhs == rhs
    witness = None
    if not holds:
        stray = min(lhs ^ rhs)
        witness = {"element": iv.elements[stray], "in_lhs": stray in lhs, "in_rhs": stray in rhs}
    return LemmaReport(
        "lifted_generation", G.name,
        {"p": p, "N_order": N.order(), "L_order": L.order(), "X_size": len(X)},
        holds, witness, checked=len(lhs) + len(rhs))


def check_focal_generation(G: PermGroup, depth: int, p: int,
                           cap: int = DEFAULT_ENUM_CAP) -> LemmaReport:
    """P cap G^(depth) is generated by the depth-k values lying in P.

    Both sides are index sets on G's indexed view: the closure of P's index
    set cut with the value indices, against P's cut with G^(depth)'s.
    """
    if not is_soluble(G):
        raise NotSoluble("focal generation is checked on soluble groups")
    _check_prime_divisor(G, p)

    P = sylow_subgroup(G, p, cap)
    iv = indexed_view(G, cap)
    p_idx = iv.member_indices(P, cap)
    inside = p_idx & {iv.index[v.images] for v in delta_values(G, depth, cap).values}
    generated = iv.closure(inside)
    target = p_idx & iv.member_indices(derived_term(G, depth), cap)

    holds = generated == target
    witness = None
    if not holds:
        witness = {"generated_order": len(generated), "target_order": len(target)}
    return LemmaReport(
        "focal_generation", G.name,
        {"p": p, "depth": depth, "values_in_P": len(inside)},
        holds, witness, checked=len(inside))


def check_fitting_membership(G: PermGroup, p: int,
                             cap: int = DEFAULT_ENUM_CAP) -> LemmaReport:
    """p-elements centralizing the p'-part of the Fitting subgroup lie inside it.

    F is nilpotent, so its p'-core is its set of p'-elements.  A p-element x,
    in index order, centralizes the core when o^x = o for each generator o,
    one lookup in o's conjugates; F-membership is a lookup in F's index set.
    """
    if not is_metanilpotent(G):
        raise NotMetanilpotent("the membership fact assumes a metanilpotent group")
    _check_prime_divisor(G, p)

    F = fitting_subgroup(G, cap)
    iv = indexed_view(G, cap)
    f_idx = iv.member_indices(F, cap)
    core = iv.subgroup(sorted(i for i in f_idx if iv.order_of[i] % p))
    core_conj = [(iv.index[o.images], iv.conjugates(iv.index[o.images])) for o in core.generators]
    qualifying = 0
    witness = None
    for x, n in enumerate(iv.order_of):
        if p_part(n, p) != n:
            continue
        if not all(conj[x] == o for o, conj in core_conj):
            continue
        qualifying += 1
        if x not in f_idx:
            witness = {"element": iv.elements[x], "order": n, "fitting_order": F.order()}
            break
    return LemmaReport(
        "fitting_membership", G.name,
        {"p": p, "fitting_order": F.order(), "core_order": core.order()},
        witness is None, witness, checked=qualifying)


def _invariant_subgroup_family(G: PermGroup, cap: int) -> list[frozenset[int]]:
    """Subgroups tested for coprime action, as index sets on G's indexed view.

    The family is every cyclic subgroup, the Sylow subgroups of every
    normal subgroup and the p'-cores of the Fitting subgroup; the full
    subgroup lattice would explode, and this family covers every subgroup
    the coprime-action argument is ever applied to.  <y> is the power orbit
    of y, |y| products; a Sylow subgroup of M grows on M's index list, and
    the p'-core of the nilpotent F is its set of p'-elements.  Members are
    ordered by size, then by sorted index list.
    """

    def compute() -> tuple[frozenset[int], ...]:
        iv = indexed_view(G, cap)
        family = set()
        key = iv.index
        for y, table in zip(iv.images, iv.pads):
            powers, p = {iv.identity_index}, y
            while (i := key[p]) not in powers:
                powers.add(i)
                p = p.translate(table)
            family.add(frozenset(powers))
        for M in normal_subgroups(G, cap):
            domain = sorted(iv.member_indices(M, cap))
            family.update(_sylow_indices(iv, q, domain)[0] for q in prime_factors(len(domain)))
        f_idx = iv.member_indices(fitting_subgroup(G, cap), cap)
        family.update(frozenset(i for i in f_idx if iv.order_of[i] % q)
                      for q in prime_factors(G.order()))
        return tuple(sorted(family, key=lambda S: (len(S), sorted(S))))

    return list(G.memo(("invariant_family",), compute))


def check_coprime_action(G: PermGroup, k: int, cap: int = DEFAULT_ENUM_CAP) -> LemmaReport:
    """Depth-k values act trivially on invariant subgroups of coprime order.

    Standing hypothesis: the coprime product criterion holds for (G, k);
    otherwise the instance is inadmissible.  For every qualifying pair the
    proof's steps are replayed: the double commutator [y, x, x] is itself a
    depth-k value of order coprime to |x|, the product [y, x, x] x^-1 is
    conjugate to x^-1 (the two share a class label on G's indexed view),
    hence [y, x, x] = 1, and finally [N, x] = 1.

    Every product is a lookup on G's indexed view, in maps built once per
    value x: z*x from the row of x^-1 (``IndexedGroup.times``), so that
    z^x = x^-1 (z*x); [y, x] = (x^-1)^y x, with (x^-1)^y among the
    conjugates of x^-1; and [y, x, x] x^-1 from the row of x.  x normalizes
    N when z^x lies in N's index set for every z in N.
    """
    if not coprime_product_criterion(G, k, "delta", cap).holds:
        raise HypothesisNotSatisfied(
            f"coprime product criterion fails for depth {k}; the action fact does not apply")

    iv = indexed_view(G, cap)
    inv, order_of, e = iv.inverse, iv.order_of, iv.identity_index
    labels = iv.class_labels()[0]
    value_list = [iv.index[v.images] for v in delta_values(G, k, cap).values]
    values = set(value_list)
    family = _invariant_subgroup_family(G, cap)
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
                    maps[x] = iv.row(inv[x]), iv.times(x), iv.times(inv[x]), iv.conjugates(inv[x])
                row_x_inv, times_x, times_x_inv, conj_x_inv = maps[x]
                if any(row_x_inv[times_x[z]] not in N for z in members):
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
                    yield {"N_order": len(N), "x": iv.elements[x], "y": iv.elements[y],
                           "failure": fail}

    witness = next(failures(), None)
    return LemmaReport(
        "coprime_action", G.name,
        {"k": k, "family_size": len(family), "value_count": len(value_list)},
        witness is None, witness, checked=pairs)


# instance generators for batch drivers

def coset_intersection_instances(G: PermGroup, depths: tuple[int, ...] = (0, 1, 2),
                                 cap: int = DEFAULT_ENUM_CAP) -> Iterator[dict]:
    for p in prime_factors(G.order()):
        for depth in depths:
            X = p_power_value_closure(G, depth, p, cap)
            for N in normal_subgroups(G, cap):
                yield {"N": N, "p": p, "X": X, "depth": depth}


def lifted_generation_instances(G: PermGroup, depths: tuple[int, ...] = (0, 1, 2),
                                cap: int = DEFAULT_ENUM_CAP) -> Iterator[dict]:
    iv = indexed_view(G, cap)
    normals = [(M, iv.member_indices(M, cap)) for M in normal_subgroups(G, cap)]
    for p in prime_factors(G.order()):
        for depth in depths:
            X = p_power_value_closure(G, depth, p, cap)
            for N, n_idx in normals:
                for L, l_idx in normals:
                    if n_idx <= l_idx:
                        yield {"N": N, "L": L, "p": p, "X": X, "depth": depth}
