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

Every subgroup and subset the five checks meet, the value sets X passed to
the coset checks included, is an index set on G's indexed view: normality
is one pass over the generators' conjugation tables, made once per normal
subgroup and kept on the view, generation is ``IndexedGroup.closure``, the
normal subgroups are closures of unions of conjugacy classes, and the
coprime-action check reads every commutator off table lookups.  G's view
is the only one built, and a PermGroup only wraps an index set, with no
chain built for it.

Inadmissible inputs raise HypothesisNotSatisfied (or a structural error);
holds=False is reserved for genuine counter-evidence, which for proven facts
means an implementation bug.
"""

from __future__ import annotations

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


class LemmaReport(NamedTuple):
    """Outcome of one lemma check on one concrete instance."""

    lemma_id: str
    group_id: str | None
    params: dict
    holds: bool
    witness: dict | None
    checked: int


def normal_subgroups(G: PermGroup) -> list[PermGroup]:
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
        iv = indexed_view(G)
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
                raise NotPElementSet(f"{iv.elements[x]} has order {n}, not a power of {p}")
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


def check_coset_intersection(G: PermGroup, N: PermGroup, p: int, X: frozenset[int]) -> LemmaReport:
    """XN cap PN = (X cap P)N for a normal subset X of p-elements, an index set on G's view.

    Both sides are compared as sets of coset labels; cosets are numbered by
    their minimal elements, so the smallest stray label names the minimal
    stray element.
    """
    _check_prime_divisor(G, p)
    iv = indexed_view(G)
    iv.normal_subgroup_indices(N)
    _check_normal_p_set(G, X, p)

    labels, reps = iv.coset_labels(N)
    p_idx = iv.member_indices(sylow_subgroup(G, p))
    lhs = {labels[i] for i in X} & {labels[i] for i in p_idx}
    rhs = {labels[i] for i in X & p_idx}

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


def check_lifted_generation(G: PermGroup, N: PermGroup, L: PermGroup, p: int,
                            X: frozenset[int]) -> LemmaReport:
    """From generation in G/N, conclude P cap L = <P cap X, P cap N> in G; X is an index set.

    The G/N hypothesis P-bar cap L-bar = <P-bar cap X-bar> is decided on the
    coset labels of N: the label set of a subset of G is its image in G/N, and
    the preimage of <P-bar cap X-bar> is <N, one element per coset in
    P-bar cap X-bar>.  Instances failing it are inadmissible and raise
    HypothesisNotSatisfied rather than producing a verdict.  The parts free
    of L are kept on G per (N, p, X), as the instance generators pair each
    (N, p, X) with every L above N; X is checked when they are first built.
    """
    _check_prime_divisor(G, p)
    iv = indexed_view(G)
    n_idx = iv.normal_subgroup_indices(N)
    l_idx = iv.normal_subgroup_indices(L)
    if not n_idx <= l_idx:
        raise NotNormal("N must be contained in L")
    labels, reps = iv.coset_labels(N)

    def sides() -> tuple[frozenset[int], set[int], set[int], frozenset[int]]:
        """``(P, P-bar, <P-bar cap X-bar>, <(X cup N) cap P>)``, bars as sets of coset labels."""
        _check_normal_p_set(G, X, p)
        p_idx = iv.member_indices(sylow_subgroup(G, p))
        p_bar = {labels[i] for i in p_idx}
        preimage = iv.closure([iv.index[n.images] for n in N.generators]
                              + [reps[c] for c in p_bar & {labels[i] for i in X}])
        return p_idx, p_bar, {labels[i] for i in preimage}, iv.closure((X | n_idx) & p_idx)

    p_idx, p_bar, generated_bar, rhs = G.memo(("lifted_generation_sides", n_idx, p, X), sides)
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


def _invariant_subgroup_family(G: PermGroup) -> list[frozenset[int]]:
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
        iv = indexed_view(G)
        family = set()
        key = iv.index
        for y, table in zip(iv.images, iv.pads):
            powers, p = {iv.identity_index}, y
            while (i := key[p]) not in powers:
                powers.add(i)
                p = p.translate(table)
            family.add(frozenset(powers))
        for M in normal_subgroups(G):
            domain = sorted(iv.member_indices(M))
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
    value x: z*x from the row of x^-1 (``IndexedGroup.times``), so that
    z^x = x^-1 (z*x); [y, x] = (x^-1)^y x, with (x^-1)^y among the
    conjugates of x^-1; and [y, x, x] x^-1 from the row of x.  x normalizes
    N when z^x lies in N's index set for every z in N.
    """
    if not coprime_product_criterion(G, k, "delta").holds:
        raise HypothesisNotSatisfied(
            f"coprime product criterion fails for depth {k}; the action fact does not apply")

    iv = indexed_view(G)
    inv, order_of, e = iv.inverse, iv.order_of, iv.identity_index
    labels = iv.class_labels()[0]
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

def coset_intersection_instances(G: PermGroup,
                                 depths: tuple[int, ...] = (0, 1, 2)) -> Iterator[dict]:
    for p in prime_factors(G.order()):
        for depth in depths:
            X = p_power_value_closure(G, depth, p)
            for N in normal_subgroups(G):
                yield {"N": N, "p": p, "X": X, "depth": depth}


def lifted_generation_instances(G: PermGroup,
                                depths: tuple[int, ...] = (0, 1, 2)) -> Iterator[dict]:
    iv = indexed_view(G)
    normals = [(M, iv.member_indices(M)) for M in normal_subgroups(G)]
    for p in prime_factors(G.order()):
        for depth in depths:
            X = p_power_value_closure(G, depth, p)
            for N, n_idx in normals:
                for L, l_idx in normals:
                    if n_idx <= l_idx:
                        yield {"N": N, "L": L, "p": p, "X": X, "depth": depth}
