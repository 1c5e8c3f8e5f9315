"""Iterated-commutator word values and commutator-closed generating sets.

The depth-k derived word takes 2^k arguments and nests commutators over the
two argument halves; its value set is computed level by level as commutators
of the previous level, which agrees with the literal tuple evaluation because
the argument blocks are independent.  A tuple brute-force evaluator is kept
purely as a testing oracle.

Every level is a normal subset of G, since [a, b]^g = [a^g, b^g].  So a level
is computed from class representatives only: with L the current level and B
the normal subset the second argument ranges over (L for the derived word, G
for the left-normed one), the next level is the union of the conjugacy
classes of the commutators [r, b] = r^-1 * r^b, r a class representative in
L and b in B.  This is the whole level because [r^h, b] = [r, b^(h^-1)]^h
and b^(h^-1) lies in B again.  Each representative costs one pass over G's
spanning tree and one product r^-1 * y per distinct conjugate y = r^b, so a
level costs at most |L| products instead of the |L| |B| of all pairs.

Also here: the tower construction that writes a soluble group as a product of
nilpotent system normalizers and extracts from it a commutator-closed
generating set of prime-power-order elements.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    NotCommutatorClosed,
    NotGenerating,
    NotSoluble,
    OrderCapExceeded,
)
from .group import DEFAULT_ENUM_CAP, ElementSet, PermGroup, subgroup_generated
from .indexed import IndexedGroup, indexed_view
from .perm import Permutation, commutator
from .primes import is_prime_power
from .structure import (
    derived_subgroup,
    gamma_infinity,
    intersect_basis,
    is_soluble,
    lower_fitting_series,
    product_order,
    sylow_basis,
)

_TUPLE_BUDGET = 50_000_000


@dataclass(frozen=True)
class DeltaValueSet:
    """The set of depth-k word values of a group.

    kind is "delta" (derived word, 2^k arguments) or "gamma" (left-normed
    word, k arguments).  ``indices`` is the value set on G's indexed view and
    ``values`` the same set as Permutations, in the same (canonical) order.
    ``stabilized`` is set when the requested depth lies at or past the point
    where the level sets stop shrinking, in which case the stable set is
    returned rather than an error.
    """

    kind: str
    k: int
    values: ElementSet
    indices: frozenset[int]
    stabilized: bool

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, p: Permutation) -> bool:
        return p in self.values


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


def _value_levels(G: PermGroup, kind: str, upto: int, cap: int) -> tuple[list[frozenset[int]], int | None]:
    """Index-level value sets, computed incrementally and cached on the group.

    Returns (levels, stable_at).  levels[i] holds the values of depth i for
    "delta" and of depth i+1 for "gamma"; stable_at is the first index whose
    set equals its successor, or None while undetected.  Each next level is
    the union of the classes of [r, b], r a class representative of the
    current level and b in B (the current level for "delta", G for "gamma").
    """
    iv = indexed_view(G, cap)
    state = G._cache.setdefault(("word_levels", kind),
                                {"levels": [frozenset(range(iv.size))], "stable_at": None})
    levels: list[frozenset[int]] = state["levels"]
    labels, reps = iv.class_labels()
    key, pads = iv.index, iv.pads
    while state["stable_at"] is None and len(levels) <= upto:
        prev = levels[-1]
        second = prev if kind == "delta" else range(iv.size)
        hit = set()
        for c in {labels[a] for a in prev}:
            r = reps[c]
            conj_r = iv.conjugates(r)
            inv_r = iv.images[iv.inverse[r]]
            # [r, b] = r^-1 * r^b, one product per distinct conjugate r^b
            hit.update(labels[key[inv_r.translate(pads[y])]]
                       for y in {conj_r[b] for b in second})
        nxt = frozenset(x for x in range(iv.size) if labels[x] in hit)
        if nxt == prev:
            state["stable_at"] = len(levels) - 1
            break
        levels.append(nxt)
    return levels, state["stable_at"]


def _level_at(levels: list[frozenset[int]], stable_at: int | None, i: int) -> tuple[frozenset[int], bool]:
    if i < len(levels):
        return levels[i], stable_at is not None and i >= stable_at
    return levels[-1], True


def _element_set(iv: IndexedGroup, idxs: Iterable[int]) -> ElementSet:
    # index order is canonical element order, so the sorted indices give a sorted set
    return ElementSet(iv.group.degree, tuple(iv.perms(sorted(idxs))))


def _value_set(iv: IndexedGroup, kind: str, k: int, idxs: frozenset[int],
               stabilized: bool) -> DeltaValueSet:
    return DeltaValueSet(kind, k, _element_set(iv, idxs), idxs, stabilized)


def delta_values(G: PermGroup, k: int, cap: int = DEFAULT_ENUM_CAP) -> DeltaValueSet:
    """Values of the depth-k derived word, level by level from class representatives.

    The depth-(i+1) values are the union of the classes of [r, b], r a class
    representative of the depth-i values and b a depth-i value.  Value sets
    are normal subsets and [r^h, b] = [r, b^(h^-1)]^h with b^(h^-1) again a
    depth-i value, so these classes hold every [a, b] with a, b of depth i.
    """
    if k < 0:
        raise ValueError("depth must be nonnegative")
    # one level past k, so that stabilization at k is detected
    levels, stable_at = _value_levels(G, "delta", k + 1, cap)
    idxs, stabilized = _level_at(levels, stable_at, k)
    return _value_set(indexed_view(G, cap), "delta", k, idxs, stabilized)


def gamma_values(G: PermGroup, k: int, cap: int = DEFAULT_ENUM_CAP) -> DeltaValueSet:
    """Values of the left-normed word of k arguments (depth k of the lower central chain).

    The values of i+1 arguments are the union of the classes of [r, g], r a
    class representative of the values of i arguments and g in G.  Since
    [r^h, g] = [r, g^(h^-1)]^h, these classes hold every [c, g] with c a
    value of i arguments.
    """
    if k < 1:
        raise ValueError("the left-normed word is indexed from 1")
    # one level past k, so that stabilization at k is detected
    levels, stable_at = _value_levels(G, "gamma", k, cap)
    idxs, stabilized = _level_at(levels, stable_at, k - 1)
    return _value_set(indexed_view(G, cap), "gamma", k, idxs, stabilized)


def delta_values_bruteforce(G: PermGroup, k: int, cap: int = DEFAULT_ENUM_CAP) -> DeltaValueSet:
    """Tuple-enumeration oracle: evaluates the word on every 2^k argument tuple.

    Exponential in |G|; intended for cross-checking delta_values on small
    groups only.
    """
    if k < 0:
        raise ValueError("depth must be nonnegative")
    iv = indexed_view(G, cap)
    n = iv.size
    if n ** (2 ** k) > _TUPLE_BUDGET:
        raise OrderCapExceeded(n ** (2 ** k), _TUPLE_BUDGET, what="argument tuple space")
    if k == 0:
        idxs = set(range(n))
    elif k == 1:
        ct = iv.commutator_table()
        idxs = {ct[a][b] for a in range(n) for b in range(n)}
    elif k == 2:
        ct = iv.commutator_table()
        rng = range(n)
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
        ct = iv.commutator_table()

        def word(tup: tuple[int, ...]) -> int:
            if len(tup) == 1:
                return tup[0]
            half = len(tup) // 2
            return ct[word(tup[:half])][word(tup[half:])]

        idxs = {word(t) for t in itertools.product(range(n), repeat=2 ** k)}
    return _value_set(iv, "delta", k, frozenset(idxs), False)


def verbal_subgroup(values: DeltaValueSet) -> PermGroup:
    """Subgroup generated by a word value set."""
    return subgroup_generated(values.values.degree, values.values.elements)


def is_symmetric(X: Iterable[Permutation]) -> bool:
    elems = set(X)
    return all(x.inverse() in elems for x in elems)


def is_commutator_closed(X: Iterable[Permutation]) -> bool:
    elems = set(X)
    return all(commutator(a, b) in elems for a in elems for b in elems)


def random_commutator_closed_generating_set(G: PermGroup, rng: random.Random,
                                            cap: int = DEFAULT_ENUM_CAP) -> ElementSet:
    """A random generating set of G, closed under commutators.

    Draws uniform elements until they generate, then closes; the result both
    generates G and is commutator-closed, as the construction for the derived
    subgroup generation check requires.
    """
    iv = indexed_view(G, cap)
    picks: list[int] = []
    while True:
        picks.append(rng.randrange(iv.size))
        if len(iv.closure(picks)) == iv.size:
            break
    return _element_set(iv, iv.commutator_closure(picks))


def derived_from_closed_set(G: PermGroup, X: ElementSet,
                            cap: int = DEFAULT_ENUM_CAP) -> PermGroup:
    """Derived subgroup from pair commutators of a commutator-closed generating set.

    Checks both preconditions, generates H from the commutators [x1, x2] with
    x1, x2 in X, and verifies H against the derived subgroup computed the
    ordinary way before returning it.  The pair commutators are formed once,
    as indices on G's view: they decide closure and seed H, which keeps the
    same generators as ``subgroup_generated`` would from the same list.
    """
    iv = indexed_view(G, cap)
    try:
        idxs = sorted(iv.index[x.images] for x in X)
    except KeyError:
        raise NotGenerating("input set is not contained in the group")
    comms = [iv.comm(a, b) for a in idxs for b in idxs]
    if not frozenset(idxs).issuperset(comms):
        raise NotCommutatorClosed("input set is not closed under commutators")
    if len(iv.closure(idxs)) != iv.size:
        raise NotGenerating("input set does not generate the group")
    H = iv.subgroup(comms)
    if not H.equals(derived_subgroup(G)):
        raise RuntimeError("pair commutators of a closed generating set missed "
                           "the derived subgroup; this is a bug")
    return H


@dataclass(frozen=True)
class GeneratorTower:
    """Product decomposition of a soluble group into nilpotent normalizers.

    ``chain`` is the descending tower K_1 = G, K_{i+1} = residual(K_i) down to
    (but excluding) the trivial group; ``normalizers`` holds the basis
    normalizer T_i of each K_i, taken with respect to the intersected Sylow
    basis.  ``level_sets`` are the prime-power-order elements of each T_i and
    ``generating_set`` their union: a commutator-closed generating set of G
    whose members all have prime power order.  ``depth_sets[i]`` is the set
    of members expressible as depth-i word values with arguments in the set.
    """

    group: PermGroup
    chain: tuple[PermGroup, ...]
    normalizers: tuple[PermGroup, ...]
    level_sets: tuple[ElementSet, ...]
    generating_set: ElementSet
    depth_sets: tuple[ElementSet, ...]
    seed: int

    @property
    def height(self) -> int:
        return len(self.chain)

    def chain_orders(self) -> tuple[int, ...]:
        return tuple(K.order() for K in self.chain)

    def normalizer_orders(self) -> tuple[int, ...]:
        return tuple(T.order() for T in self.normalizers)


def generator_tower(G: PermGroup, seed: int = 0, cap: int = DEFAULT_ENUM_CAP) -> GeneratorTower:
    """Build the normalizer tower and its prime-power generating set.

    Requires a soluble group.  All structural claims are re-verified on the
    concrete result before it is returned: the union generates, is
    commutator-closed, consists of prime-power-order elements, earlier
    normalizers normalize later ones, and the normalizer product covers the
    whole group.  Coverage is checked by orders.  At each level T K_inf = K
    when |T| |K_inf| / |T cap K_inf| = |K| (``product_order``).  Once each
    T_j normalizes every later T_k, the product T_1 ... T_h is the subgroup
    <T_1, ..., T_h>: by induction from the last factor, T_j normalizes the
    subgroup T_{j+1} ... T_h, so T_j T_{j+1} ... T_h is again a subgroup.
    The product covers G exactly when that subgroup is all of G.  Every check
    runs on index sets of G's indexed view, with subgroups generated by its
    closures.  The |X|^2 commutators of the members of X are formed once, in
    one table: it decides commutator-closure, and as X is closed every depth
    set lies in X, so each is read off the same table.
    """
    if not is_soluble(G):
        raise NotSoluble("the tower construction requires a soluble group")

    def compute() -> GeneratorTower:
        fitting_chain = lower_fitting_series(G).terms
        chain = tuple(K for K in fitting_chain if K.order() > 1)
        basis = sylow_basis(G, seed=seed, cap=cap)
        iv = indexed_view(G, cap)

        normalizers, members, levels = [], [], []
        for K in chain:
            T = intersect_basis(basis, K, cap).normalizer
            if product_order(G, T, gamma_infinity(K), cap) != K.order():
                raise RuntimeError("normalizer failed to complement the residual in a tower level")
            normalizers.append(T)
            members.append(iv.member_indices(T, cap))
            levels.append({i for i in members[-1] if is_prime_power(iv.order_of[i])})
        X = sorted({iv.identity_index}.union(*levels))

        # re-verify every structural claim on the concrete sets
        position = {x: i for i, x in enumerate(X)}
        comm = [[position.get(iv.comm(a, b)) for b in X] for a in X]
        if any(None in row for row in comm):
            raise RuntimeError("tower union is not commutator-closed; this is a bug")
        if not all(is_prime_power(iv.order_of[x]) for x in X):
            raise RuntimeError("tower union contains a non-prime-power element; this is a bug")
        if len(iv.closure(X)) != iv.size:
            raise RuntimeError("tower union does not generate the group; this is a bug")
        gens = [[iv.index[t.images] for t in T.generators] for T in normalizers]
        for j, gens_j in enumerate(gens):
            for gens_k, members_k in zip(gens[j:], members[j:]):
                if not all(iv.conj(a, t) in members_k for a in gens_k for t in gens_j):
                    raise RuntimeError("an earlier tower normalizer fails to normalize a "
                                       "later one; this is a bug")
        # with each T_j normalizing the later T_k, T_1 ... T_h = <T_1, ..., T_h>
        if len(iv.closure(t for gens_j in gens for t in gens_j)) != iv.size:
            raise RuntimeError("normalizer product does not cover the group; this is a bug")

        # the depth sets shrink to {1}: G is soluble and depth set i lies in G^(i)
        generating_set = _element_set(iv, X)
        depth_sets = [generating_set]
        level = range(len(X))
        while True:
            level = {comm[a][b] for a in level for b in level}
            depth_sets.append(_element_set(iv, (X[a] for a in level)))
            if len(level) == 1:
                break
        return GeneratorTower(G, chain, tuple(normalizers),
                              tuple(_element_set(iv, idxs) for idxs in levels),
                              generating_set, tuple(depth_sets), seed)

    return G.memo(("generator_tower", seed), compute)
