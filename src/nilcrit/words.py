"""Iterated-commutator word values and commutator-closed generating sets.

The depth-k derived word takes 2^k arguments and nests commutators over the
two argument halves; its value set is computed level by level as commutators
of the previous level, which agrees with the literal tuple evaluation because
the argument blocks are independent.  The tuple brute force that checks this
lives with the tests' oracles.

Every level is a normal subset of G, since [a, b]^g = [a^g, b^g].  So a level
is computed from class representatives only: with L the current level and B
the normal subset the second argument ranges over (L for the derived word, G
for the left-normed one), the next level is the union of the conjugacy
classes of the commutators [r, b] = r^-1 * r^b, r a class representative in
L and b in B.  This is the whole level because [r^h, b] = [r, b^(h^-1)]^h
and b^(h^-1) lies in B again.  Each representative costs one product
r^-1 * y per distinct conjugate y = r^b, so a level costs at most |L|
products instead of the |L| |B| of all pairs.  When B is all of G (every
left-normed level, and the derived word's first), the conjugates of r are
its class, read off the view's class member lists; only deeper derived
levels make a pass over G's spanning tree per representative.

Also here: the tower construction that writes a soluble group as a product of
nilpotent system normalizers and extracts from it a commutator-closed
generating set of prime-power-order elements, whose pair commutators are
checked to generate the derived subgroup.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotSoluble
from .group import PermGroup
from .indexed import indexed_view
from .perm import inverse_table
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


class DeltaValueSet:
    """The set of depth-k word values of a group.

    kind is "delta" (derived word, 2^k arguments) or "gamma" (left-normed
    word, k arguments).  ``indices`` is the value set on G's indexed view;
    past the depth where the levels stop shrinking it is the stable set.
    ``len()`` is the number of values.
    """

    __slots__ = ("kind", "k", "indices")

    def __init__(self, kind: str, k: int, indices: frozenset[int]) -> None:
        self.kind, self.k, self.indices = kind, k, indices

    def __len__(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:
        return f"DeltaValueSet(kind={self.kind!r}, k={self.k!r}, indices={self.indices!r})"


def _value_levels(G: PermGroup, kind: str, i: int) -> frozenset[int]:
    """Index-level value set i, computed incrementally and cached on the group.

    Level i holds the values of depth i for "delta" and of depth i+1 for
    "gamma"; past the level where the sets stop shrinking, the stable set is
    returned.  Levels are computed up to i and no further.  Each next level
    is the union of the classes of [r, b], r a class representative of the
    current level and b in B (the current level for "delta", G for "gamma").
    When B is all of G, the conjugates r^b are r's class; otherwise they are
    read off ``conjugates(r)`` at the b in B.
    """
    iv = indexed_view(G)
    state = G.memo(("word_levels", kind),
                   lambda: {"levels": [frozenset(range(iv.size))], "stable": False})
    levels: list[frozenset[int]] = state["levels"]
    labels, reps = iv.class_labels()
    key, pads = iv.index, iv.pads
    while not state["stable"] and len(levels) <= i:
        prev = levels[-1]
        whole = kind == "gamma" or len(prev) == iv.size
        classes = iv.classes() if whole else None
        hit = set()
        for c in {labels[a] for a in prev}:
            r = reps[c]
            if whole:
                conj_r = classes[c]
            else:
                conj = iv.conjugates(r)
                conj_r = {conj[b] for b in prev}
            inv_r = inverse_table(iv.images[r])[:G.degree]
            # [r, b] = r^-1 * r^b, one product per distinct conjugate r^b
            hit.update(labels[key[inv_r.translate(pads[y])]] for y in conj_r)
        nxt = frozenset(x for x in range(iv.size) if labels[x] in hit)
        if nxt == prev:
            state["stable"] = True
            break
        levels.append(nxt)
    return levels[min(i, len(levels) - 1)]


def delta_values(G: PermGroup, k: int) -> DeltaValueSet:
    """Values of the depth-k derived word, level by level from class representatives.

    The depth-(i+1) values are the union of the classes of [r, b], r a class
    representative of the depth-i values and b a depth-i value.  Value sets
    are normal subsets and [r^h, b] = [r, b^(h^-1)]^h with b^(h^-1) again a
    depth-i value, so these classes hold every [a, b] with a, b of depth i.
    """
    if k < 0:
        raise ValueError("depth must be nonnegative")
    return DeltaValueSet("delta", k, _value_levels(G, "delta", k))


def gamma_values(G: PermGroup, k: int) -> DeltaValueSet:
    """Values of the left-normed word of k arguments (depth k of the lower central chain).

    The values of i+1 arguments are the union of the classes of [r, g], r a
    class representative of the values of i arguments and g in G.  Since
    [r^h, g] = [r, g^(h^-1)]^h, these classes hold every [c, g] with c a
    value of i arguments.
    """
    if k < 1:
        raise ValueError("the left-normed word is indexed from 1")
    return DeltaValueSet("gamma", k, _value_levels(G, "gamma", k - 1))


class GeneratorTower(NamedTuple):
    """Product decomposition of a soluble group into nilpotent normalizers.

    ``chain`` is the descending tower K_1 = G, K_{i+1} = residual(K_i) down to
    (but excluding) the trivial group; ``normalizers`` holds the basis
    normalizer T_i of each K_i, taken with respect to the intersected Sylow
    basis.  ``level_sets`` are the prime-power-order elements of each T_i and
    ``generating_set`` their union: a commutator-closed generating set of G
    whose members all have prime power order.  ``depth_sets[i]`` is the set
    of members expressible as depth-i word values with arguments in the set.
    The three are index sets on G's indexed view.
    """

    group: PermGroup
    chain: tuple[PermGroup, ...]
    normalizers: tuple[PermGroup, ...]
    level_sets: tuple[frozenset[int], ...]
    generating_set: frozenset[int]
    depth_sets: tuple[frozenset[int], ...]
    seed: int

    @property
    def height(self) -> int:
        return len(self.chain)

    def chain_orders(self) -> tuple[int, ...]:
        return tuple(K.order() for K in self.chain)

    def normalizer_orders(self) -> tuple[int, ...]:
        return tuple(T.order() for T in self.normalizers)


def generator_tower(G: PermGroup, seed: int = 0) -> GeneratorTower:
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
    set lies in X, so each is read off the same table.  Depth set 1 is then
    the set of pair commutators [x1, x2] of X, and closed-set generation is
    checked on it: X is a commutator-closed generating set, so depth set 1
    must close to the derived subgroup, compared by order.
    """
    if not is_soluble(G):
        raise NotSoluble("the tower construction requires a soluble group")

    def compute() -> GeneratorTower:
        fitting_chain = lower_fitting_series(G).terms
        chain = tuple(K for K in fitting_chain if K.order() > 1)
        basis = sylow_basis(G, seed=seed)
        iv = indexed_view(G)

        normalizers, members, levels = [], [], []
        for K in chain:
            T = intersect_basis(basis, K).normalizer
            if product_order(G, T, gamma_infinity(K)) != K.order():
                raise RuntimeError("normalizer failed to complement the residual in a tower level")
            normalizers.append(T)
            members.append(iv.member_indices(T))
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
        generating_set = frozenset(X)
        depth_sets = [generating_set]
        level = range(len(X))
        while True:
            level = {comm[a][b] for a in level for b in level}
            depth_sets.append(frozenset(X[a] for a in level))
            if len(level) == 1:
                break
        if len(iv.closure(depth_sets[1])) != derived_subgroup(G).order():
            raise RuntimeError("pair commutators of the tower union do not generate the "
                               "derived subgroup; this is a bug")
        return GeneratorTower(G, chain, tuple(normalizers), tuple(map(frozenset, levels)),
                              generating_set, tuple(depth_sets), seed)

    return G.memo(("generator_tower", seed), compute)
