"""Iterated-commutator word values and commutator-closed generating sets.

The depth-k derived word takes 2^k arguments and nests commutators over the
two argument halves; its value set is computed level by level as commutators
of the previous level, which agrees with the literal tuple evaluation because
the argument blocks are independent.  The tuple brute force that checks this
lives with the tests' oracles.

Every level is a normal subset of G, since [a, b]^g = [a^g, b^g].  So a level
is computed from conjugacy classes.  When the second argument ranges over
all of G (every left-normed level, and the derived word's first), the next
level is the union of the classes of [r, g] = r^-1 * r^g, r a class
representative of the current level L and g in G: [r^h, g] = [r, g^(h^-1)]^h,
and the conjugates r^g are r's class, read off the view's class member
lists, so a level costs |L| products.  A deeper derived level is the union,
over pairs of classes C and D of L, of S_CD = {[a, b] : a in C, b in D}.
S_CD is a normal subset, so it is the union of the classes of [r_C, x] for
x in D, and equally of those of [y, r_D] for y in C; and S_DC = S_CD^-1,
since [b, a] = [a, b]^-1.  So each unordered pair {C, D} costs
min(|C|, |D|) commutators, formed with x in the smaller class, and the
classes of the other order are the inverses of the classes hit.  A
commutator [r, x] = r^-1 x^-1 r x is three translates of image bytes,
with x's inverse table as x^-1's pad, so no table of |G| entries and no
inverse list of G is read.

Also here: the tower construction that writes a soluble group as a product of
nilpotent system normalizers and extracts from it a commutator-closed
generating set of prime-power-order elements, whose pair commutators are
checked to generate the derived subgroup.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotSoluble
from .group import PermGroup
from .indexed import IndexedGroup, indexed_view
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
    returned.  Levels are computed up to i and no further.  When the second
    argument ranges over all of G (every "gamma" level, and the first
    "delta" level), the next level is the union of the classes of
    r^-1 * y, r a class representative of the current level and y in r's
    class.  Otherwise it is the union of S_CD = {[a, b] : a in C, b in D}
    over pairs of classes C, D of the current level: in (size, label)
    order, S_CD is read as the classes of [r_C, x] for x in D, for each D
    up to and including C, and S_DC = S_CD^-1 as the inverses of the
    classes hit.  Each [r_C, x] is formed on the image bytes of r_C^-1 and
    r_C, and of x and its inverse table, and each distinct one is looked up
    once.
    """
    iv = indexed_view(G)
    state = G.memo(("word_levels", kind),
                   lambda: {"levels": [frozenset(range(iv.size))], "stable": False})
    levels: list[frozenset[int]] = state["levels"]
    while not state["stable"] and len(levels) <= i:
        (labels, reps), classes = iv.class_labels(), iv.classes()
        key, images, pads, n = iv.index, iv.images, iv.pads, G.degree
        prev = levels[-1]
        in_prev = {labels[a] for a in prev}
        hit = set()
        if kind == "gamma" or len(prev) == iv.size:
            for c in in_prev:
                # [r, g] = r^-1 * r^g, one product per member r^g of r's class
                inv_r = inverse_table(images[reps[c]])[:n]
                hit.update(labels[key[inv_r.translate(pads[y])]] for y in classes[c])
        else:
            order = sorted(in_prev, key=lambda c: (len(classes[c]), c))
            rep_tables = [(inverse_table(images[reps[c]])[:n], pads[reps[c]]) for c in order]
            found = set()
            for j, d in enumerate(order):
                # [r_C, x] = r_C^-1 x^-1 r_C x for x in D and each class C from D on
                xs = [(inverse_table(images[x]), pads[x]) for x in classes[d]]
                for inv_r, pad_r in rep_tables[j:]:
                    found.update([inv_r.translate(inv_x).translate(pad_r).translate(pad_x)
                                  for inv_x, pad_x in xs])
            hit.update(labels[key[b]] for b in found)
            # S_DC = S_CD^-1: the inverses of a class form one class
            hit.update([labels[key[inverse_table(images[reps[c]])[:n]]] for c in hit])
        nxt = frozenset(x for x in range(iv.size) if labels[x] in hit)
        if nxt == prev:
            state["stable"] = True
            break
        levels.append(nxt)
    return levels[min(i, len(levels) - 1)]


def delta_values(G: PermGroup, k: int) -> DeltaValueSet:
    """Values of the depth-k derived word, level by level from conjugacy classes.

    The depth-1 values are the union of the classes of [r, g], r a class
    representative of G and g in G.  Past depth 1, with C and D classes of
    the depth-i values, the depth-(i+1) values are the union of the normal
    subsets S_CD = {[a, b] : a in C, b in D}: each is the union of the
    classes of [r_C, x] for x in D, and S_DC = S_CD^-1.  So the commutators
    are formed with x in the smaller class of each unordered pair, and the
    inverses of the classes hit give the other order.
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


def _commutator_table(iv: IndexedGroup, X: list[int]) -> list[list[int | None]]:
    """``table[i][j]`` is the position in X of [X[i], X[j]], or None if X lacks it.

    [a, b] = a^-1 b^-1 a b is formed on image bytes, a^-1's images through
    the pads of b^-1, a and b, with one index lookup per pair; each row's
    a^-1 and a, and each column's b^-1 and b, are fetched once.
    """
    key, images, pads, inverse = iv.index, iv.images, iv.pads, iv.inverse
    position = {x: i for i, x in enumerate(X)}
    columns = [(pads[inverse[b]], pads[b]) for b in X]
    table = []
    for a in X:
        inv_a, pad_a = images[inverse[a]], pads[a]
        table.append([position.get(key[inv_a.translate(inv_b).translate(pad_a).translate(pad_b)])
                      for inv_b, pad_b in columns])
    return table


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
    one table built row by row on image bytes (``_commutator_table``): it
    decides commutator-closure, and as X is closed every depth set lies in
    X, so each is read off the same table.  Depth set 1 is then
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
        comm = _commutator_table(iv, X)
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
