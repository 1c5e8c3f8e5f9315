"""Plain element-closure oracle for the operations that stall at the benchmark's parent.

Nothing here calls ``normal_closure``, stabilizer chains or the indexed view:
groups are Python sets of image tuples closed by breadth-first multiplication,
and every series term is a closure of explicit commutators.
"""

from __future__ import annotations

from math import gcd

from nilcrit.corpus import parse_descriptor


def _mul(a, b):
    """Left-to-right product, as in nilcrit.perm: x^(ab) = b(a(x))."""
    return tuple(b[x] for x in a)


def _inv(a):
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def _comm(a, b):
    return _mul(_mul(_mul(_inv(a), _inv(b)), a), b)


def _order(a):
    e, n, x = tuple(range(len(a))), 1, a
    while x != e:
        x, n = _mul(x, a), n + 1
    return n


def _closure(degree, gens):
    e = tuple(range(degree))
    seen, frontier = {e}, [e]
    gens = [g for g in set(gens) if g != e]
    while frontier:
        frontier = [y for x in frontier for g in gens if (y := _mul(x, g)) not in seen
                    and not seen.add(y)]
    return frozenset(seen)


def _commutator_subgroup(degree, A, B):
    return _closure(degree, {_comm(a, b) for a in A for b in B})


def _is_nilpotent(degree, H):
    term = H
    while True:
        nxt = _commutator_subgroup(degree, term, H)
        if len(nxt) == 1:
            return True
        if nxt == term:
            return False
        term = nxt


def _series(degree, G, step):
    terms = [G]
    while len(terms[-1]) > 1:
        nxt = step(terms[-1])
        terms.append(nxt)
        if nxt == terms[-2]:
            break
    return terms


def load(path) -> tuple[int, frozenset]:
    desc = parse_descriptor(open(path, encoding="utf-8").read())
    gens = [tuple(x - 1 for x in g) for g in desc.generators]
    return desc.degree, _closure(desc.degree, gens)


def series_profile(path) -> dict:
    """The invariant fields of a ``series`` record."""
    n, G = load(path)
    derived = _series(n, G, lambda H: _commutator_subgroup(n, H, H))
    lower = _series(n, G, lambda H: _commutator_subgroup(n, H, G))

    def residual(H):
        return _series(n, H, lambda K: _commutator_subgroup(n, K, H))[-1]

    fitting = _series(n, G, residual)
    return {"order": len(G),
            "derived_orders": [len(t) for t in derived],
            "lower_central_orders": [len(t) for t in lower],
            "lower_fitting_orders": [len(t) for t in fitting],
            "fitting_height": len(fitting) - 1 if len(fitting[-1]) == 1 else None}


def criterion_profile(path, ks) -> list[dict]:
    """Verdict, value count and kth derived subgroup for the delta criterion."""
    n, G = load(path)
    e = tuple(range(n))
    out = []
    values, derived = G, G
    for k in range(1, max(ks) + 1):
        values = frozenset(_comm(a, b) for a in values for b in values)
        derived = _commutator_subgroup(n, derived, derived)
        if k not in ks:
            continue
        orders = {v: _order(v) for v in values if v != e}
        holds = all(_order(_mul(a, b)) == orders[a] * orders[b]
                    for a in orders for b in orders if gcd(orders[a], orders[b]) == 1)
        nilpotent = _is_nilpotent(n, derived)
        out.append({"k": k, "holds": holds, "value_count": len(values),
                    "subgroup_order": len(derived), "subgroup_nilpotent": nilpotent,
                    "consistent": holds == nilpotent})
    return out
