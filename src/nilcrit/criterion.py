"""The coprime-order product criterion on word values.

For word values a, b of coprime orders, nilpotency of the generated verbal
subgroup forces |ab| = |a||b|; conversely a coprime pair whose product order
drops witnesses non-nilpotency.  The scan checks every such pair up to a
sound conjugacy reduction (the first element ranges over class
representatives inside the value set, since |a^g b^g| = |ab|).  Orders are
read off the view's ``order_of``, computed once per conjugacy class, and
each coprime pair's product a*b is one ``translate`` and one lookup.

The consistency checkers compare the criterion verdict against a direct
nilpotency computation of the corresponding subgroup; the insolubility probe
runs the same scan on insoluble groups and only reports what it finds.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import NotSoluble
from .group import PermGroup
from .indexed import indexed_view
from .perm import Permutation
from .structure import derived_term, is_nilpotent, is_soluble, lower_central_term
from .words import delta_values, gamma_values


class CriterionWitness(NamedTuple):
    """A coprime-order value pair whose product order is not the product of orders."""

    a: Permutation
    b: Permutation
    order_a: int
    order_b: int
    order_ab: int

    def replay(self) -> bool:
        """Re-verify the violation from the raw permutations alone."""
        return (gcd(self.a.order(), self.b.order()) == 1
                and self.a.order() == self.order_a
                and self.b.order() == self.order_b
                and (self.a * self.b).order() == self.order_ab
                and self.order_ab != self.order_a * self.order_b)


class CriterionReport(NamedTuple):
    kind: str
    k: int
    holds: bool
    witness: CriterionWitness | None
    pairs_checked: int
    value_count: int


def _word_values(G: PermGroup, k: int, kind: str):
    if kind == "delta":
        return delta_values(G, k)
    if kind == "gamma":
        return gamma_values(G, k)
    raise ValueError(f"unknown word kind {kind!r}")


def coprime_product_criterion(G: PermGroup, k: int, kind: str = "delta") -> CriterionReport:
    """Scan coprime-order value pairs for |ab| = |a||b|.

    Identity values are skipped (their pairs hold trivially).  The first
    element runs over per-class minimal values only; the verdict is that of
    the scan over all pairs and the witness is the first violation in the
    scan's canonical order.  The scan stops at the first violation.
    """
    iv = indexed_view(G)
    values = _word_values(G, k, kind)
    val_idx = sorted(values.indices - {iv.identity_index})

    # val_idx is ascending, so the first value met in a class is its minimum
    labels = iv.class_labels()[0]
    seen: set[int] = set()
    firsts = []
    for a in val_idx:
        if labels[a] not in seen:
            seen.add(labels[a])
            firsts.append(a)

    order_of, key, pads = iv.order_of, iv.index, iv.pads
    pairs = 0
    for a in firsts:
        oa = order_of[a]
        images_a = iv.images[a]
        for b in val_idx:
            ob = order_of[b]
            if gcd(oa, ob) != 1:
                continue
            pairs += 1
            oab = order_of[key[images_a.translate(pads[b])]]
            if oab != oa * ob:
                witness = CriterionWitness(iv.elements[a], iv.elements[b], oa, ob, oab)
                return CriterionReport(kind, k, False, witness, pairs, len(val_idx) + 1)
    return CriterionReport(kind, k, True, None, pairs, len(val_idx) + 1)


class NilpotencyCheck(NamedTuple):
    """Criterion verdict side by side with the actual nilpotency of the subgroup."""

    criterion: CriterionReport
    subgroup_order: int
    subgroup_nilpotent: bool

    @property
    def consistent(self) -> bool:
        return self.criterion.holds == self.subgroup_nilpotent


def derived_nilpotency_check(G: PermGroup, k: int) -> NilpotencyCheck:
    """Criterion on depth-k derived-word values vs nilpotency of the kth derived subgroup.

    Requires a soluble group; insoluble input belongs to probe_insoluble.
    """
    if not is_soluble(G):
        raise NotSoluble("equivalence check requires a soluble group; use probe_insoluble")
    report = coprime_product_criterion(G, k, "delta")
    H = derived_term(G, k)
    return NilpotencyCheck(report, H.order(), is_nilpotent(H))


def lower_central_nilpotency_check(G: PermGroup, k: int) -> NilpotencyCheck:
    """Criterion on left-normed word values vs nilpotency of the kth lower central term.

    No solubility requirement: this equivalence is expected on every finite
    group (at k = 1 it is the classical coprime-product nilpotency condition).
    """
    report = coprime_product_criterion(G, k, "gamma")
    H = lower_central_term(G, k)
    return NilpotencyCheck(report, H.order(), is_nilpotent(H))


class ProbeReport(NamedTuple):
    """Criterion outcome on a (typically insoluble) group, with no equivalence claim.

    A holding criterion on an insoluble group would be a candidate
    counterexample to the expectation that only soluble groups satisfy it;
    the probe flags candidates and decides nothing.
    """

    criterion: CriterionReport
    soluble: bool
    is_candidate_counterexample: bool


def probe_insoluble(G: PermGroup, k: int) -> ProbeReport:
    report = coprime_product_criterion(G, k, "delta")
    soluble = is_soluble(G)
    return ProbeReport(report, soluble, report.holds and not soluble)
