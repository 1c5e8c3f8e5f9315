"""Class functions once per conjugacy class: element orders, word-value levels, the criterion scan.

Element order is constant on a class and word-value sets are unions of
classes, so the indexed view takes orders from class representatives, the
levels whose second argument ranges over all of G read r's conjugates off
r's class, a deeper delta level forms [r_C, x] for x in the smaller class of
each pair of classes, and the criterion scan forms each coprime product a*b
on its own.  The work-count tests pin that work without timing anything;
the random-group test checks the results against the raw images.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings

import nilcrit.indexed
from nilcrit.criterion import coprime_product_criterion
from nilcrit.indexed import indexed_view
from nilcrit.perm import MAX_DEGREE, image_order
from nilcrit.words import delta_values, gamma_values

from conftest import (CountingIndex, regular_cyclic, regular_elementary_abelian, scale_group,
                      small_symmetric_subgroups)
from oracles import full_scan_oracle

WORK_GROUPS = ("S4wrC2", "PSL2_11")
KINDS = ("delta", "gamma")
WORDS = {"delta": delta_values, "gamma": gamma_values}


def count_calls(monkeypatch, owner, name: str, fn) -> list[int]:
    """Replace owner.name by a wrapper of fn that counts its calls in the returned cell."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name", WORK_GROUPS)
def test_filling_orders_runs_one_image_order_per_class(monkeypatch, name):
    iv = indexed_view(scale_group(name))
    calls = count_calls(monkeypatch, nilcrit.indexed, "image_order", image_order)
    orders = iv.order_of
    assert calls[0] == len(iv.class_labels()[1]) < iv.size
    # kept on the view: a second read computes nothing
    assert iv.order_of is orders and calls[0] == len(iv.class_labels()[1])


@pytest.mark.parametrize("name", WORK_GROUPS)
def test_the_criterion_scan_forms_one_product_per_pair(name):
    G = scale_group(name)
    iv = indexed_view(G)
    for kind in KINDS:  # the class tables and value levels, built before the scans
        for k in (1, 2, 3):
            coprime_product_criterion(G, k, kind)
    iv.index = CountingIndex(iv.index)
    pairs = 0
    for kind in KINDS:
        for k in (1, 2, 3):
            pairs += coprime_product_criterion(G, k, kind).pairs_checked
    assert iv.index.lookups == pairs


@pytest.mark.parametrize("name", WORK_GROUPS)
def test_levels_over_all_of_g_call_no_conjugates(name):
    G = scale_group(name)
    iv = indexed_view(G)
    iv.classes()  # the class tables, built before the levels
    iv.index = CountingIndex(iv.index)
    for k in (1, 2, 3):
        gamma_values(G, k)
    # delta's first level, whose predecessor is all of G, reads r's class too
    delta_values(G, 1)
    # each class of a level L costs one product r^-1 * y per member y of the
    # class: |L| lookups to grow L, and no conjugate r^b is formed at all
    gamma = G.memo(("word_levels", "gamma"), lambda: None)["levels"]
    assert iv.index.lookups <= sum(len(level) for level in gamma) + iv.size
    assert iv.index.lookups < len(iv.class_labels()[1]) * iv.size


@pytest.mark.parametrize("name", ("S4wrC2", "S4xS4"))
def test_deeper_delta_levels_cost_one_product_per_pair_of_class_members(name):
    G = scale_group(name)
    iv = indexed_view(G)
    labels, classes = iv.class_labels()[0], iv.classes()  # built before the levels
    delta_values(G, 1)
    iv.index = CountingIndex(iv.index)
    for k in (2, 3):
        sizes = sorted(len(classes[c]) for c in {labels[x] for x in delta_values(G, k - 1).indices})
        before = iv.index.lookups
        level = delta_values(G, k).indices
        # [r_C, x] for x in the smaller class of each unordered pair {C, D} of
        # level k-1's classes, one lookup per distinct commutator, then one
        # per class hit for its inverse class
        pairs = sum(min(a, b) for i, a in enumerate(sizes) for b in sizes[i:])
        assert 0 < iv.index.lookups - before <= pairs + len({labels[x] for x in level}), k


@settings(max_examples=40, deadline=None)
@given(small_symmetric_subgroups(8))
@example(regular_cyclic(MAX_DEGREE))
@example(regular_elementary_abelian(8))
def test_orders_and_both_scans_replay_from_raw_images(G):
    iv = indexed_view(G)
    assert iv.order_of == [p.order() for p in iv.perms(range(iv.size))]
    for kind in KINDS:
        for k in (1, 2, 3):
            report = coprime_product_criterion(G, k, kind)
            values = WORDS[kind](G, k).indices
            assert report.holds == full_scan_oracle(iv.perms(values)), (kind, k)
            assert report.value_count == len(values), (kind, k)
            assert (report.witness is None) == report.holds
            assert report.witness is None or report.witness.replay()
