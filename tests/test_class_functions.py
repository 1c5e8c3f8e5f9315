"""Class functions once per conjugacy class: element orders, word-value levels, the criterion scan.

Element order is constant on a class and word-value sets are unions of
classes, so the indexed view takes orders from class representatives, the
levels whose second argument ranges over all of G read r's conjugates off
r's class, and the criterion scan forms each coprime product a*b on its own.
The work-count tests pin that work without timing anything; the random-group
test checks the results against the raw images.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

import nilcrit.indexed
from nilcrit.criterion import coprime_product_criterion
from nilcrit.group import PermGroup
from nilcrit.indexed import IndexedGroup, indexed_view
from nilcrit.perm import MAX_DEGREE, Permutation, image_order
from nilcrit.words import delta_values, gamma_values

from conftest import regular_cyclic, regular_elementary_abelian, scale_group

WORK_GROUPS = ("S4wrC2", "PSL2_11")
KINDS = ("delta", "gamma")


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
def test_the_criterion_scan_builds_no_multiplication_row(name):
    G = scale_group(name)
    iv = indexed_view(G)
    iv.conjugation_tables()  # the class tables' own rows, built before the scans
    built = [i for i, row in enumerate(iv._rows) if row is not None]
    for kind in KINDS:
        for k in (1, 2, 3):
            for reduce_by_classes in (True, False):
                coprime_product_criterion(G, k, kind, reduce_by_classes)
    assert [i for i, row in enumerate(iv._rows) if row is not None] == built


@pytest.mark.parametrize("name", WORK_GROUPS)
def test_levels_over_all_of_g_call_no_conjugates(monkeypatch, name):
    G = scale_group(name)
    calls = count_calls(monkeypatch, IndexedGroup, "conjugates", IndexedGroup.conjugates)
    for k in (1, 2, 3):
        gamma_values(G, k)
    # delta_values(G, 1) computes delta's first level, whose predecessor is all of G
    first = delta_values(G, 1).indices
    assert calls[0] == 0
    # delta_values(G, 2) adds the second level: one call per class of the first
    # level's representatives, unless the first level is all of G
    delta_values(G, 2)
    iv = indexed_view(G)
    labels = iv.class_labels()[0]
    want = 0 if len(first) == iv.size else len({labels[i] for i in first})
    assert calls[0] == want


def subgroups_of_small_symmetric_groups():
    """Subgroups of S_n, n <= 8, each generated by 1 to 3 random permutations."""
    return st.integers(1, 8).flatmap(lambda n: st.lists(
        st.permutations(range(n)).map(Permutation), min_size=1, max_size=3).map(
        lambda gens: PermGroup(n, gens)))


@settings(max_examples=40, deadline=None)
@given(subgroups_of_small_symmetric_groups())
@example(regular_cyclic(MAX_DEGREE))
@example(regular_elementary_abelian(8))
def test_orders_and_both_scans_replay_from_raw_images(G):
    iv = indexed_view(G)
    assert iv.order_of == [p.order() for p in iv.elements]
    for kind in KINDS:
        for k in (1, 2, 3):
            reduced = coprime_product_criterion(G, k, kind, reduce_by_classes=True)
            full = coprime_product_criterion(G, k, kind, reduce_by_classes=False)
            assert reduced.holds == full.holds, (kind, k)
            assert reduced.value_count == full.value_count, (kind, k)
            for report in (reduced, full):
                assert (report.witness is None) == report.holds
                assert report.witness is None or report.witness.replay()
