"""Coprime product criterion, consistency checks, and the insolubility probe."""

from __future__ import annotations

import pytest

from nilcrit.criterion import (
    coprime_product_criterion,
    derived_nilpotency_check,
    lower_central_nilpotency_check,
    probe_insoluble,
)
from nilcrit.errors import NotSoluble
from nilcrit.group import PermGroup
from nilcrit.indexed import indexed_view
from nilcrit.perm import Permutation
from nilcrit.structure import is_nilpotent
from nilcrit.words import delta_values

from conftest import perm
from oracles import full_scan_oracle


def cyclic(n: int) -> PermGroup:
    return PermGroup(n, (Permutation([(i + 1) % n for i in range(n)]),), name=f"C{n}")


class TestCriterionScan:
    def test_abelian_group_holds(self):
        report = coprime_product_criterion(cyclic(6), 1)
        assert report.holds and report.witness is None

    def test_s4_depth_one_fails_with_replayable_witness(self, s4):
        report = coprime_product_criterion(s4, 1)
        assert not report.holds
        w = report.witness
        assert w is not None and w.replay()
        assert {w.order_a, w.order_b} == {2, 3}
        assert w.order_ab in (1, 2, 3)
        # both witness components really are depth-1 values
        vs, index = delta_values(s4, 1).indices, indexed_view(s4).index
        assert index[w.a.images] in vs and index[w.b.images] in vs

    def test_s4_depth_two_holds(self, s4):
        # depth-2 values lie in a 2-group, so there are no coprime pairs
        report = coprime_product_criterion(s4, 2)
        assert report.holds
        assert report.pairs_checked == 0

    def test_reduction_agrees_with_full_scan(self, s4, s3, a4, a5, d8):
        for G in (s3, a4, d8, s4, a5, cyclic(12)):
            for k in (0, 1, 2):
                reduced = coprime_product_criterion(G, k)
                values = indexed_view(G).perms(delta_values(G, k).indices)
                assert reduced.holds == full_scan_oracle(values), (G.name, k)

    def test_swapping_pair_members_changes_nothing(self, s4):
        # |ba| = |a^-1 (ab) a| = |ab|; spot check on the witness pair
        w = coprime_product_criterion(s4, 1).witness
        assert (w.a * w.b).order() == (w.b * w.a).order()


class TestDerivedConsistency:
    def test_s3_depth_one(self, s3):
        chk = derived_nilpotency_check(s3, 1)
        assert chk.criterion.holds
        assert chk.subgroup_nilpotent
        assert chk.consistent

    def test_s4_depth_one(self, s4):
        chk = derived_nilpotency_check(s4, 1)
        assert not chk.criterion.holds
        assert not chk.subgroup_nilpotent
        assert chk.consistent
        assert chk.subgroup_order == 12

    def test_s4_depth_two(self, s4):
        chk = derived_nilpotency_check(s4, 2)
        assert chk.criterion.holds and chk.subgroup_nilpotent and chk.consistent

    def test_nilpotent_groups_hold_at_every_depth(self, d8, v4):
        for G in (d8, v4, cyclic(12)):
            for k in (0, 1, 2, 3):
                chk = derived_nilpotency_check(G, k)
                assert chk.criterion.holds and chk.subgroup_nilpotent and chk.consistent

    def test_insoluble_routed_away(self, a5):
        with pytest.raises(NotSoluble):
            derived_nilpotency_check(a5, 1)


class TestLowerCentralConsistency:
    def test_depth_one_is_the_classical_condition(self, s4, s3, d8, a5):
        for G in (s4, s3, d8, a5, cyclic(9)):
            chk = lower_central_nilpotency_check(G, 1)
            assert chk.criterion.holds == is_nilpotent(G)
            assert chk.consistent

    def test_s4_depth_two(self, s4):
        chk = lower_central_nilpotency_check(s4, 2)
        assert not chk.criterion.holds
        assert not chk.subgroup_nilpotent
        assert chk.consistent
        assert chk.subgroup_order == 12

    def test_d8_every_depth(self, d8):
        for k in (1, 2, 3, 4):
            chk = lower_central_nilpotency_check(d8, k)
            assert chk.criterion.holds and chk.consistent


class TestProbe:
    def test_a5_fails_criterion(self, a5):
        probe = probe_insoluble(a5, 1)
        assert not probe.soluble
        assert not probe.criterion.holds
        assert not probe.is_candidate_counterexample
        w = probe.criterion.witness
        assert w.replay()

    def test_s5_depth_two(self):
        s5 = PermGroup(5, (perm("(1 2)", 5), perm("(1 2 3 4 5)", 5)), name="S5")
        probe = probe_insoluble(s5, 2)
        assert not probe.criterion.holds
        assert not probe.is_candidate_counterexample

    def test_probe_accepts_soluble_groups_too(self, s4):
        probe = probe_insoluble(s4, 2)
        assert probe.soluble
        assert probe.criterion.holds
        assert not probe.is_candidate_counterexample


class TestNecessityDirection:
    def test_nilpotent_subgroup_forces_holding_criterion(self, s4, s3, a4, a5, d8):
        # hard invariant, soluble or not
        for G in (s4, s3, a4, a5, d8, cyclic(12)):
            for k in (0, 1, 2, 3):
                from nilcrit.structure import derived_term
                if is_nilpotent(derived_term(G, k)):
                    assert coprime_product_criterion(G, k).holds, (G.name, k)
