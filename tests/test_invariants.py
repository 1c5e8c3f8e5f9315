"""Corpus-wide structural properties that every module promises."""

from __future__ import annotations

import pytest

from nilcrit.criterion import coprime_product_criterion
from nilcrit.group import subgroup_generated
from nilcrit.indexed import indexed_view
from nilcrit.primes import p_part, prime_factors
from nilcrit.structure import (
    gamma_infinity,
    is_nilpotent,
    lower_central_term,
    derived_term,
    sylow_basis,
    sylow_subgroup,
)
from nilcrit.words import delta_values, gamma_values

from conftest import conjugated, product_set
from oracles import elements_of, full_scan_oracle, group_from_elements, quotient, verbal_subgroup


class TestSylowExactness:
    def test_sylow_order_is_exact_p_part_everywhere(self, corpus):
        for name, G in corpus.items():
            for p in prime_factors(G.order()):
                assert sylow_subgroup(G, p).order() == p_part(G.order(), p), (name, p)


class TestBasisNormalizerFacts:
    def test_normalizer_complements_the_residual(self, soluble_corpus):
        for name, G in soluble_corpus.items():
            B = sylow_basis(G)
            T = B.normalizer
            residual = gamma_infinity(G)
            assert T.order() * residual.order() >= G.order(), name
            assert is_nilpotent(T), name
            covered = product_set(elements_of(T), elements_of(residual))
            assert len(covered) == G.order(), name

    def test_independently_seeded_normalizers_are_conjugate(self, soluble_corpus):
        for name in ("S4", "S3", "F20", "D12", "S3xS3", "C3wrC2"):
            G = soluble_corpus[name]
            T0 = sylow_basis(G, seed=0).normalizer
            T1 = sylow_basis(G, seed=3).normalizer
            assert any(conjugated(T0, g).equals(T1) for g in elements_of(G)), name

    @pytest.mark.parametrize("name,kernel_order", [
        ("S4", 4), ("S4", 12), ("S3", 3), ("C3wrC2", 9), ("S3xS3", 9),
    ])
    def test_normalizer_image_is_a_quotient_basis_normalizer(self, soluble_corpus,
                                                             name, kernel_order):
        from nilcrit.lemmas import normal_subgroups
        G = soluble_corpus[name]
        N = next(M for M in normal_subgroups(G) if len(M) == kernel_order)
        B = sylow_basis(G)
        Q, cmap = quotient(G, group_from_elements(G.degree, indexed_view(G).perms(sorted(N))))
        image = subgroup_generated(Q.degree, [cmap(t) for t in B.normalizer.generators])
        TQ = sylow_basis(Q).normalizer
        assert any(conjugated(TQ, g).equals(image) for g in elements_of(Q)), name


class TestVerbalSubgroupsMatchSeries:
    def test_delta_spans_equal_derived_terms(self, corpus):
        for name, G in corpus.items():
            for k in (0, 1, 2, 3, 4):
                span = verbal_subgroup(G, delta_values(G, k).indices)
                assert span.equals(derived_term(G, k)), (name, k)

    def test_gamma_spans_equal_lower_central_terms(self, corpus):
        for name, G in corpus.items():
            for k in (1, 2, 3, 4):
                span = verbal_subgroup(G, gamma_values(G, k).indices)
                assert span.equals(lower_central_term(G, k)), (name, k)

    def test_value_sets_are_monotone_and_contain_identity(self, corpus):
        for name, G in corpus.items():
            d_sets = [delta_values(G, k).indices for k in range(4)]
            g_sets = [gamma_values(G, k).indices for k in range(1, 5)]
            for tighter, looser in zip(d_sets[1:], d_sets):
                assert tighter <= looser, name
            for tighter, looser in zip(g_sets[1:], g_sets):
                assert tighter <= looser, name
            for vs in (*d_sets, *g_sets):
                assert indexed_view(G).identity_index in vs, name


class TestTowerDepthSets:
    def test_depth_sets_generate_derived_terms(self, soluble_corpus):
        # the depth-i slice of the tower's generating set spans the ith derived term
        from nilcrit.words import generator_tower
        for name, G in soluble_corpus.items():
            tower = generator_tower(G)
            for i in (0, 1, 2, 3):
                expected = derived_term(G, i)
                if i < len(tower.depth_sets):
                    span = verbal_subgroup(G, tower.depth_sets[i])
                    assert span.equals(expected), (name, i)
                else:
                    assert expected.is_trivial(), (name, i)


class TestReductionSoundness:
    def test_reduced_and_full_scans_agree_up_to_order_120(self, corpus):
        for name, G in corpus.items():
            if G.order() > 120:
                continue
            for k in (0, 1, 2):
                values = indexed_view(G).perms(delta_values(G, k).indices)
                reduced = coprime_product_criterion(G, k)
                assert reduced.holds == full_scan_oracle(values), (name, k)
