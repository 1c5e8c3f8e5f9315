"""Word value sets and their index sets, the tower construction, and its generating set."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from nilcrit.corpus import builtin_names, filter_names, load_group
from nilcrit.criterion import coprime_product_criterion
from nilcrit.errors import NotCommutatorClosed, NotGenerating
from nilcrit.group import ElementSet, PermGroup
from nilcrit.indexed import IndexedGroup, indexed_view
from nilcrit.perm import Permutation, commutator
from nilcrit.structure import derived_series, derived_term, lower_central_term
from nilcrit.words import (
    delta_values,
    delta_values_bruteforce,
    derived_from_closed_set,
    evaluate_delta,
    evaluate_gamma,
    gamma_values,
    generator_tower,
    is_commutator_closed,
    is_symmetric,
    random_commutator_closed_generating_set,
    verbal_subgroup,
)

from conftest import perm

CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"


def cyclic(n: int) -> PermGroup:
    return PermGroup(n, (Permutation([(i + 1) % n for i in range(n)]),), name=f"C{n}")


def pairwise_levels(G: PermGroup, kind: str, upto: int) -> list[set[Permutation]]:
    """Value levels 0..upto by the former pairwise computation, on a private view.

    Level i+1 holds [a, b] for every a in level i and b in level i ("delta")
    or in G ("gamma"); "gamma" level i holds the values of depth i+1.
    """
    iv = IndexedGroup(G)
    levels = [frozenset(range(iv.size))]
    while len(levels) <= upto:
        prev = levels[-1]
        second = prev if kind == "delta" else range(iv.size)
        levels.append(frozenset(iv.comm(a, b) for a in prev for b in second))
    return [set(iv.perms(level)) for level in levels]


def check_levels_against_pairwise(G: PermGroup) -> None:
    delta = pairwise_levels(G, "delta", 3)
    for k in range(4):
        assert set(delta_values(G, k).values) == delta[k], ("delta", k)
    gamma = pairwise_levels(G, "gamma", 2)
    for k in (1, 2, 3):
        assert set(gamma_values(G, k).values) == gamma[k - 1], ("gamma", k)


class TestLevelsFromClassRepresentatives:
    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_levels_match_pairwise_oracle(self, corpus, name):
        check_levels_against_pairwise(corpus[name])

    @pytest.mark.parametrize("name", ["AGammaL1_8", "AGL1_16", "C2wrS4", "PGL2_7"])
    def test_scale_levels_match_pairwise_oracle(self, name):
        check_levels_against_pairwise(load_group(str(CORPUS / f"{name}.grp")))

    @pytest.mark.usefixtures("stall_deadline")
    def test_s4wrc2_levels_and_criterion_build_few_rows(self):
        # the pairwise levels built all 1152 multiplication rows of S4 wr C2
        G = load_group(str(CORPUS / "S4wrC2.grp"))
        for k in (1, 2, 3):
            delta_values(G, k)
            gamma_values(G, k)
            coprime_product_criterion(G, k, "delta")
            coprime_product_criterion(G, k, "gamma")
        built = sum(row is not None for row in indexed_view(G)._rows)
        assert built < G.order() // 8


class TestDeltaValues:
    def test_depth_zero_is_everything(self, s4):
        vs = delta_values(s4, 0)
        assert set(vs.values) == set(s4.elements())

    def test_s3_depth_one_by_full_pair_enumeration(self, s3):
        vs = delta_values(s3, 1)
        oracle = {commutator(a, b)
                  for a, b in itertools.product(s3.elements(), repeat=2)}
        assert set(vs.values) == oracle
        assert oracle == {Permutation.identity(3), perm("(1 2 3)", 3), perm("(1 3 2)", 3)}

    def test_abelian_depth_one_is_identity(self):
        vs = delta_values(cyclic(6), 1)
        assert len(vs) == 1 and vs.values.elements[0].is_identity()

    def test_monotone_and_stabilizing(self, s4):
        sets = [set(delta_values(s4, k).values) for k in range(5)]
        for smaller, larger in zip(sets[1:], sets):
            assert smaller <= larger
        assert delta_values(s4, 3).stabilized
        assert len(delta_values(s4, 3)) == 1

    def test_requesting_past_stabilization_flags_it(self, a5):
        vs = delta_values(a5, 6)
        assert vs.stabilized
        assert set(vs.values) == set(a5.elements())


def assert_indices_are_the_values(G: PermGroup, vs) -> None:
    iv = indexed_view(G)
    assert vs.indices == {iv.index[v.images] for v in vs.values}
    assert len(vs.indices) == len(vs.values)
    assert [v.images for v in vs.values] == sorted(v.images for v in vs.values)


class TestValueIndexSets:
    @pytest.mark.parametrize("name", builtin_names())
    def test_indices_are_the_values_on_the_view(self, corpus, name):
        G = corpus[name]
        for k in range(4):
            assert_indices_are_the_values(G, delta_values(G, k))
        for k in (1, 2, 3):
            assert_indices_are_the_values(G, gamma_values(G, k))
        # depth 2 walks |G|^4 tuples: kept to the small groups, as in TestTupleOracle
        for k in (0, 1, 2) if G.order() <= 24 else (0, 1):
            assert_indices_are_the_values(G, delta_values_bruteforce(G, k))

    def test_indices_are_the_cached_level_not_a_copy(self, s4):
        assert delta_values(s4, 1).indices is delta_values(s4, 1).indices


class TestGammaValues:
    def test_depth_one_is_everything(self, s4):
        assert set(gamma_values(s4, 1).values) == set(s4.elements())

    def test_depth_two_matches_delta_depth_one(self, s4, s3):
        for G in (s4, s3):
            assert set(gamma_values(G, 2).values) == set(delta_values(G, 1).values)

    def test_d8_stabilizes_at_identity_with_the_series(self, d8):
        from nilcrit.structure import lower_central_series
        profile = lower_central_series(d8).orders
        depth = len(profile)  # series reaches 1 at term index len-1 (1-indexed depth)
        vs = gamma_values(d8, depth)
        assert len(vs) == 1
        assert gamma_values(d8, depth - 1).__len__() > 1

    def test_rejects_depth_zero(self, s4):
        with pytest.raises(ValueError):
            gamma_values(s4, 0)


class TestTupleOracle:
    def test_matches_closure_for_small_groups(self, s4, s3, v4, d8):
        for G in (s3, v4, d8, cyclic(7), s4):
            for k in (0, 1, 2):
                fast = set(delta_values(G, k).values)
                brute = set(delta_values_bruteforce(G, k).values)
                assert fast == brute, (G.name, k)

    def test_sampled_tuples_land_in_the_value_set(self, s4, a5):
        rng = random.Random(11)
        for G in (s4, a5):
            for k in (1, 2, 3):
                vs = delta_values(G, k)
                elems = G.elements()
                for _ in range(200):
                    args = [elems[rng.randrange(len(elems))] for _ in range(2 ** k)]
                    assert evaluate_delta(k, args) in vs

    def test_gamma_samples_land_in_the_value_set(self, s4):
        rng = random.Random(13)
        elems = s4.elements()
        for k in (2, 3, 4):
            vs = gamma_values(s4, k)
            for _ in range(200):
                args = [elems[rng.randrange(len(elems))] for _ in range(k)]
                assert evaluate_gamma(args) in vs


class TestVerbalSubgroup:
    def test_depth_zero_gives_group(self, s4):
        assert verbal_subgroup(delta_values(s4, 0)).equals(s4)

    def test_s4_depths_match_derived_series(self, s4):
        series = derived_series(s4)
        assert verbal_subgroup(delta_values(s4, 1)).equals(series.terms[1])
        assert verbal_subgroup(delta_values(s4, 2)).equals(series.terms[2])
        assert verbal_subgroup(delta_values(s4, 1)).order() == 12
        assert verbal_subgroup(delta_values(s4, 2)).order() == 4

    def test_gamma_matches_lower_central_terms(self, s4, s3, d8):
        for G in (s4, s3, d8):
            for k in (1, 2, 3, 4):
                assert verbal_subgroup(gamma_values(G, k)).equals(lower_central_term(G, k))


class TestClosurePredicates:
    def test_identity_singleton(self):
        xs = [Permutation.identity(3)]
        assert is_commutator_closed(xs) and is_symmetric(xs)

    def test_value_sets_are_closed_and_symmetric(self, s4, a5):
        for G in (s4, a5):
            vs = delta_values(G, 1)
            assert is_commutator_closed(vs.values)
            assert is_symmetric(vs.values)
            assert all(x.conjugate(g) in vs for x in vs.values for g in G.generators)

    def test_missing_inverse(self):
        assert not is_symmetric([perm("(1 2 3)", 3)])


class TestGeneratorTower:
    def test_nilpotent_group_has_height_one(self, d8):
        tower = generator_tower(d8)
        assert tower.height == 1
        assert tower.normalizers[0].equals(d8)
        expected = {x for x in d8.elements()}  # 2-group: everything is prime power
        assert set(tower.generating_set) == expected

    def test_s4_tower_shape(self, s4):
        tower = generator_tower(s4)
        assert tower.height == 3
        assert tower.chain_orders() == (24, 12, 4)
        assert tower.normalizer_orders() == (2, 3, 4)

    def test_s3_tower_shape(self, s3):
        tower = generator_tower(s3)
        assert tower.height == 2
        assert tower.normalizer_orders() == (2, 3)

    def test_generating_set_properties(self, s4, s3):
        for G in (s4, s3):
            X = generator_tower(G).generating_set
            assert is_commutator_closed(X)
            from nilcrit.group import subgroup_generated
            assert subgroup_generated(G.degree, X.elements).order() == G.order()

    def test_depth_sets_generate_derived_terms(self, s4):
        tower = generator_tower(s4)
        from nilcrit.group import subgroup_generated
        for i in range(min(3, len(tower.depth_sets))):
            span = subgroup_generated(4, tower.depth_sets[i].elements)
            assert span.equals(derived_term(s4, i))

    def test_insoluble_rejected(self, a5):
        from nilcrit.errors import NotSoluble
        with pytest.raises(NotSoluble):
            generator_tower(a5)

    @pytest.mark.parametrize("name", filter_names("soluble"))
    def test_depth_sets_match_pairwise_commutators(self, corpus, name):
        # the former depth sets: all commutators of the previous set's members
        tower = generator_tower(corpus[name])
        for prev, nxt in zip(tower.depth_sets, tower.depth_sets[1:]):
            assert set(nxt) == {commutator(a, b) for a in prev for b in prev}
        last = tower.depth_sets[-1]
        assert len(last) == 1


class TestDerivedFromClosedSet:
    def test_whole_group_input(self, s4):
        H = derived_from_closed_set(s4, s4.element_set())
        assert H.order() == 12

    def test_tower_set_input(self, s4):
        X = generator_tower(s4).generating_set
        H = derived_from_closed_set(s4, X)
        assert H.equals(derived_term(s4, 1))

    def test_abelian_gives_trivial(self):
        G = cyclic(5)
        H = derived_from_closed_set(G, G.element_set())
        assert H.is_trivial()

    def test_rejects_unclosed_set(self, s4):
        X = ElementSet.from_iterable(4, list(s4.generators))
        with pytest.raises(NotCommutatorClosed):
            derived_from_closed_set(s4, X)

    def test_rejects_non_generating_set(self, s4, v4):
        with pytest.raises(NotGenerating):
            derived_from_closed_set(s4, v4.element_set())

    def test_fifty_random_closed_sets(self, s4, s3, d8):
        for G in (s4, s3, d8):
            expected = derived_term(G, 1)
            for trial in range(50):
                rng = random.Random((G.name, trial).__hash__() & 0xFFFFFFF)
                X = random_commutator_closed_generating_set(G, rng)
                assert derived_from_closed_set(G, X).equals(expected)
