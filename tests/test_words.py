"""Word value sets and their index sets, the tower construction, and its generating set."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from nilcrit.corpus import builtin_names, filter_names, load_group
from nilcrit.criterion import coprime_product_criterion
from nilcrit.errors import NotCommutatorClosed, NotGenerating
from nilcrit.group import PermGroup, subgroup_generated
from nilcrit.indexed import IndexedGroup, indexed_view
from nilcrit.perm import Permutation, commutator
from nilcrit.structure import derived_series, derived_term, lower_central_term
from nilcrit.words import (
    delta_values,
    derived_from_closed_set,
    gamma_values,
    generator_tower,
    random_commutator_closed_generating_set,
)

from conftest import perm
from oracles import (
    delta_values_bruteforce,
    evaluate_delta,
    evaluate_gamma,
    is_commutator_closed,
    is_symmetric,
    verbal_subgroup,
)

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


def values(G: PermGroup, indices: frozenset[int]) -> set[Permutation]:
    """An index set on G's view, as Permutations."""
    return set(indexed_view(G).perms(indices))


def check_levels_against_pairwise(G: PermGroup) -> None:
    delta = pairwise_levels(G, "delta", 3)
    for k in range(4):
        assert values(G, delta_values(G, k).indices) == delta[k], ("delta", k)
    gamma = pairwise_levels(G, "gamma", 2)
    for k in (1, 2, 3):
        assert values(G, gamma_values(G, k).indices) == gamma[k - 1], ("gamma", k)


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
        assert values(s4, vs.indices) == set(s4.elements())

    def test_s3_depth_one_by_full_pair_enumeration(self, s3):
        vs = delta_values(s3, 1)
        oracle = {commutator(a, b)
                  for a, b in itertools.product(s3.elements(), repeat=2)}
        assert values(s3, vs.indices) == oracle
        assert oracle == {Permutation.identity(3), perm("(1 2 3)", 3), perm("(1 3 2)", 3)}

    def test_abelian_depth_one_is_identity(self):
        G = cyclic(6)
        vs = delta_values(G, 1)
        assert len(vs) == 1 and vs.indices == {indexed_view(G).identity_index}

    def test_monotone_and_stabilizing(self, s4):
        sets = [values(s4, delta_values(s4, k).indices) for k in range(5)]
        for smaller, larger in zip(sets[1:], sets):
            assert smaller <= larger
        # S4's derived length is 3: depth 3 and beyond return the stable set {1}
        assert sets[3] == sets[4] == {Permutation.identity(4)}
        assert len(delta_values(s4, 3)) == 1

    def test_requesting_past_stabilization_returns_the_stable_set(self, a5):
        vs = delta_values(a5, 6)
        assert (vs.kind, vs.k) == ("delta", 6)
        assert values(a5, vs.indices) == set(a5.elements())


class TestValueIndexSets:
    @pytest.mark.parametrize("name", builtin_names())
    def test_value_index_sets_are_unions_of_classes(self, corpus, name):
        # levels grow from class representatives, which needs each to be a normal subset
        G = corpus[name]
        iv = indexed_view(G)
        labels = iv.class_labels()[0]
        sets = [delta_values(G, k) for k in range(4)] + [gamma_values(G, k) for k in (1, 2, 3)]
        # depth 2 walks |G|^4 tuples: kept to the small groups, as in TestTupleOracle
        for k in (0, 1, 2) if G.order() <= 24 else (0, 1):
            brute = delta_values_bruteforce(G, k)
            assert brute.indices == delta_values(G, k).indices, k
            sets.append(brute)
        for vs in sets:
            assert len(vs) == len(vs.indices)
            hit = {labels[i] for i in vs.indices}
            assert {i for i in range(iv.size) if labels[i] in hit} == vs.indices, (vs.kind, vs.k)

    def test_indices_are_the_cached_level_not_a_copy(self, s4):
        assert delta_values(s4, 1).indices is delta_values(s4, 1).indices


class TestGammaValues:
    def test_depth_one_is_everything(self, s4):
        assert values(s4, gamma_values(s4, 1).indices) == set(s4.elements())

    def test_depth_two_matches_delta_depth_one(self, s4, s3):
        for G in (s4, s3):
            assert gamma_values(G, 2).indices == delta_values(G, 1).indices

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
                fast = delta_values(G, k).indices
                brute = delta_values_bruteforce(G, k).indices
                assert fast == brute, (G.name, k)

    def test_sampled_tuples_land_in_the_value_set(self, s4, a5):
        rng = random.Random(11)
        for G in (s4, a5):
            for k in (1, 2, 3):
                vs = values(G, delta_values(G, k).indices)
                elems = G.elements()
                for _ in range(200):
                    args = [elems[rng.randrange(len(elems))] for _ in range(2 ** k)]
                    assert evaluate_delta(k, args) in vs

    def test_gamma_samples_land_in_the_value_set(self, s4):
        rng = random.Random(13)
        elems = s4.elements()
        for k in (2, 3, 4):
            vs = values(s4, gamma_values(s4, k).indices)
            for _ in range(200):
                args = [elems[rng.randrange(len(elems))] for _ in range(k)]
                assert evaluate_gamma(args) in vs


class TestVerbalSubgroup:
    def test_depth_zero_gives_group(self, s4):
        assert verbal_subgroup(s4, delta_values(s4, 0).indices).equals(s4)

    def test_s4_depths_match_derived_series(self, s4):
        series = derived_series(s4)
        assert verbal_subgroup(s4, delta_values(s4, 1).indices).equals(series.terms[1])
        assert verbal_subgroup(s4, delta_values(s4, 2).indices).equals(series.terms[2])
        assert verbal_subgroup(s4, delta_values(s4, 1).indices).order() == 12
        assert verbal_subgroup(s4, delta_values(s4, 2).indices).order() == 4

    def test_gamma_matches_lower_central_terms(self, s4, s3, d8):
        for G in (s4, s3, d8):
            for k in (1, 2, 3, 4):
                span = verbal_subgroup(G, gamma_values(G, k).indices)
                assert span.equals(lower_central_term(G, k))


class TestClosurePredicates:
    def test_identity_singleton(self):
        xs = [Permutation.identity(3)]
        assert is_commutator_closed(xs) and is_symmetric(xs)

    def test_value_sets_are_closed_and_symmetric(self, s4, a5):
        for G in (s4, a5):
            vs = values(G, delta_values(G, 1).indices)
            assert is_commutator_closed(vs)
            assert is_symmetric(vs)
            assert all(x.conjugate(g) in vs for x in vs for g in G.generators)

    def test_missing_inverse(self):
        assert not is_symmetric([perm("(1 2 3)", 3)])


class TestGeneratorTower:
    def test_nilpotent_group_has_height_one(self, d8):
        tower = generator_tower(d8)
        assert tower.height == 1
        assert tower.normalizers[0].equals(d8)
        expected = {x for x in d8.elements()}  # 2-group: everything is prime power
        assert values(d8, tower.generating_set) == expected

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
            X = values(G, generator_tower(G).generating_set)
            assert is_commutator_closed(X)
            assert subgroup_generated(G.degree, sorted(X)).order() == G.order()

    def test_depth_sets_generate_derived_terms(self, s4):
        tower = generator_tower(s4)
        for i in range(min(3, len(tower.depth_sets))):
            span = verbal_subgroup(s4, tower.depth_sets[i])
            assert span.equals(derived_term(s4, i))

    def test_insoluble_rejected(self, a5):
        from nilcrit.errors import NotSoluble
        with pytest.raises(NotSoluble):
            generator_tower(a5)

    @pytest.mark.parametrize("name", filter_names("soluble"))
    def test_depth_sets_match_pairwise_commutators(self, corpus, name):
        # the former depth sets: all commutators of the previous set's members
        G = corpus[name]
        tower = generator_tower(G)
        for prev, nxt in zip(tower.depth_sets, tower.depth_sets[1:]):
            prev = values(G, prev)
            assert values(G, nxt) == {commutator(a, b) for a in prev for b in prev}
        last = tower.depth_sets[-1]
        assert len(last) == 1


def everything(G: PermGroup) -> frozenset[int]:
    return frozenset(range(G.order()))


class TestDerivedFromClosedSet:
    def test_whole_group_input(self, s4):
        H = derived_from_closed_set(s4, everything(s4))
        assert H.order() == 12

    def test_tower_set_input(self, s4):
        X = generator_tower(s4).generating_set
        H = derived_from_closed_set(s4, X)
        assert H.equals(derived_term(s4, 1))

    def test_abelian_gives_trivial(self):
        G = cyclic(5)
        H = derived_from_closed_set(G, everything(G))
        assert H.is_trivial()

    def test_rejects_unclosed_set(self, s4):
        iv = indexed_view(s4)
        X = frozenset(iv.index[g.images] for g in s4.generators)
        with pytest.raises(NotCommutatorClosed):
            derived_from_closed_set(s4, X)

    def test_rejects_non_generating_set(self, s4, v4):
        with pytest.raises(NotGenerating):
            derived_from_closed_set(s4, indexed_view(s4).member_indices(v4))

    @pytest.mark.parametrize("stray", [24, -1])
    def test_rejects_an_index_outside_the_view(self, s4, stray):
        # a negative index would otherwise name an element from the end of the view
        with pytest.raises(NotGenerating, match="not contained"):
            derived_from_closed_set(s4, everything(s4) | {stray})

    def test_keeps_the_generators_subgroup_generated_keeps(self, s4, s3, d8):
        # H is generated by the pair commutators in X's canonical order
        for G in (s4, s3, d8):
            sets = [everything(G), generator_tower(G).generating_set]
            sets += [random_commutator_closed_generating_set(G, random.Random(trial))
                     for trial in range(5)]
            for X in sets:
                members = indexed_view(G).perms(sorted(X))
                comms = [commutator(a, b) for a in members for b in members]
                want = subgroup_generated(G.degree, comms).generators
                assert derived_from_closed_set(G, X).generators == want

    def test_fifty_random_closed_sets(self, s4, s3, d8):
        for G in (s4, s3, d8):
            expected = derived_term(G, 1)
            for trial in range(50):
                rng = random.Random((G.name, trial).__hash__() & 0xFFFFFFF)
                X = random_commutator_closed_generating_set(G, rng)
                assert derived_from_closed_set(G, X).equals(expected)
