"""Word value sets and their index sets, the tower construction, and its generating set."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from nilcrit.corpus import builtin_names, filter_names, load_group
from nilcrit.criterion import coprime_product_criterion
from nilcrit.errors import NotSoluble
from nilcrit.group import PermGroup, subgroup_generated
from nilcrit.indexed import IndexedGroup, indexed_view
from nilcrit.perm import Permutation, commutator
from nilcrit.structure import derived_series, derived_term, is_soluble, lower_central_term
from nilcrit.words import delta_values, gamma_values, generator_tower

from conftest import CountingIndex, perm
from oracles import (
    delta_values_bruteforce,
    elements_of,
    evaluate_delta,
    evaluate_gamma,
    is_commutator_closed,
    is_symmetric,
    pair_commutator_span,
    random_commutator_closed_generating_set,
    verbal_subgroup,
)

CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"
SCALE_NAMES = sorted(path.stem for path in CORPUS.glob("*.grp"))


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
    def test_s4wrc2_levels_and_criterion_form_few_products(self):
        # the pairwise levels built all 1152 multiplication rows of S4 wr C2,
        # |G|^2 products; an eighth of them is the bound on rows it had since
        G = load_group(str(CORPUS / "S4wrC2.grp"))
        iv = indexed_view(G)
        iv.index = CountingIndex(iv.index)
        for k in (1, 2, 3):
            delta_values(G, k)
            gamma_values(G, k)
            coprime_product_criterion(G, k, "delta")
            coprime_product_criterion(G, k, "gamma")
        assert iv.index.lookups < G.order() ** 2 // 8


class TestDeltaValues:
    def test_depth_zero_is_everything(self, s4):
        vs = delta_values(s4, 0)
        assert values(s4, vs.indices) == set(elements_of(s4))

    def test_s3_depth_one_by_full_pair_enumeration(self, s3):
        vs = delta_values(s3, 1)
        oracle = {commutator(a, b)
                  for a, b in itertools.product(elements_of(s3), repeat=2)}
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
        assert values(a5, vs.indices) == set(elements_of(a5))


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
        assert values(s4, gamma_values(s4, 1).indices) == set(elements_of(s4))

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
                elems = elements_of(G)
                for _ in range(200):
                    args = [elems[rng.randrange(len(elems))] for _ in range(2 ** k)]
                    assert evaluate_delta(k, args) in vs

    def test_gamma_samples_land_in_the_value_set(self, s4):
        rng = random.Random(13)
        elems = elements_of(s4)
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
        expected = {x for x in elements_of(d8)}  # 2-group: everything is prime power
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

    def test_a_missed_derived_subgroup_is_a_bug(self, monkeypatch):
        # depth set 1 of S4 closes to A4, so a derived subgroup of S4 itself fails the check
        monkeypatch.setattr("nilcrit.words.derived_subgroup", lambda G: G)
        s4 = PermGroup(4, (perm("(1 2)", 4), perm("(1 2 3 4)", 4)))  # no tower kept on it
        with pytest.raises(RuntimeError, match="do not generate the derived subgroup"):
            generator_tower(s4)

    @pytest.mark.parametrize("name", builtin_names() + SCALE_NAMES)
    def test_depth_set_one_closes_to_the_derived_subgroup(self, corpus, name):
        # read-only: the scale groups are loaded from bench/corpus, nothing is written there
        G = corpus[name] if name in corpus else load_group(str(CORPUS / f"{name}.grp"))
        if not is_soluble(G):
            with pytest.raises(NotSoluble):
                generator_tower(G)
            return
        iv = indexed_view(G)
        want = iv.member_indices(derived_term(G, 1))
        assert iv.closure(generator_tower(G).depth_sets[1]) == want


def everything(G: PermGroup) -> frozenset[int]:
    return frozenset(range(G.order()))


class TestDerivedFromClosedSet:
    """The pair commutators of a commutator-closed generating set generate G'."""

    def test_whole_group_input(self, s4):
        assert len(pair_commutator_span(s4, everything(s4))) == 12

    def test_tower_set_input(self, s4):
        X = generator_tower(s4).generating_set
        want = indexed_view(s4).member_indices(derived_term(s4, 1))
        assert pair_commutator_span(s4, X) == want

    def test_abelian_gives_trivial(self):
        G = cyclic(5)
        assert len(pair_commutator_span(G, everything(G))) == 1

    def test_fifty_random_closed_sets(self, s4, s3, d8):
        for G in (s4, s3, d8):
            iv = indexed_view(G)
            expected = iv.member_indices(derived_term(G, 1))
            for trial in range(50):
                rng = random.Random(f"{G.name}/{trial}")
                X = random_commutator_closed_generating_set(G, rng)
                assert is_commutator_closed(iv.perms(X)), trial
                assert len(iv.closure(X)) == iv.size, trial
                assert pair_commutator_span(G, X) == expected, trial
