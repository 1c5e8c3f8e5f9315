"""The incremental stabilizer chain: growth by ``add``, degree checks, one chain per closure."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import nilcrit.group
from nilcrit.chain import StabilizerChain
from nilcrit.corpus import builtin_names, load_group
from nilcrit.errors import DegreeMismatch
from nilcrit.group import normal_closure, subgroup_generated
from nilcrit.perm import Permutation

from conftest import PermutationChain, closure_oracle, perm
from oracles import contains

ALL_OF_S = {n: [Permutation(p) for p in itertools.permutations(range(n))] for n in range(1, 7)}


def generator_lists(max_degree: int = 7, max_length: int = 4):
    return st.integers(1, max_degree).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.permutations(range(n)).map(Permutation), max_size=max_length)))


@settings(max_examples=150, deadline=None)
@given(generator_lists())
def test_adding_one_generator_at_a_time_matches_a_breadth_first_closure(case):
    n, gens = case
    chain = StabilizerChain(n)
    kept: list[Permutation] = []
    members = {Permutation.identity(n)}
    for g in gens:
        grows = g not in members
        assert chain.add(g) is grows
        if grows:
            kept.append(g)
            members = closure_oracle(n, kept)
        assert chain.order() == len(members)
        if n in ALL_OF_S:
            assert {p for p in ALL_OF_S[n] if chain.contains(p)} == members
    assert sorted(chain.elements()) == sorted(p.images for p in members)
    # the chain grown one element at a time is the one built from them all at once
    want = PermutationChain(n, gens)
    assert chain.base == want.base
    assert chain.strong == want.strong
    assert chain.transversals == want.transversals


def test_a_member_leaves_the_chain_as_it_was():
    a, b = perm("(1 2 3 4)", 4), perm("(1 3)", 4)
    chain = StabilizerChain(4, [a, b])
    layout = (list(chain.base), list(chain.strong), chain.transversals)
    for g in (a * b, b * a * b, Permutation.identity(4)):
        assert chain.add(g) is False
    assert (chain.base, chain.strong, chain.transversals) == layout
    assert chain.order() == 8


class TestDegree:
    def test_a_generator_of_another_degree_is_refused(self):
        with pytest.raises(DegreeMismatch, match="degree 4 in a degree-3 chain"):
            StabilizerChain(3, [perm("(1 2 3 4)", 4)])
        chain = StabilizerChain(3, [perm("(1 2)", 3)])
        with pytest.raises(DegreeMismatch):
            chain.add(perm("(1 2 3 4)", 4))
        assert chain.order() == 2

    def test_degrees_are_checked_before_any_sift(self, monkeypatch):
        sifts = []
        sift = StabilizerChain._sift

        def counted(self, g, start):
            sifts.append(g)
            return sift(self, g, start)

        monkeypatch.setattr(StabilizerChain, "_sift", counted)
        with pytest.raises(DegreeMismatch):
            StabilizerChain(3, [perm("(1 2)", 3), perm("(1 2 3)", 3), perm("(1 2 3 4)", 4)])
        assert sifts == []

    def test_closures_refuse_an_input_of_another_degree(self, s4):
        with pytest.raises(DegreeMismatch):
            subgroup_generated(3, [perm("(1 2)", 3), perm("(1 2 3 4)", 4)])
        with pytest.raises(DegreeMismatch):
            normal_closure(s4, [perm("(1 2)(3 4)", 4), perm("(1 2 3 4 5)", 5)])

    def test_contains_answers_no_for_another_degree(self):
        assert not StabilizerChain(3, [perm("(1 2 3)", 3)]).contains(perm("(1 2 3)", 4))


class TestOneChainPerClosure:
    @pytest.fixture
    def builds(self, monkeypatch) -> list[StabilizerChain]:
        built: list[StabilizerChain] = []

        class Counted(StabilizerChain):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(nilcrit.group, "StabilizerChain", Counted)
        return built

    @pytest.mark.parametrize("name", builtin_names())
    def test_each_closure_builds_exactly_one_chain(self, name, builds):
        G = load_group(name)
        seeds = [
            list(G.generators),
            list(G.generators) * 2 + [g * h for g in G.generators for h in G.generators],
            [g.conjugate(h) for g in G.generators for h in G.generators],
            [],
        ]
        for seed in seeds:
            for closure in (lambda s: subgroup_generated(G.degree, s),
                            lambda s: normal_closure(G, s)):
                builds.clear()
                H = closure(seed)
                assert len(builds) == 1
                assert H.chain() is builds[0]
                assert contains(H, H.generators[-1])
                H.order()
                assert len(builds) == 1
