"""The indexed view and the stabilizer chain on image bytes, against their Permutation-object oracles.

Columns, inverses, orders, enumeration and sifts run on ``bytes``
images; ``PermutationView`` and ``PermutationChain`` in tests/conftest.py
compute the same tables and chains with a Permutation per product.
"""

from __future__ import annotations

import random

import pytest

from nilcrit.chain import StabilizerChain
from nilcrit.corpus import builtin_names, load_group
from nilcrit.group import PermGroup
from nilcrit.indexed import indexed_view
from nilcrit.perm import MAX_DEGREE, Permutation, commutator

from conftest import (
    SCALE_CORPUS,
    PermutationChain,
    PermutationView,
    regular_cyclic,
    regular_elementary_abelian,
    scale_group,
)

SCALE_NAMES = sorted(p.stem for p in SCALE_CORPUS.glob("*.grp"))


def assert_view_matches_oracle(G: PermGroup) -> None:
    iv = indexed_view(G)
    want = PermutationView(G)
    assert iv.elements == want.elements
    assert iv.index == {p.images: i for p, i in want.index.items()}
    assert iv.order_of == want.order_of
    assert iv.inverse == want.inverse
    # every column, so the whole multiplication table
    for s in range(iv.size):
        assert iv.times(s) == want.times(s), s
    assert iv.conjugation_tables() == want.conjugation_tables()


def assert_chain_matches_oracle(degree: int, generators: list[Permutation]) -> None:
    chain = StabilizerChain(degree, generators)
    want = PermutationChain(degree, generators)
    assert chain.base == want.base
    assert chain.strong == want.strong
    assert [list(t) for t in chain.transversals] == [list(t) for t in want.transversals]
    assert [list(t.values()) for t in chain.transversals] == \
        [list(t.values()) for t in want.transversals]
    assert sorted(chain.elements()) == sorted(p.images for p in want.elements())


def assert_chains_match_oracle(G: PermGroup) -> None:
    """On G's generators, and on a few seeded random generator lists of G."""
    rng = random.Random(G.name)
    assert_chain_matches_oracle(G.degree, list(G.generators))
    for size in (1, 2, 3):
        assert_chain_matches_oracle(G.degree, [G.random_element(rng) for _ in range(size)])


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_view_and_chain_match_oracles(name):
    G = load_group(name)
    assert_chains_match_oracle(G)
    assert_view_matches_oracle(G)


@pytest.mark.parametrize("name", SCALE_NAMES)
def test_scale_view_and_chain_match_oracles(name):
    G = scale_group(name)
    assert_chains_match_oracle(G)
    assert_view_matches_oracle(G)


def test_scale_corpus_has_eleven_groups():
    assert len(SCALE_NAMES) == 11


@pytest.mark.parametrize("G", [regular_cyclic(MAX_DEGREE), regular_elementary_abelian(8),
                               PermGroup(1, ())], ids=["C256", "C2^8", "degree1"])
def test_view_and_chain_at_the_degree_limits(G):
    # at degree 256 a pad has no identity tail; at degree 1 the group is trivial
    assert_chains_match_oracle(G)
    assert_view_matches_oracle(G)
    iv = indexed_view(G)
    assert iv.size == G.order() == (1 if G.degree == 1 else MAX_DEGREE)
    assert all(G.contains(p) for p in iv.elements)
    if G.degree > 1:
        assert max(iv.order_of) == (MAX_DEGREE if G.name == "C256" else 2)
        outside = Permutation([1, 0] + list(range(2, G.degree)))
        assert not G.contains(outside)


@pytest.mark.parametrize("name", ["S3", "Q8", "S4", "SL2_3", "C3wrC2", "A5"])
def test_comm_and_conj_match_permutations_and_force_no_row(name):
    G = load_group(name)
    iv = indexed_view(G)
    elems = iv.elements
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert iv.comm(i, j) == iv.index[commutator(a, b).images], (i, j)
            assert iv.conj(i, j) == iv.index[a.conjugate(b).images], (i, j)


def test_view_makes_no_permutation_product(monkeypatch):
    loaded = scale_group("S4wrC2")
    calls = 0
    mul = Permutation.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(Permutation, "__mul__", counted)
    G = PermGroup(loaded.degree, loaded.generators)  # a fresh chain and enumeration
    iv = indexed_view(G)
    assert iv.closure(iv.index[s.images] for s in G.generators) == frozenset(range(iv.size))
    labels, reps = iv.coset_labels(iv.closure([iv.size // 2]))
    assert len(reps) * labels.count(0) == iv.size
    iv.conjugation_tables()
    assert iv.size == 1152
    assert calls == 0
