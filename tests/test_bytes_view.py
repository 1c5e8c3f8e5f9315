"""The indexed view and the stabilizer chain on image bytes, against their Permutation-object oracles.

Products, inverses, conjugation tables, orders, enumeration and sifts run
on ``bytes`` images; ``PermutationView`` and ``PermutationChain`` in tests/conftest.py
compute the same tables and chains with a Permutation per product.  The
view itself wraps no element as a Permutation while it is built, forms its
inverse list only when a scan reads it, and keeps the index set of every
subgroup it wraps, checked here against each subgroup's own chain.
"""

from __future__ import annotations

import random

import pytest

import nilcrit.indexed
from nilcrit.chain import StabilizerChain
from nilcrit.cli import main
from nilcrit.corpus import builtin_names, load_group
from nilcrit.group import PermGroup
from nilcrit.indexed import IndexedGroup, indexed_view
from nilcrit.perm import MAX_DEGREE, Permutation, commutator
from nilcrit.primes import prime_factors
from nilcrit.structure import (
    fitting_subgroup,
    intersect_basis,
    is_soluble,
    lower_fitting_series,
    p_core,
    sylow_basis,
    sylow_subgroup,
)
from nilcrit.words import _commutator_table, generator_tower

from conftest import (
    SCALE_CORPUS,
    PermutationChain,
    PermutationView,
    regular_cyclic,
    regular_elementary_abelian,
    scale_group,
)
from oracles import contains, random_element

SCALE_NAMES = sorted(p.stem for p in SCALE_CORPUS.glob("*.grp"))


def assert_view_matches_oracle(G: PermGroup) -> None:
    iv = indexed_view(G)
    want = PermutationView(G)
    assert tuple(iv.perms(range(iv.size))) == want.elements
    assert iv.index == {p.images: i for p, i in want.index.items()}
    assert iv.order_of == want.order_of
    assert iv.inverse == want.inverse
    # every column, so the whole multiplication table: z*s is z's images through s's pad
    for s in range(iv.size):
        assert [iv.index[z.translate(iv.pads[s])] for z in iv.images] == want.times(s), s
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
        assert_chain_matches_oracle(G.degree, [random_element(G, rng) for _ in range(size)])


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
    assert all(contains(G, p) for p in iv.perms(range(iv.size)))
    if G.degree > 1:
        assert max(iv.order_of) == (MAX_DEGREE if G.name == "C256" else 2)
        outside = Permutation([1, 0] + list(range(2, G.degree)))
        assert not contains(G, outside)


@pytest.mark.parametrize("name", ["S3", "Q8", "S4", "SL2_3", "C3wrC2", "A5"])
def test_comm_and_conj_match_permutations_and_force_no_row(name):
    # over all of G, the tower's commutator table holds each [a, b]'s own index
    G = load_group(name)
    iv = indexed_view(G)
    elems = iv.perms(range(iv.size))
    table = _commutator_table(iv, list(range(iv.size)))
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert table[i][j] == iv.index[commutator(a, b).images], (i, j)
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


def test_criterion_run_wraps_no_element_and_forms_no_inverse_list(monkeypatch, capsys):
    # every k fails on a scale group, so the run wraps its witnesses and no more
    views, wraps = [], 0
    wrap, init = nilcrit.indexed.wrap_images, IndexedGroup.__init__

    def counted_wrap(*args):
        nonlocal wraps
        wraps += 1
        return wrap(*args)

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        views.append((self, wraps))

    monkeypatch.setattr(nilcrit.indexed, "wrap_images", counted_wrap)
    monkeypatch.setattr(IndexedGroup, "__init__", recorded_init)
    path = str(SCALE_CORPUS / "S4wrC2.grp")
    assert main(["criterion", path, "--kind", "gamma", "--k", "1..3"]) == 0
    capsys.readouterr()
    [(iv, wrapped_while_built)] = views
    assert iv.size == 1152
    assert wrapped_while_built == 0
    assert wraps == 2 * 3  # a witness pair per k
    assert "elements" not in vars(iv) and "inverse" not in vars(iv)


def test_member_indices_of_a_view_built_subgroup_reads_its_kept_set(monkeypatch):
    G = scale_group("S4wrC2")
    iv = indexed_view(G)
    P = sylow_subgroup(G, 2)

    def refuse(self):
        raise AssertionError("the subgroup was enumerated")

    monkeypatch.setattr(StabilizerChain, "elements", refuse)
    monkeypatch.setattr(PermGroup, "chain", refuse)
    members = iv.member_indices(P)
    assert members is iv.member_indices(P)
    assert members == iv.closure(iv.index[g.images] for g in P.generators)
    assert len(members) == P.order() == 128
    assert P._chain is None


@pytest.mark.parametrize("name", [*builtin_names(), *(f"scale:{n}" for n in SCALE_NAMES)])
def test_view_built_subgroups_state_their_chain_order_and_index_set(name, monkeypatch):
    """Every subgroup a view wraps (Sylow subgroups and conjugates, cores, the Fitting
    subgroup, bases and basis normalizers) has the order and index set its own chain gives."""
    built = []
    known_subgroup = IndexedGroup.known_subgroup

    def recorded(self, members, generators):
        H = known_subgroup(self, members, generators)
        built.append((self, H))
        return H

    monkeypatch.setattr(IndexedGroup, "known_subgroup", recorded)
    G = scale_group(name[6:]) if name.startswith("scale:") else load_group(name)
    for p in prime_factors(G.order()):
        sylow_subgroup(G, p)
        p_core(G, p)
    fitting_subgroup(G)
    if is_soluble(G):
        for seed in (0, 3):
            B = sylow_basis(G, seed)
            for K in lower_fitting_series(G).terms:
                intersect_basis(B, K)
        generator_tower(G)
    assert built
    for iv, H in built:
        assert H.order() == H.chain().order()
        assert iv.member_indices(H) == frozenset(iv.index[b] for b in H.chain().elements())


def test_a_repeated_subgroup_keeps_the_first_index_set():
    G = load_group("S4")
    iv = indexed_view(G)
    seed = [iv.index[g.images] for g in sylow_subgroup(G, 2).generators]
    first = iv.member_indices(iv.subgroup(seed))
    again = iv.subgroup(seed)
    assert iv.member_indices(again) is first
    assert len(first) == again.order() == 8
