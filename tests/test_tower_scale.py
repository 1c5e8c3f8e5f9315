"""The generator tower on the soluble scale groups that no benchmark tower covers.

Each tower runs under the 30 s deadline of tests/conftest.py.  The pinned
chain orders, normalizer orders and |X| are those the tower gave while its
Sylow layer still conjugated every element of P by every element of G.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from nilcrit.corpus import load_group
from nilcrit.group import PermGroup
from nilcrit.indexed import IndexedGroup
from nilcrit.perm import Permutation
from nilcrit.structure import sylow_basis
from nilcrit.words import generator_tower

CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"


@pytest.mark.usefixtures("stall_deadline")
@pytest.mark.parametrize("name, chain, normalizers, size", [
    ("C2wrS4", (384, 96, 32), (8, 6, 32), 40),
    ("S4wrC2", (1152, 144, 16), (8, 9, 16), 31),
    ("ASL2_3", (216, 72, 9), (6, 8, 9), 18),
    ("AGL2_3", (432, 216, 72, 9), (4, 6, 8, 9), 20),
])
def test_pinned_tower(name, chain, normalizers, size):
    tower = generator_tower(load_group(str(CORPUS / f"{name}.grp")))
    assert tower.chain_orders() == chain
    assert tower.normalizer_orders() == normalizers
    assert len(tower.generating_set) == size


@pytest.mark.usefixtures("stall_deadline")
@pytest.mark.parametrize("degree, generators, chain, normalizers, depth_sizes", [
    # S3 wr S3
    (9, ["(1 2)", "(1 2 3)", "(1 4)(2 5)(3 6)", "(1 4 7)(2 5 8)(3 6 9)"],
     (1296, 324, 108, 27), (4, 3, 4, 27), [35, 32, 24, 19, 1]),
    # C3 wr S4
    (12, ["(1 2 3)", "(1 4)(2 5)(3 6)", "(1 4 7 10)(2 5 8 11)(3 6 9 12)"],
     (1944, 324, 108, 27), (6, 3, 4, 27), [35, 26, 24, 19, 1]),
])
def test_pinned_wreath_tower(degree, generators, chain, normalizers, depth_sizes):
    G = PermGroup(degree, [Permutation.parse_cycles(g, degree) for g in generators])
    tower = generator_tower(G)
    assert tower.chain_orders() == chain
    assert tower.normalizer_orders() == normalizers
    assert len(tower.generating_set) == depth_sizes[0]
    assert [len(d) for d in tower.depth_sets] == depth_sizes


def test_sylow_basis_conjugates_few_permutations(monkeypatch):
    # conjugating every element of P by every element of G took 137 |G| calls
    G = load_group(str(CORPUS / "S4wrC2.grp"))
    calls = 0
    conjugate = Permutation.conjugate

    def counted(self, by):
        nonlocal calls
        calls += 1
        return conjugate(self, by)

    monkeypatch.setattr(Permutation, "conjugate", counted)
    sylow_basis(G)
    assert calls < 2 * G.order()


def test_tower_forms_each_member_commutator_once(monkeypatch):
    # the closure check and every depth set used to form their own commutators
    G = load_group(str(CORPUS / "S4wrC2.grp"))
    calls = 0
    comm = IndexedGroup.comm

    def counted(self, i, j):
        nonlocal calls
        calls += 1
        return comm(self, i, j)

    monkeypatch.setattr(IndexedGroup, "comm", counted)
    tower = generator_tower(G)
    assert 0 < calls <= len(tower.generating_set) ** 2
