"""The generator tower on the soluble scale groups that no benchmark tower covers.

Each tower runs under the 30 s deadline of tests/conftest.py.  The pinned
chain orders, normalizer orders and |X| are those the tower gave while its
Sylow layer still conjugated every element of P by every element of G.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from nilcrit.corpus import load_group
from nilcrit.perm import Permutation, commutator
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

    def counted(a, b):
        nonlocal calls
        calls += 1
        return commutator(a, b)

    monkeypatch.setattr("nilcrit.words.commutator", counted)
    tower = generator_tower(G)
    assert calls <= len(tower.generating_set) ** 2
