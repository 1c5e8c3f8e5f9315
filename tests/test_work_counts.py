"""Work-count gate: chains, normal closures, permutability tests and conjugate tables in one CLI run.

Each count is exact and deterministic, so the gate holds on a machine of any
speed: a duplicate build coming back raises a count past its committed
limit, and a Sylow-basis search that tests a pair twice or undoes a choice
runs more permutability tests.  A change that lowers a count lowers its
limit here; one that raises a count must say why.  No subcommand builds a
table of all |G| conjugates of an element other than a generator of G, or a
spanning tree of G: the view keeps one conjugate table per generator, and
every other conjugate is formed on image bytes.  The criterion scans, the
focal check and the probe never fill G's inverse list: the word levels and
the Sylow scan form the inverse table of each element they reach.  The
groups are read from ``bench/corpus``, read only.
"""

from __future__ import annotations

import sys
from functools import cached_property

import pytest

import nilcrit.group
import nilcrit.structure
from nilcrit.chain import StabilizerChain
from nilcrit.cli import main
from nilcrit.indexed import IndexedGroup

from conftest import SCALE_CORPUS

# (subcommand, group, extra arguments)
#     -> (chain constructions, normal_closure calls, _permutable calls)
LIMITS = {
    ("series", "S3wrC3", ()): (6, 5, 0),
    ("series", "S4xS4", ()): (6, 5, 0),
    ("tower", "S3wrC3", ()): (6, 5, 2),
    ("tower", "S4xS4", ()): (6, 5, 2),
    ("tower", "AGL1_16", ()): (4, 3, 3),
    ("tower", "AGammaL1_8", ()): (6, 5, 4),
    ("criterion", "S4wrC2", ("--k", "1..3")): (7, 6, 0),
    ("lemmas", "S4xS4", ("--k", "1..3")): (6, 5, 0),
}


@pytest.fixture
def counts(monkeypatch) -> dict[str, int]:
    """Count StabilizerChain constructions, normal_closure calls, in every module binding
    them, and Sylow permutability tests."""
    seen = {"chains": 0, "closures": 0, "permutable": 0}

    class Counted(StabilizerChain):
        def __init__(self, *args, **kwargs):
            seen["chains"] += 1
            super().__init__(*args, **kwargs)

    closure = nilcrit.group.normal_closure

    def counted_closure(*args, **kwargs):
        seen["closures"] += 1
        return closure(*args, **kwargs)

    permutable = nilcrit.structure._permutable

    def counted_permutable(*args, **kwargs):
        seen["permutable"] += 1
        return permutable(*args, **kwargs)

    monkeypatch.setattr(nilcrit.group, "StabilizerChain", Counted)
    monkeypatch.setattr(nilcrit.structure, "_permutable", counted_permutable)
    for name, module in list(sys.modules.items()):
        if name.startswith("nilcrit") and getattr(module, "normal_closure", None) is closure:
            monkeypatch.setattr(module, "normal_closure", counted_closure)
    return seen


@pytest.mark.parametrize("command, group, extra", list(LIMITS),
                         ids=[" ".join((c, g, *e)) for c, g, e in LIMITS])
def test_builds_at_most_the_committed_counts(command, group, extra, counts, capsys):
    assert main([command, str(SCALE_CORPUS / f"{group}.grp"), *extra]) == 0
    capsys.readouterr()
    chains, closures, permutable = LIMITS[command, group, extra]
    assert counts["chains"] <= chains
    assert counts["closures"] <= closures
    assert counts["permutable"] <= permutable
    assert counts["closures"] > 0  # the counters are in place



K3 = ("--k", "1..3")
# label -> argv after the group; the label's first word is the subcommand
READ_NO_CONJUGATE_TABLE = {
    "tower": (),
    "criterion": K3,
    "criterion gamma": ("--kind", "gamma", *K3),
    "focal": K3,
    "probe": K3,
    "lemmas": K3,
}
SCALE_GROUPS = sorted(path.stem for path in SCALE_CORPUS.glob("*.grp"))


@pytest.fixture
def table_calls(monkeypatch) -> dict[str, int]:
    """Count the conjugate tables the views hand out, by whom they conjugate.

    ``generator`` counts tables of x -> x^s for a generator s of G, once per
    view; ``other`` counts every table beyond those: more tables than G has
    generators, a table of another length than |G|, or a second set of
    tables built for a view that already has one.
    """
    seen = {"views": 0, "generator": 0, "other": 0}
    built: list[tuple[IndexedGroup, list[list[int]]]] = []
    method = IndexedGroup.conjugation_tables

    def counted(self):
        tables = method(self)
        earlier = [t for view, t in built if view is self]
        if earlier:
            if earlier[0] is not tables:
                seen["other"] += len(tables)
            return tables
        built.append((self, tables))
        gens = len(self.group.generators)
        seen["views"] += 1
        seen["generator"] += sum(len(t) == self.size for t in tables[:gens])
        seen["other"] += sum(len(t) != self.size for t in tables[:gens]) + len(tables[gens:])
        return tables

    monkeypatch.setattr(IndexedGroup, "conjugation_tables", counted)
    return seen


def test_the_scale_corpus_is_found():
    assert len(SCALE_GROUPS) == 11


@pytest.mark.parametrize("group", SCALE_GROUPS)
@pytest.mark.parametrize("label", list(READ_NO_CONJUGATE_TABLE))
def test_builds_no_conjugate_table_or_spanning_tree(label, group, table_calls, capsys):
    argv = [label.split()[0], str(SCALE_CORPUS / f"{group}.grp"), *READ_NO_CONJUGATE_TABLE[label]]
    assert main(argv) == 0
    capsys.readouterr()
    # the only conjugate tables are those of G's generators, built once per view
    assert table_calls["other"] == 0


def test_the_table_counters_are_in_place(table_calls, capsys):
    # the fitting-membership and coprime-action lemmas read the class labels,
    # which are built from the generator tables
    assert main(["lemmas", str(SCALE_CORPUS / "AGL1_16.grp"), "--k", "1"]) == 0
    capsys.readouterr()
    assert table_calls["views"] > 0 and table_calls["generator"] >= table_calls["views"]
    assert table_calls["other"] == 0
    # no spanning tree and no table of one element's |G| conjugates is kept on the view
    assert not any(hasattr(IndexedGroup, name)
                   for name in ("conjugates", "times", "_spanning_tree", "_generator_tables"))


# label -> argv after the group, for the commands that read no inverse list
READ_NO_INVERSE_LIST = {label: argv for label, argv in READ_NO_CONJUGATE_TABLE.items()
                        if label.split()[0] in ("criterion", "focal", "probe")}


@pytest.fixture
def inverse_fills(monkeypatch) -> list[IndexedGroup]:
    """The views whose inverse list is filled, one entry per fill."""
    filled: list[IndexedGroup] = []
    inverse = IndexedGroup.__dict__["inverse"]
    assert isinstance(inverse, cached_property)

    def counted(self):
        if "inverse" not in self.__dict__:
            filled.append(self)
        return inverse.__get__(self, IndexedGroup)

    monkeypatch.setattr(IndexedGroup, "inverse", property(counted))
    return filled


@pytest.mark.parametrize("group", SCALE_GROUPS)
@pytest.mark.parametrize("label", list(READ_NO_INVERSE_LIST))
def test_fills_no_inverse_list(label, group, inverse_fills, capsys):
    argv = [label.split()[0], str(SCALE_CORPUS / f"{group}.grp"), *READ_NO_INVERSE_LIST[label]]
    assert main(argv) == 0
    capsys.readouterr()
    assert inverse_fills == []


def test_the_inverse_counter_is_in_place(inverse_fills, capsys):
    # the tower's commutator table reads the inverse list, once per view
    assert main(["tower", str(SCALE_CORPUS / "S4xS4.grp")]) == 0
    capsys.readouterr()
    assert len(inverse_fills) == 1
