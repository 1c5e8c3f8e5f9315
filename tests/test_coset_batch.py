"""The batched coset lemmas: records, G/N closures on coset labels, and the work they do.

``nilcrit lemmas`` checks both coset lemmas through ``coset_lemma_batch``,
once per (p, X), and re-emits a batch for a depth whose value set equals an
earlier depth's.  Its records must be those of the one-instance checks,
``check_coset_intersection`` and ``check_lifted_generation``, called on a
group loaded apart; the quotient closure must be the label set of today's
preimage formula; and the work must be counted once per distinct (N, p, X).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nilcrit.cli as cli
from nilcrit.cli import main
from nilcrit.corpus import GroupDescriptor, builtin_names, load_group
from nilcrit.errors import HypothesisNotSatisfied
from nilcrit.group import PermGroup
from nilcrit.indexed import IndexedGroup, indexed_view
from nilcrit.lemmas import (
    COSET_DEPTHS,
    _check_normal_subgroup,
    _invariant_subgroup_family,
    check_coset_intersection,
    check_lifted_generation,
    normal_subgroups,
    p_power_value_closure,
)
from nilcrit.perm import Permutation
from nilcrit.primes import prime_factors
from nilcrit.structure import _sylow_indices, fitting_subgroup, sylow_subgroup
from conftest import regular_elementary_abelian, small_symmetric_subgroups
from oracles import (
    coset_closure_oracle,
    coset_intersection_instances,
    lifted_generation_instances,
)

COSET_LEMMAS = ("coset_intersection", "lifted_generation")


def descriptor_file(G: PermGroup, directory: Path, name: str) -> Path:
    path = directory / f"{name}.grp"
    desc = GroupDescriptor(name, G.degree, tuple(g.one_based() for g in G.generators), G.order())
    path.write_text(desc.canonical_text(), encoding="utf-8")
    return path


def record(report, depth: int) -> dict:
    """A lemma report as the JSON report holds it, with the instance's depth in its params."""
    witness = report.witness and {
        k: {"images": v.one_based(), "cycles": v.cycle_string()} if isinstance(v, Permutation)
        else v for k, v in report.witness.items()}
    return {"lemma": report.lemma_id, "group": report.group_id,
            "params": {**report.params, "depth": depth}, "holds": report.holds,
            "witness": witness, "checked": report.checked}


def per_instance_records(G: PermGroup) -> list[dict]:
    """The coset lemma records built from one check call per instance."""
    records = [record(check_coset_intersection(G, inst["N"], inst["p"], inst["X"]), inst["depth"])
               for inst in coset_intersection_instances(G)]
    for inst in lifted_generation_instances(G):
        try:
            rep = check_lifted_generation(G, inst["N"], inst["L"], inst["p"], inst["X"])
        except HypothesisNotSatisfied as exc:
            records.append({"lemma": "lifted_generation", "group": G.name,
                            "params": {"p": inst["p"], "N_order": len(inst["N"]),
                                       "L_order": len(inst["L"]), "depth": inst["depth"]},
                            "status": "hypothesis_not_satisfied", "detail": str(exc)})
            continue
        records.append(record(rep, inst["depth"]))
    return records


def batched_records(source: str, report: Path, capsys) -> list[dict]:
    """The coset lemma records of ``nilcrit lemmas``, read from its JSON report."""
    assert main(["lemmas", source, "--k", "1", "--json", str(report)]) == 0
    capsys.readouterr()
    records = json.loads(report.read_text(encoding="utf-8"))["records"]
    coset = [r for r in records if r["lemma"] in COSET_LEMMAS]
    assert records[:len(coset)] == coset  # the coset lemmas come first
    return coset


class TestBatchedRecords:
    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_records_equal_the_one_instance_checks(self, name, tmp_path, capsys):
        got = batched_records(name, tmp_path / "report.json", capsys)
        assert got == per_instance_records(load_group(name))

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_elementary_abelian_records_equal_the_one_instance_checks(self, bits, tmp_path,
                                                                     capsys):
        path = descriptor_file(regular_elementary_abelian(bits), tmp_path, f"C2x{bits}")
        got = batched_records(str(path), tmp_path / "report.json", capsys)
        want = per_instance_records(load_group(str(path)))
        assert got == want
        # every subgroup of C2^n is normal and X is {1} from depth 1 on, so
        # depth 2 re-emits depth 1, and most lifted instances are inadmissible
        inadmissible = sum("status" in r for r in want)
        assert 0 < inadmissible < len(want)

    @settings(max_examples=30, deadline=None)
    @given(small_symmetric_subgroups())
    def test_random_subgroup_records_equal_the_one_instance_checks(self, G):
        with tempfile.TemporaryDirectory() as tmp:
            path = descriptor_file(G, Path(tmp), "G")
            report = Path(tmp) / "report.json"
            assert main(["lemmas", str(path), "--k", "1", "--json", str(report)]) == 0
            records = json.loads(report.read_text(encoding="utf-8"))["records"]
            got = [r for r in records if r["lemma"] in COSET_LEMMAS]
            assert got == per_instance_records(load_group(str(path)))

    def test_equal_value_sets_share_one_batch_and_no_params(self, monkeypatch):
        G = load_group("V4")  # abelian: X = {1} at depths 1 and 2
        batches = []
        batch = cli.coset_lemma_batch

        def counted(G, p, X):
            out = batch(G, p, X)
            batches.append(out)
            return out

        monkeypatch.setattr(cli, "coset_lemma_batch", counted)
        records = cli._coset_lemma_records(G)
        assert len(batches) == 2  # depth 0, then depths 1 and 2 share one X
        assert [r["params"]["depth"] for r in records[:3 * len(normal_subgroups(G))]] == \
            [d for d in COSET_DEPTHS for _ in normal_subgroups(G)]
        reports = [rep for b in batches for rep in b.coset] + \
            [rep for b in batches for _, _, rep in b.lifted if rep is not None]
        assert all("depth" not in rep.params for rep in reports)
        params = [r["params"] for r in records]
        assert len({id(p) for p in params}) == len(params)


class TestCosetClosure:
    @settings(max_examples=60, deadline=None)
    @given(small_symmetric_subgroups(), st.data())
    def test_label_closure_equals_the_preimage_formula(self, G, data):
        iv = indexed_view(G)
        N = data.draw(st.sampled_from(normal_subgroups(G)))
        cosets = len(iv.coset_labels(N)[1])
        seeds = data.draw(st.lists(st.integers(0, cosets - 1), max_size=4))
        assert iv.coset_closure(N, seeds) == coset_closure_oracle(G, N, seeds)

    def test_label_closure_on_every_builtin_kernel_and_sylow_image(self):
        for name in builtin_names():
            G = load_group(name)
            iv = indexed_view(G)
            for N in normal_subgroups(G):
                labels = iv.coset_labels(N)[0]
                for p in prime_factors(G.order()):
                    seeds = sorted({labels[i] for i in iv.member_indices(sylow_subgroup(G, p))})
                    assert iv.coset_closure(N, seeds) == coset_closure_oracle(G, N, seeds)


def test_coset_sides_are_built_once_per_kernel_prime_and_value_set(monkeypatch):
    # on the 40 builtins, with the lattice, the Sylow subgroups and the value
    # sets built first: one G/N label closure and one G-level closure,
    # <(X cup N) cap P>, per distinct (N, p, X); the preimage <N, reps> is never closed
    groups = [load_group(name) for name in builtin_names()]
    keys = 0
    for G in groups:
        primes = prime_factors(G.order())
        for N in normal_subgroups(G):
            _check_normal_subgroup(G, N)
        for p in primes:
            sylow_subgroup(G, p)
        keys += len({(N, p, p_power_value_closure(G, depth, p))
                     for p in primes for depth in COSET_DEPTHS for N in normal_subgroups(G)})
    counts = {"_close": 0, "coset_closure": 0}
    for method in counts:
        original = getattr(IndexedGroup, method)

        def counted(self, *args, _original=original, _method=method):
            counts[_method] += 1
            return _original(self, *args)

        monkeypatch.setattr(IndexedGroup, method, counted)
    instances = sum(len(cli._coset_lemma_records(G)) for G in groups)
    assert counts == {"_close": keys, "coset_closure": keys}
    assert (keys, instances) == (602, 3282)  # 879 coset and 2403 lifted records


@pytest.mark.parametrize("name, cyclic", [("S4", 17), ("A5", 32), ("D24", 18), ("E27", 14)])
def test_invariant_family_closes_each_cyclic_subgroup_once(name, cyclic, monkeypatch):
    G = load_group(name)
    iv = indexed_view(G)
    normal_subgroups(G)
    fitting_subgroup(G)  # the lattice and F, with closures of their own, built first
    subgroups = {frozenset(iv.index[g.images] for g in powers(x)) for x in iv.elements}
    assert len(subgroups) == cyclic
    counting, closes = True, 0
    close = IndexedGroup._close

    def counted(self, seed):
        nonlocal closes
        closes += counting
        return close(self, seed)

    def uncounted_sylow(*args):  # Sylow growth closes subgroups of its own
        nonlocal counting
        counting = False
        try:
            return _sylow_indices(*args)
        finally:
            counting = True

    monkeypatch.setattr(IndexedGroup, "_close", counted)
    monkeypatch.setattr("nilcrit.lemmas._sylow_indices", uncounted_sylow)
    assert set(_invariant_subgroup_family(G)) >= subgroups
    assert closes == cyclic


def powers(x: Permutation) -> list[Permutation]:
    """x, x^2, ..., up to the identity: the members of <x>, on Permutation products."""
    out, y = [x], x * x
    while y != x:
        out.append(y)
        y = y * x
    return out
