"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  All criteria are exact (boolean / integer equality); there are no
numeric tolerances anywhere.
"""

from __future__ import annotations

import json
import random
import time

from nilcrit.corpus import BUILTINS
from nilcrit.criterion import (
    coprime_product_criterion,
    derived_nilpotency_check,
    probe_insoluble,
)
from nilcrit.errors import HypothesisNotSatisfied
from nilcrit.group import subgroup_generated
from nilcrit.indexed import indexed_view
from nilcrit.lemmas import (
    check_coprime_action,
    check_coset_intersection,
    check_fitting_membership,
    check_focal_generation,
    check_lifted_generation,
)
from nilcrit.perm import Permutation
from nilcrit.primes import is_prime_power, prime_factors
from nilcrit.structure import (
    derived_series,
    derived_term,
    fitting_subgroup,
    gamma_infinity,
    is_metanilpotent,
    is_nilpotent,
    sylow_subgroup,
)
from nilcrit.words import delta_values, generator_tower

from conftest import p_prime_core_oracle, product_set
from oracles import (
    coset_intersection_instances,
    delta_values_bruteforce,
    elements_of,
    evaluate_delta,
    is_commutator_closed,
    lifted_generation_instances,
    pair_commutator_span,
    quotient,
    random_commutator_closed_generating_set,
)


def _report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def test_01_equivalence_on_soluble_corpus(soluble_corpus):
    """Criterion holds iff the kth derived subgroup is nilpotent, k = 1..4."""
    started = time.perf_counter()
    checks = 0
    for name, G in soluble_corpus.items():
        for k in (1, 2, 3, 4):
            chk = derived_nilpotency_check(G, k)
            assert chk.consistent, (name, k, chk)
            checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(f"01 PASS equivalence: {checks} (group, depth) checks consistent "
            f"in {elapsed:.1f}s")


def test_02_necessity_on_all_builtins(corpus):
    """Nilpotent derived term forces the criterion, soluble or not."""
    checks = 0
    for name, G in corpus.items():
        for k in (1, 2, 3, 4):
            if is_nilpotent(derived_term(G, k)):
                assert coprime_product_criterion(G, k).holds, (name, k)
                checks += 1
    _report(f"02 PASS necessity: criterion held on all {checks} nilpotent-term cases")


def test_03_focal_generation(soluble_corpus):
    """Sylow intersections with derived terms are generated by values inside the Sylow."""
    checks = 0
    for name, G in soluble_corpus.items():
        for p in prime_factors(G.order()):
            for depth in (1, 2, 3):
                rep = check_focal_generation(G, depth, p)
                assert rep.holds, (name, p, depth, rep.witness)
                checks += 1
    _report(f"03 PASS focal generation: {checks} (group, prime, depth) instances")


def test_04_generator_tower(soluble_corpus):
    """Tower succeeds on every soluble builtin with all structural claims verified."""
    for name, G in soluble_corpus.items():
        tower = generator_tower(G)
        X = indexed_view(G).perms(sorted(tower.generating_set))
        assert is_commutator_closed(X), name
        assert all(is_prime_power(x.order()) for x in X), name
        assert subgroup_generated(G.degree, X).order() == G.order(), name
        prod = {G.identity}
        for T in tower.normalizers:
            prod = product_set(prod, elements_of(T))
        assert len(prod) == G.order(), name
    s4 = soluble_corpus["S4"]
    tower = generator_tower(s4)
    assert tower.height == 3
    assert tower.normalizer_orders() == (2, 3, 4)
    _report(f"04 PASS tower: built for {len(soluble_corpus)} soluble builtins; "
            f"S4 has height 3 with normalizer orders (2, 3, 4)")


def test_05_closed_set_generation(corpus):
    """50 seeded random commutator-closed generating sets per builtin hit the derived subgroup."""
    checks = 0
    for name, G in corpus.items():
        expected = indexed_view(G).member_indices(derived_term(G, 1))
        for trial in range(50):
            rng = random.Random(f"{name}/{trial}")
            X = random_commutator_closed_generating_set(G, rng)
            assert pair_commutator_span(G, X) == expected, (name, trial)
            checks += 1
    _report(f"05 PASS closed-set generation: {checks} randomized sets across "
            f"{len(corpus)} builtins")


def test_06_lemma_battery(corpus):
    """Coset intersection, lifted generation, Fitting membership, coprime action."""
    held = 0
    inadmissible = 0
    for name, G in corpus.items():
        for inst in coset_intersection_instances(G):
            rep = check_coset_intersection(G, inst["N"], inst["p"], inst["X"])
            assert rep.holds, (name, "coset_intersection", inst["p"], inst["depth"])
            held += 1
        for inst in lifted_generation_instances(G):
            try:
                rep = check_lifted_generation(G, inst["N"], inst["L"], inst["p"], inst["X"])
            except HypothesisNotSatisfied:
                inadmissible += 1
                continue
            assert rep.holds, (name, "lifted_generation", inst["p"], inst["depth"])
            held += 1
        if is_metanilpotent(G):
            for p in prime_factors(G.order()):
                rep = check_fitting_membership(G, p)
                assert rep.holds, (name, "fitting_membership", p)
                held += 1
        for k in (1, 2, 3):
            try:
                rep = check_coprime_action(G, k)
            except HypothesisNotSatisfied:
                inadmissible += 1
                continue
            assert rep.holds, (name, "coprime_action", k)
            held += 1
    _report(f"06 PASS lemma battery: {held} admissible instances held, "
            f"{inadmissible} inadmissible routed distinctly")


def test_07_oracle_equivalence_and_sampling(corpus):
    """Pairwise closure equals tuple brute force; sampled tuples land in value sets."""
    small = [n for n in corpus if BUILTINS[n].expected_order <= 24]
    for name in small:
        G = corpus[name]
        for k in (0, 1, 2):
            assert (delta_values(G, k).indices
                    == delta_values_bruteforce(G, k).indices), (name, k)
    sampled = 0
    for name, G in corpus.items():
        elems = elements_of(G)
        rng = random.Random(name)
        for k in (1, 2, 3):
            vs = set(indexed_view(G).perms(delta_values(G, k).indices))
            for _ in range(1000):
                args = [elems[rng.randrange(len(elems))] for _ in range(2 ** k)]
                assert evaluate_delta(k, args) in vs, (name, k)
                sampled += 1
    _report(f"07 PASS oracles: tuple brute force matched on {len(small)} small groups; "
            f"{sampled} random tuples landed in their value sets")


def test_08_known_value_regression(corpus):
    """Frozen structural values, previously derived by brute-force oracles."""
    s4 = corpus["S4"]
    assert derived_series(s4).orders == (24, 12, 4, 1)
    residual = gamma_infinity(s4)
    assert residual.order() == 12 and residual.equals(corpus["A4"])
    assert fitting_subgroup(s4).order() == 4
    assert p_prime_core_oracle(s4, 2).order() == 1
    assert sylow_subgroup(s4, 2).order() == 8
    assert sylow_subgroup(s4, 3).order() == 3
    v4 = subgroup_generated(4, [Permutation.parse_cycles("(1 2)(3 4)", 4),
                                Permutation.parse_cycles("(1 3)(2 4)", 4)])
    Q, _ = quotient(s4, v4)
    assert Q.order() == 6
    assert derived_series(corpus["A5"]).orders == (60, 60)
    _report("08 PASS regression: S4 series/cores/Sylows/quotient and A5 perfectness")


def test_09_probe_insoluble(insoluble_corpus, capsys, tmp_path):
    """Probe reports zero candidates on the insoluble corpus and exits 0."""
    assert set(insoluble_corpus) == {"A5", "A6", "S5", "SL2_5", "PSL2_7"}
    candidates = 0
    for name, G in insoluble_corpus.items():
        for k in (1, 2, 3):
            probe = probe_insoluble(G, k)
            assert probe.criterion.witness is not None  # failure is witnessed, not silent
            assert probe.criterion.witness.replay()
            candidates += probe.is_candidate_counterexample
    assert candidates == 0
    from nilcrit.cli import main
    path = tmp_path / "probe.json"
    code = main(["probe", "--k", "1..3", "--json", str(path)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(path.read_text())
    assert report["aggregate"]["candidate_counterexamples"] == 0
    assert all("is_candidate_counterexample" in r for r in report["records"])
    _report("09 PASS probe: 15 insoluble checks, 0 candidate counterexamples, exit 0")


def test_10_report_determinism(tmp_path, capsys):
    """Identical inputs and seed produce byte-identical reports, twice."""
    from nilcrit.cli import main
    for command in (["criterion", "S4", "S3", "F20", "--k", "1..3"],
                    ["lemmas", "S4", "--k", "1..2"],
                    ["probe", "A5", "--k", "1..2"]):
        blobs = []
        for run in (1, 2):
            path = tmp_path / f"{command[0]}_{run}.json"
            code = main([*command, "--seed", "7", "--json", str(path)])
            capsys.readouterr()
            assert code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1], command[0]
    _report("10 PASS determinism: byte-identical reports for criterion/lemmas/probe")
