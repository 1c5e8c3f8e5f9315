"""The five supporting-fact checks: admissible instances hold, errors route correctly."""

from __future__ import annotations

import gc
import json
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from nilcrit.errors import (
    HypothesisNotSatisfied,
    NotMetanilpotent,
    NotNormal,
    NotPElementSet,
    NotSoluble,
)
from nilcrit.chain import StabilizerChain
from nilcrit.cli import main
from nilcrit.corpus import GroupDescriptor, builtin_names, load_group
from nilcrit.criterion import coprime_product_criterion
import nilcrit.group as group_module
from nilcrit.group import (
    PermGroup,
    subgroup_generated,
    trivial_group,
)
from nilcrit.indexed import IndexedGroup, indexed_view
from nilcrit.lemmas import (
    LemmaReport,
    _check_normal_p_set,
    _check_normal_subgroup,
    _invariant_subgroup_family,
    check_coprime_action,
    check_coset_intersection,
    check_fitting_membership,
    check_focal_generation,
    check_lifted_generation,
    normal_subgroups,
    p_power_value_closure,
)
from nilcrit.perm import Permutation, commutator
from nilcrit.primes import p_part, prime_factors
from nilcrit.structure import (
    derived_term,
    fitting_subgroup,
    is_metanilpotent,
    is_soluble,
    sylow_subgroup,
    _sylow_indices,
)
from nilcrit.words import delta_values
from conftest import (closure_oracle, p_prime_core_oracle, perm, product_set,
                      regular_elementary_abelian, small_symmetric_subgroups)
from oracles import (
    contains,
    coset_intersection_instances,
    elements_of,
    focal_subgroup_oracle,
    group_from_elements,
    is_normal,
    is_subgroup_of,
    lifted_generation_instances,
    normal_subgroups_oracle,
    quotient,
)

SCALE_CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"
SCALE_NAMES = tuple(sorted(path.stem for path in SCALE_CORPUS.glob("*.grp")))


def index_set(G: PermGroup, *members: str | int) -> frozenset[int]:
    """An index set on G's view: cycle strings are looked up, ints are taken as they are."""
    iv = indexed_view(G)
    return frozenset(m if isinstance(m, int) else iv.index[perm(m, G.degree).images]
                     for m in members)


TRIVIAL = frozenset({0})  # the identity is index 0 on every view


def members(G: PermGroup, H: PermGroup) -> frozenset[int]:
    """The index set of a subgroup H of G on G's view."""
    return indexed_view(G).member_indices(H)


def as_group(G: PermGroup, N: frozenset[int]) -> PermGroup:
    """The subgroup of G on an index set, grown on a chain of its own."""
    return group_from_elements(G.degree, indexed_view(G).perms(sorted(N)))


@pytest.fixture(scope="module")
def c3xs3() -> PermGroup:
    return PermGroup(6, (perm("(1 2 3)", 6), perm("(4 5)", 6), perm("(4 5 6)", 6)),
                     name="C3xS3")


class TestNormalSubgroups:
    def test_s4_lattice(self, s4):
        assert [len(N) for N in normal_subgroups(s4)] == [1, 4, 12, 24]

    def test_a5_is_simple(self, a5):
        assert [len(N) for N in normal_subgroups(a5)] == [1, 60]

    def test_every_listed_subgroup_is_normal(self, s4, s3, d8):
        for G in (s4, s3, d8):
            for N in normal_subgroups(G):
                assert is_normal(G, as_group(G, N))

    @pytest.mark.parametrize("bits, count", [(1, 2), (2, 5), (3, 16), (4, 67), (5, 374)])
    def test_elementary_abelian_counts_are_oeis_a006116(self, bits, count):
        # every subgroup of C2^n is normal, and they are as many as the
        # subspaces of F_2^n: OEIS A006116, a count owing nothing to nilcrit
        assert len(normal_subgroups(regular_elementary_abelian(bits))) == count

    def test_one_closure_per_conjugacy_class_and_none_per_join(self, monkeypatch):
        G = battery_group("S4wrC2")
        classes = indexed_view(G).classes()  # the view and its classes, built before counting
        closes = 0
        close = IndexedGroup._close

        def counted(self, seed):
            nonlocal closes
            closes += 1
            return close(self, seed)

        monkeypatch.setattr(IndexedGroup, "_close", counted)
        assert len(normal_subgroups(G)) == 8
        assert closes == len(classes) == 20

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.permutations(range(n)).map(Permutation), min_size=1, max_size=3))))
    def test_subgroups_of_small_symmetric_groups_match_the_closure_join(self, case):
        n, gens = case
        G = PermGroup(n, gens)
        iv = indexed_view(G)
        got = [tuple(iv.perms(sorted(N))) for N in normal_subgroups(G)]
        assert got == [elements_of(N) for N in normal_subgroups_oracle(G)]


class TestCosetIntersection:
    def test_trivial_kernel_reduces_to_tautology(self, s4):
        X = p_power_value_closure(s4, 1, 2)
        rep = check_coset_intersection(s4, TRIVIAL, 2, X)
        assert rep.holds

    def test_s4_v4_instance(self, s4, v4):
        X = p_power_value_closure(s4, 1, 2)
        rep = check_coset_intersection(s4, members(s4, v4), 2, X)
        assert rep.holds
        assert rep.params["p"] == 2 and rep.params["N_order"] == 4

    def test_all_conjugation_closed_two_element_subsets_at_depth_zero(self, s4, a4):
        # unions of conjugacy classes of 2-elements, one class at a time and pairs
        iv = indexed_view(s4)
        classes = [c for c in iv.classes() if iv.order_of[c[0]] in (1, 2, 4)]
        import itertools
        for r in (1, 2, len(classes)):
            for combo in itertools.combinations(classes, r):
                X = frozenset(x for c in combo for x in c)
                rep = check_coset_intersection(s4, members(s4, a4), 2, X)
                assert rep.holds

    def test_rejects_non_p_elements(self, s4, v4):
        X = index_set(s4, "(1 2 3)")
        with pytest.raises(NotPElementSet):
            check_coset_intersection(s4, members(s4, v4), 2, X)

    def test_rejects_non_normal_n(self, s4):
        H = subgroup_generated(4, [perm("(1 2 3)", 4)])
        X = p_power_value_closure(s4, 1, 2)
        with pytest.raises(NotNormal):
            check_coset_intersection(s4, members(s4, H), 2, X)

    def test_rejects_x_outside_g(self):
        G = subgroup_generated(4, [perm("(1 2)", 4)])
        X = frozenset({G.order()})  # one past the last index of G's view
        with pytest.raises(NotNormal):
            check_coset_intersection(G, TRIVIAL, 2, X)

    def test_rejects_non_normal_x(self, s4, v4):
        X = index_set(s4, "(1 2)")
        with pytest.raises(NotNormal):
            check_coset_intersection(s4, members(s4, v4), 2, X)

    def test_rejects_n_outside_g(self, v4):
        X = index_set(v4, "(1 2)(3 4)")
        with pytest.raises(NotNormal, match="not contained"):
            check_coset_intersection(v4, frozenset({0, v4.order()}), 2, X)

    def test_x_outside_g_that_is_not_a_p_set_is_not_normal(self):
        # an index outside G's view is reported before a member that is no 2-element
        G = subgroup_generated(4, [perm("(1 2)", 4), perm("(1 2 3)", 4)])
        X = index_set(G, "(1 2 3)", G.order())
        with pytest.raises(NotNormal):
            check_coset_intersection(G, TRIVIAL, 2, X)
        with pytest.raises(NotNormal):
            check_lifted_generation(G, TRIVIAL, members(G, G), 2, X)

    def test_generated_instances_all_hold(self, s4, s3, a4):
        for G in (s4, s3, a4):
            for inst in coset_intersection_instances(G):
                rep = check_coset_intersection(G, inst["N"], inst["p"], inst["X"])
                assert rep.holds, (G.name, inst["p"], inst["depth"], len(inst["N"]))


class TestLiftedGeneration:
    def test_n_equals_l_is_trivially_true(self, s4, v4):
        X = p_power_value_closure(s4, 1, 2)
        rep = check_lifted_generation(s4, members(s4, v4), members(s4, v4), 2, X)
        assert rep.holds

    def test_s4_main_instance(self, s4, v4, a4):
        X = p_power_value_closure(s4, 1, 2)
        rep = check_lifted_generation(s4, members(s4, v4), members(s4, a4), 2, X)
        assert rep.holds

    def test_trivial_kernel(self, s4, a4):
        X = p_power_value_closure(s4, 1, 2)
        rep = check_lifted_generation(s4, TRIVIAL, members(s4, a4), 2, X)
        assert rep.holds

    def test_inadmissible_instance_raises(self, s4):
        # with L = G and X the depth-1 2-power values (V4), the quotient-side
        # hypothesis asks V4 to generate a full Sylow 2-subgroup: inadmissible
        X = p_power_value_closure(s4, 1, 2)
        with pytest.raises(HypothesisNotSatisfied):
            check_lifted_generation(s4, TRIVIAL, members(s4, s4), 2, X)

    def test_requires_containment(self, s4, v4, a4):
        X = p_power_value_closure(s4, 1, 2)
        with pytest.raises(NotNormal):
            check_lifted_generation(s4, members(s4, a4), members(s4, v4), 2, X)

    def test_rejects_x_outside_g(self):
        G = subgroup_generated(4, [perm("(1 2)", 4)])
        X = frozenset({G.order()})  # one past the last index of G's view
        with pytest.raises(NotNormal):
            check_lifted_generation(G, TRIVIAL, members(G, G), 2, X)

    def test_rejects_non_normal_x(self, s4, v4, a4):
        X = index_set(s4, "(1 2)")
        with pytest.raises(NotNormal):
            check_lifted_generation(s4, members(s4, v4), members(s4, a4), 2, X)

    def test_rejects_non_normal_l(self, s4):
        X = p_power_value_closure(s4, 1, 2)
        L = members(s4, subgroup_generated(4, [perm("(1 2 3)", 4)]))
        with pytest.raises(NotNormal):
            check_lifted_generation(s4, TRIVIAL, L, 2, X)

    def test_builds_no_quotient_group(self, monkeypatch):
        # a quotient group acts on the cosets of N, so its degree is not G's
        G = load_group("S4")
        init = PermGroup.__init__

        def refuse_other_degrees(self, degree, *args, **kwargs):
            assert degree == G.degree, "the lemma battery built a quotient group"
            init(self, degree, *args, **kwargs)

        monkeypatch.setattr(PermGroup, "__init__", refuse_other_degrees)
        outcomes = {"admissible": 0, "inadmissible": 0}
        for inst in lifted_generation_instances(G):
            try:
                assert check_lifted_generation(G, inst["N"], inst["L"],
                                               inst["p"], inst["X"]).holds
                outcomes["admissible"] += 1
            except HypothesisNotSatisfied:
                outcomes["inadmissible"] += 1
        assert outcomes["admissible"] > 0 and outcomes["inadmissible"] > 0

    @pytest.mark.parametrize("name", ["S4", "S4xC3", "S3xS3"])
    def test_closes_at_most_twice_per_kernel_prime_and_value_set(self, name, monkeypatch):
        # <(X cup N) cap P> does not depend on L, so it is closed once per
        # (N, p, X), for every L above N; <P-bar cap X-bar> is closed on
        # coset labels, not in G
        G = load_group(name)
        instances = list(lifted_generation_instances(G))
        for p in prime_factors(G.order()):
            sylow_subgroup(G, p)  # grown by closures of its own, before counting
        for N in normal_subgroups(G):
            _check_normal_subgroup(G, N)  # one closure per set, before counting
        closes = 0
        close = IndexedGroup._close

        def counted(self, seed):
            nonlocal closes
            closes += 1
            return close(self, seed)

        monkeypatch.setattr(IndexedGroup, "_close", counted)
        keys = set()
        for inst in instances:
            keys.add((inst["N"], inst["p"], inst["X"]))
            try:
                check_lifted_generation(G, inst["N"], inst["L"], inst["p"], inst["X"])
            except HypothesisNotSatisfied:
                pass
        assert len(instances) > len(keys)  # some (N, p, X) meets several L
        assert 0 < closes <= 2 * len(keys)

    def test_generated_instances_hold_or_are_inadmissible(self, s4, s3):
        for G in (s4, s3):
            admissible = 0
            for inst in lifted_generation_instances(G):
                try:
                    rep = check_lifted_generation(G, inst["N"], inst["L"],
                                                  inst["p"], inst["X"])
                except HypothesisNotSatisfied:
                    continue
                admissible += 1
                assert rep.holds
            assert admissible > 0


# Malformed arguments of the coset checks on S4: per case, the argument
# (value set X, kernel N or upper subgroup L), its index set and the typed
# error both checks raise for it.  The X cases keep their former names.
MALFORMED_SUBGROUP = {
    "index past the view": (lambda G: frozenset({0, G.order()}), "not contained"),
    "negative index": (lambda G: frozenset({0, -1}), "not contained"),
    "not a subgroup": (lambda G: index_set(G, "()", "(1 2 3)"), "not a subgroup"),
    "not normal": (lambda G: index_set(G, "()", "(1 2)"), "not closed under conjugation"),
}
MALFORMED = {
    "index past the view": ("X", lambda G: frozenset({0, G.order()}), NotNormal, "not contained"),
    "negative index": ("X", lambda G: frozenset({0, -1}), NotNormal, "not contained"),
    "boolean index": ("X", lambda G: frozenset({0, True}), NotNormal, "not contained"),
    "not a p-element": ("X", lambda G: index_set(G, "()", "(1 2 3)"), NotPElementSet,
                        "not a power of 2"),
    "not conjugation-closed": ("X", lambda G: index_set(G, "()", "(1 2)"), NotNormal,
                               "not closed under conjugation"),
    **{f"{arg}: {case}": (arg, build, NotNormal, match)
       for arg in "NL" for case, (build, match) in MALFORMED_SUBGROUP.items()},
}
COSET_CHECKS = {  # the other arguments are well formed: N = 1, L = G, X = {1}
    "coset_intersection": lambda G, N, L, X: check_coset_intersection(G, N, 2, X),
    "lifted_generation": lambda G, N, L, X: check_lifted_generation(G, N, L, 2, X),
}


class TestMalformedValueSets:
    @pytest.mark.parametrize("check, case", [
        (check, case) for check in COSET_CHECKS for case in MALFORMED
        if not (check == "coset_intersection" and MALFORMED[case][0] == "L")])
    def test_both_coset_checks_raise_the_typed_error(self, check, case):
        G = load_group("S4")  # fresh: nothing checked on it yet
        arg, build, error, match = MALFORMED[case]
        args = {"N": TRIVIAL, "L": frozenset(range(G.order())), "X": TRIVIAL, arg: build(G)}
        for _ in range(2):  # a failed check is not kept
            with pytest.raises(error, match=match):
                COSET_CHECKS[check](G, **args)


def coset_intersection_oracle(G, N, P, X):
    """XN cap PN = (X cap P)N on Permutation sets: (holds, checked, minimal stray)."""
    X = indexed_view(G).perms(sorted(X))
    n_elems = indexed_view(G).perms(sorted(N))
    lhs = product_set(X, n_elems) & product_set(elements_of(P), n_elems)
    rhs = product_set([x for x in X if contains(P, x)], n_elems)
    return lhs == rhs, len(lhs) + len(rhs), min(lhs ^ rhs, default=None)


def lifted_generation_oracle(G, N, L, P, X):
    """P cap L = <P cap X, P cap N> on Permutation sets; None when inadmissible.

    The quotient-side hypothesis is read through preimages in G, with no
    quotient built: P-bar cap L-bar = <P-bar cap X-bar> holds iff
    PN cap LN = <(PN cap XN) u N>.
    """
    iv = indexed_view(G)
    X, n_elems, l_elems = iv.perms(sorted(X)), iv.perms(sorted(N)), iv.perms(sorted(L))
    pn = product_set(elements_of(P), n_elems)
    ln = product_set(l_elems, n_elems)
    xn = product_set(X, n_elems)
    generated = subgroup_generated(G.degree, sorted(pn & xn) + list(n_elems))
    if pn & ln != set(elements_of(generated)):
        return None
    p_elems = set(elements_of(P))
    lhs = p_elems & set(l_elems)
    seed = [x for x in X if x in p_elems] + [n for n in n_elems if n in p_elems]
    rhs = set(elements_of(subgroup_generated(G.degree, seed)))
    return lhs == rhs, len(lhs) + len(rhs), min(lhs ^ rhs, default=None)


def quotient_hypothesis_oracle(G, N, L, P, X):
    """P-bar cap L-bar = <P-bar cap X-bar>, decided inside the quotient group G/N."""
    Q, cmap = quotient(G, as_group(G, N))
    p_bar = set(elements_of(subgroup_generated(Q.degree, [cmap(g) for g in P.generators])))
    l_bar = set(elements_of(subgroup_generated(Q.degree, [cmap(g) for g in as_group(G, L).generators])))
    x_bar = {cmap(x) for x in indexed_view(G).perms(X)}
    generated = subgroup_generated(Q.degree, sorted(p_bar & x_bar))
    return p_bar & l_bar == set(elements_of(generated))


def verdict(rep):
    return rep.holds, rep.checked, rep.witness and rep.witness["element"]


ORACLE_GROUPS = ("S4", "S3xS3", "C3wrC2", "SL2_3")


class TestPermutationOracle:
    """The coset-label checks agree with the Permutation-set formulation."""

    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_coset_intersection_matches_oracle(self, name):
        G = load_group(name)
        for inst in coset_intersection_instances(G):
            N, p, X = inst["N"], inst["p"], inst["X"]
            expected = coset_intersection_oracle(G, N, sylow_subgroup(G, p), X)
            assert verdict(check_coset_intersection(G, N, p, X)) == expected

    @pytest.mark.parametrize("name", ORACLE_GROUPS)
    def test_lifted_generation_matches_oracle(self, name):
        G = load_group(name)
        verdicts = {"admissible": 0, "inadmissible": 0}
        for inst in lifted_generation_instances(G):
            N, L, p, X = inst["N"], inst["L"], inst["p"], inst["X"]
            expected = lifted_generation_oracle(G, N, L, sylow_subgroup(G, p), X)
            try:
                rep = check_lifted_generation(G, N, L, p, X)
            except HypothesisNotSatisfied:
                assert expected is None, (p, inst["depth"], len(N), len(L))
                verdicts["inadmissible"] += 1
                continue
            assert verdict(rep) == expected
            verdicts["admissible"] += 1
        assert verdicts["admissible"] > 0 and verdicts["inadmissible"] > 0

    @pytest.mark.parametrize("name", ORACLE_GROUPS + ("S4xC3", "F20", "A5"))
    def test_lifted_generation_matches_quotient_oracle(self, name):
        G = load_group(name)
        for inst in lifted_generation_instances(G):
            N, L, p, X = inst["N"], inst["L"], inst["p"], inst["X"]
            P = sylow_subgroup(G, p)
            admissible = quotient_hypothesis_oracle(G, N, L, P, X)
            try:
                rep = check_lifted_generation(G, N, L, p, X)
            except HypothesisNotSatisfied:
                assert not admissible, (p, inst["depth"], len(N), len(L))
                continue
            assert admissible, (p, inst["depth"], len(N), len(L))
            assert verdict(rep) == lifted_generation_oracle(G, N, L, P, X)

    def test_failures_report_the_minimal_stray_element(self, monkeypatch):
        # both identities need P to be a Sylow subgroup; on C3wrC2 this
        # order-3 subgroup is not one for every instance, and some fail
        G = load_group("C3wrC2")
        small = subgroup_generated(6, [perm("(1 3 2)", 6)])
        monkeypatch.setattr("nilcrit.lemmas.sylow_subgroup", lambda G, p: small)
        failures = 0
        for inst in coset_intersection_instances(G):
            N, p, X = inst["N"], inst["p"], inst["X"]
            rep = check_coset_intersection(G, N, p, X)
            assert verdict(rep) == coset_intersection_oracle(G, N, small, X)
            failures += not rep.holds
        for inst in lifted_generation_instances(G):
            N, L, p, X = inst["N"], inst["L"], inst["p"], inst["X"]
            expected = lifted_generation_oracle(G, N, L, small, X)
            try:
                rep = check_lifted_generation(G, N, L, p, X)
            except HypothesisNotSatisfied:
                assert expected is None
                continue
            assert verdict(rep) == expected
            failures += not rep.holds
        assert failures == 3


class TestFocalGeneration:
    def test_depth_past_derived_length_is_trivial(self, s4):
        rep = check_focal_generation(s4, 5, 2)
        assert rep.holds

    def test_s4_depth1_p2(self, s4):
        rep = check_focal_generation(s4, 1, 2)
        assert rep.holds
        # the intersection P cap A4 is V4, generated by the commutators inside P
        assert rep.params["values_in_P"] == 4

    def test_s4_depth2_p3(self, s4):
        rep = check_focal_generation(s4, 2, 3)
        assert rep.holds
        assert rep.params["values_in_P"] == 1  # identity only

    def test_insoluble_rejected(self, a5):
        with pytest.raises(NotSoluble):
            check_focal_generation(a5, 1, 2)

    def test_soluble_sample_depths_and_primes(self, s4, s3, d8):
        from nilcrit.primes import prime_factors
        for G in (s4, s3, d8):
            for depth in (1, 2, 3):
                for p in prime_factors(G.order()):
                    assert check_focal_generation(G, depth, p).holds


class TestFocalSubgroupOracle:
    """Lemma foca against Higman's focal subgroup theorem, which needs no word values."""

    @staticmethod
    def check_every_prime_and_depth(G: PermGroup) -> None:
        iv = indexed_view(G)
        soluble = is_soluble(G)
        for p in prime_factors(G.order()):
            p_idx = iv.member_indices(sylow_subgroup(G, p))
            for k in (1, 2, 3):
                focal = focal_subgroup_oracle(G, p, k)
                assert focal == p_idx & iv.member_indices(derived_term(G, k)), (p, k)
                if soluble:
                    assert focal == iv.closure(p_idx & delta_values(G, k).indices), (p, k)
                    assert check_focal_generation(G, k, p).holds, (p, k)

    @pytest.mark.parametrize("name", builtin_names() + list(SCALE_NAMES))
    def test_focal_subgroup_is_the_sylow_cut_of_the_derived_term(self, name):
        # read-only: the scale groups are loaded from bench/corpus, nothing is written there
        self.check_every_prime_and_depth(battery_group(name))

    @settings(max_examples=100, deadline=None)
    @given(small_symmetric_subgroups(7))
    def test_random_subgroups_of_small_symmetric_groups(self, G):
        self.check_every_prime_and_depth(G)

    def test_s4_cases(self, s4):
        # P = D8: P cap A4 = V4 at k = 1, P cap V4 = V4 at k = 2, trivial at k = 3
        assert [len(focal_subgroup_oracle(s4, 2, k)) for k in (1, 2, 3)] == [4, 4, 1]
        assert [len(focal_subgroup_oracle(s4, 3, k)) for k in (1, 2, 3)] == [3, 1, 1]

    def test_depth_zero_rejected(self, s4):
        with pytest.raises(ValueError):
            focal_subgroup_oracle(s4, 2, 0)


class TestFittingMembership:
    def test_nilpotent_group_is_vacuously_fine(self, d8):
        rep = check_fitting_membership(d8, 2)
        assert rep.holds
        assert rep.checked == d8.order()  # every 2-element qualifies and lies in F = G

    def test_s3_p2_only_identity_qualifies(self, s3):
        rep = check_fitting_membership(s3, 2)
        assert rep.holds
        assert rep.checked == 1

    def test_c3xs3_p3_all_qualify(self, c3xs3):
        rep = check_fitting_membership(c3xs3, 3)
        assert rep.holds
        assert rep.checked == 9
        assert fitting_subgroup(c3xs3).order() == 9

    def test_non_metanilpotent_rejected(self, s4):
        assert not is_metanilpotent(s4)
        with pytest.raises(NotMetanilpotent):
            check_fitting_membership(s4, 2)


class TestCoprimeAction:
    def test_s4_depth2(self, s4):
        rep = check_coprime_action(s4, 2)
        assert rep.holds
        assert rep.checked > 0

    def test_s4_depth1_hypothesis_fails(self, s4):
        with pytest.raises(HypothesisNotSatisfied):
            check_coprime_action(s4, 1)

    def test_nilpotent_groups_any_depth(self, d8, v4):
        for G in (d8, v4):
            for k in (1, 2, 3):
                assert check_coprime_action(G, k).holds

    def test_metabelian_examples(self, s3):
        for k in (1, 2):
            assert check_coprime_action(s3, k).holds

    def test_identity_value_pairs_with_everything(self, d8):
        # with only the identity as value, every family member qualifies
        rep = check_coprime_action(d8, 4)
        assert rep.holds
        assert rep.checked >= len(normal_subgroups(d8))


class TestValueClosureHelper:
    def test_closure_is_conjugation_closed_p_set(self, s4):
        X = p_power_value_closure(s4, 1, 2)
        iv = indexed_view(s4)
        for x in iv.perms(X):
            assert x.order() in (1, 2, 4)
            for g in s4.generators:
                assert iv.index[x.conjugate(g).images] in X

    def test_a_checked_value_set_makes_no_second_table_pass(self, monkeypatch):
        G = load_group("S4")
        # the values of p_power_value_closure, built apart from G: a set from outside
        X = frozenset(list(p_power_value_closure(load_group("S4"), 1, 2)))
        passes = 0
        require_normal = IndexedGroup.require_normal

        def counted(self, seeds, members):
            nonlocal passes
            passes += seeds is X
            return require_normal(self, seeds, members)

        monkeypatch.setattr(IndexedGroup, "require_normal", counted)
        _check_normal_p_set(G, X, 2)
        assert passes == 1
        _check_normal_p_set(G, X, 2)
        whole = normal_subgroups(G)[-1]
        for N in normal_subgroups(G):
            check_coset_intersection(G, N, 2, X)
            try:
                check_lifted_generation(G, N, whole, 2, X)
            except HypothesisNotSatisfied:
                pass
        assert passes == 1
        # another prime checks the same set afresh, and fails before the table pass
        with pytest.raises(NotPElementSet):
            _check_normal_p_set(G, X, 3)
        assert passes == 1

    def test_equal_value_sets_share_one_check(self, monkeypatch):
        # both instance generators share one X per (p, depth); each value of
        # (p, X) is checked once, whichever object carries X
        G = load_group("S4")
        scans = []
        require_normal = IndexedGroup.require_normal

        def counted(self, seeds, members):
            if seeds is members:  # a value set, not a subgroup's generators
                scans.append(members)
            return require_normal(self, seeds, members)

        def run_checks(G, coset, lifted, copy=lambda X: X):
            for inst in coset:
                check_coset_intersection(G, inst["N"], inst["p"], copy(inst["X"]))
            for inst in lifted:
                try:
                    check_lifted_generation(G, inst["N"], inst["L"], inst["p"], copy(inst["X"]))
                except HypothesisNotSatisfied:
                    pass

        monkeypatch.setattr(IndexedGroup, "require_normal", counted)
        coset = list(coset_intersection_instances(G))
        lifted = list(lifted_generation_instances(G))
        run_checks(G, coset, lifted)
        depths = {(inst["p"], inst["depth"]) for inst in coset + lifted}
        values = {(inst["p"], inst["X"]) for inst in coset + lifted}
        assert len({id(inst["X"]) for inst in coset + lifted}) == len(depths)
        assert len(scans) == len(values) <= len(depths)
        assert sorted(map(len, scans)) == sorted(len(X) for _, X in values)

        # the same instances again, each X passed as a new object: no new pass
        run_checks(G, coset, lifted, lambda X: frozenset(list(X)))
        assert len(scans) == len(values)

    def test_the_value_closure_hands_its_index_set_to_the_check(self):
        G = load_group("S4")
        iv = indexed_view(G)
        for depth in (0, 1, 2):
            values = delta_values(G, depth).indices
            for p in (2, 3):
                X = p_power_value_closure(G, depth, p)
                assert X == {i for i in values if p_part(iv.order_of[i], p) == iv.order_of[i]}
                assert p_power_value_closure(G, depth, p) is X
                _check_normal_p_set(G, X, p)
                other = 5 - p  # the other prime rejects X
                if len(X) > 1:
                    with pytest.raises(NotPElementSet):
                        _check_normal_p_set(G, X, other)

    @pytest.mark.parametrize("members, error, match", [
        ([24], NotNormal, "not contained"),
        (["(1 2)", 24], NotNormal, "not contained"),
        (["(1 2 3)", "(1 2)"], NotPElementSet, "not a power of 2"),
        (["(1 2)"], NotNormal, "not closed under conjugation"),
    ])
    def test_a_bad_value_set_fails_the_same_way_on_every_call(self, members, error, match):
        G = PermGroup(5, [perm("(1 2)", 5), perm("(1 2 3 4)", 5)])  # S4, fixing the point 5
        X = index_set(G, *members)
        for _ in range(3):
            with pytest.raises(error, match=match):
                _check_normal_p_set(G, X, 2)

    def test_instance_generators_build_one_value_set_per_prime_and_depth(self, monkeypatch):
        G = load_group("S4")
        builds = []

        def counted(G, k):
            builds.append(k)
            return delta_values(G, k)

        monkeypatch.setattr("nilcrit.lemmas.delta_values", counted)
        coset = {(inst["p"], inst["depth"]): inst["X"] for inst in coset_intersection_instances(G)}
        lifted = list(lifted_generation_instances(G))
        assert len(builds) == len(coset) == 6  # primes 2, 3 at depths 0, 1, 2
        assert all(inst["X"] is coset[inst["p"], inst["depth"]] for inst in lifted)
        assert {(inst["p"], inst["depth"]) for inst in lifted} == set(coset)

    def test_depth0_is_all_p_elements(self, s4):
        X = p_power_value_closure(s4, 0, 2)
        expected = [x for x in elements_of(s4) if x.order() in (1, 2, 4)]
        assert set(indexed_view(s4).perms(X)) == set(expected)


# The former Permutation- and chain-level implementations, kept as oracles.

def focal_generation_oracle(G: PermGroup, depth: int, p: int) -> LemmaReport:
    """Values sifted through P's chain one by one; the target built as a group."""
    P = sylow_subgroup(G, p)
    values = indexed_view(G).perms(sorted(delta_values(G, depth).indices))
    inside = [v for v in values if contains(P, v)]
    generated = subgroup_generated(G.degree, inside)
    target = group_from_elements(
        G.degree, set(elements_of(P)) & set(elements_of(derived_term(G, depth))))
    holds = generated.order() == target.order() and is_subgroup_of(generated, target)
    witness = None
    if not holds:
        witness = {"generated_order": generated.order(), "target_order": target.order()}
    return LemmaReport("focal_generation", G.name,
                       {"p": p, "depth": depth, "values_in_P": len(inside)},
                       holds, witness, checked=len(inside))


def fitting_membership_oracle(G: PermGroup, p: int) -> LemmaReport:
    """Permutation commutators with the p'-core's generators, per element of G."""
    F = fitting_subgroup(G)
    core = p_prime_core_oracle(F, p)
    qualifying = 0
    witness = None
    for x in elements_of(G):
        if p_part(x.order(), p) != x.order():
            continue
        if not all(commutator(o, x).is_identity() for o in core.generators):
            continue
        qualifying += 1
        if not contains(F, x):
            witness = {"element": x, "order": x.order(), "fitting_order": F.order()}
            break
    return LemmaReport("fitting_membership", G.name,
                       {"p": p, "fitting_order": F.order(), "core_order": core.order()},
                       witness is None, witness, checked=qualifying)


def is_nilpotent_set(elements: set[Permutation]) -> bool:
    """A group is nilpotent when each Sylow subgroup is normal: it has |H|_p p-elements for every p."""
    orders = [x.order() for x in elements]
    return all(sum(p_part(n, p) == n for n in orders) == p_part(len(elements), p)
               for p in prime_factors(len(elements)))


def is_metanilpotent_oracle(G: PermGroup) -> bool:
    """Whether G's nilpotent residual is nilpotent, on sets of Permutations.

    Each lower central term [T, G] is the normal closure of the [x, s], x in T
    and s a generator of G: the [x, s] are closed under conjugation by G's
    generators, then under products, one generator at a time.
    """
    term = set(elements_of(G))
    while True:
        conjugates = {commutator(x, s) for x in term for s in G.generators}
        frontier = list(conjugates)
        while frontier:
            c = frontier.pop()
            for s in G.generators:
                if (d := c.conjugate(s)) not in conjugates:
                    conjugates.add(d)
                    frontier.append(d)
        gens: list[Permutation] = []
        step = {Permutation.identity(G.degree)}
        for c in conjugates:
            if c not in step:
                gens.append(c)
                step = closure_oracle(G.degree, gens)
        if len(step) == len(term):
            return is_nilpotent_set(term)
        term = step


def invariant_subgroup_family_oracle(G: PermGroup) -> list[PermGroup]:
    """A chain per cyclic subgroup <y>, deduplicated by element frozensets."""
    family: dict[frozenset, PermGroup] = {}

    def add(H: PermGroup) -> None:
        family.setdefault(frozenset(elements_of(H)), H)

    for y in elements_of(G):
        add(subgroup_generated(G.degree, [y]))
    for M in normal_subgroups(G):
        for q in prime_factors(len(M)):
            add(sylow_subgroup(as_group(G, M), q))
    F = fitting_subgroup(G)
    for q in prime_factors(G.order()):
        add(p_prime_core_oracle(F, q))
    return sorted(family.values(), key=lambda H: (H.order(), [g.images for g in H.generators]))


def coprime_action_oracle(G: PermGroup, k: int, values_of=delta_values) -> LemmaReport:
    """Permutation commutators per (N, x, y), each sifted through N's chain."""
    if not coprime_product_criterion(G, k, "delta").holds:
        raise HypothesisNotSatisfied(f"coprime product criterion fails for depth {k}")
    iv = indexed_view(G)
    values = values_of(G, k).indices
    value_list = iv.perms(sorted(values))
    family = invariant_subgroup_family_oracle(G)
    labels = iv.class_labels()[0]
    pairs = 0
    witness = None
    for N in family:
        for x in value_list:
            if gcd(N.order(), x.order()) != 1:
                continue
            if not all(contains(N, n.conjugate(x)) for n in N.generators):
                continue
            pairs += 1
            for y in elements_of(N):
                double = commutator(commutator(y, x), x)
                step = {"N_order": N.order(), "x": x, "y": y}
                if iv.index[double.images] not in values:
                    witness = {**step, "failure": "double commutator left the value set"}
                elif gcd(double.order(), x.order()) != 1:
                    witness = {**step, "failure": "double commutator order not coprime to |x|"}
                elif labels[iv.index[(double * x.inverse()).images]] != labels[iv.index[x.inverse().images]]:
                    witness = {**step, "failure": "product is not conjugate to x^-1"}
                elif not double.is_identity():
                    witness = {**step, "failure": "double commutator is not trivial"}
                elif not commutator(y, x).is_identity():
                    witness = {**step, "failure": "x does not centralize N"}
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    return LemmaReport("coprime_action", G.name,
                       {"k": k, "family_size": len(family), "value_count": len(value_list)},
                       witness is None, witness, checked=pairs)


def refuse_permutation_arithmetic(monkeypatch) -> None:
    """Make every Permutation product, inverse and conjugate raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Permutation product, inverse or conjugate was formed")

    for name in ("__mul__", "inverse", "conjugate"):
        monkeypatch.setattr(Permutation, name, refuse)


def refuse_chain_construction(monkeypatch) -> None:
    """Make every StabilizerChain construction raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(group_module, "StabilizerChain", refuse)


def battery_group(name: str) -> PermGroup:
    return load_group(str(SCALE_CORPUS / f"{name}.grp") if name in SCALE_NAMES else name)


class TestIndexSetsAgainstPermutationOracles:
    """The battery on G's index sets agrees with the former implementations."""

    @pytest.mark.parametrize("name", builtin_names() + list(SCALE_NAMES))
    def test_normal_subgroups_focal_and_fitting_reports(self, name):
        G = battery_group(name)
        got = [tuple(indexed_view(G).perms(sorted(N))) for N in normal_subgroups(G)]
        assert got == [elements_of(N) for N in normal_subgroups_oracle(G)]
        primes = prime_factors(G.order())
        if is_soluble(G):
            for depth in range(4):
                for p in primes:
                    assert check_focal_generation(G, depth, p) == \
                        focal_generation_oracle(G, depth, p), (depth, p)
        if is_metanilpotent(G):
            for p in primes:
                assert check_fitting_membership(G, p) == fitting_membership_oracle(G, p), p

    def test_normal_subgroups_build_no_chain_once_the_view_exists(self, monkeypatch):
        G = battery_group("S4xS4")
        indexed_view(G)  # builds G's chain and view
        refuse_chain_construction(monkeypatch)
        assert len(normal_subgroups(G)) == 17

    @pytest.mark.parametrize("name", builtin_names() + list(SCALE_NAMES))
    def test_sylow_growth_on_index_lists_and_fitting_p_prime_elements(self, name):
        """The family's Sylow subgroups of a normal M, grown on M's index list,
        are those sylow_subgroup grows on M's own view; and the p'-elements of
        the nilpotent F form its p'-core."""
        G = battery_group(name)
        iv = indexed_view(G)
        for M in normal_subgroups(G):
            own = as_group(G, M)  # a fresh group with its own view
            for q in prime_factors(len(M)):
                grown, gens = _sylow_indices(iv, q, sorted(M))
                P = sylow_subgroup(own, q)
                assert indexed_view(own) is not iv
                assert grown == iv.member_indices(P), (len(M), q)
                assert tuple(iv.perms(gens)) == P.generators, (len(M), q)
        F = fitting_subgroup(G)
        f_idx = iv.member_indices(F)
        for q in prime_factors(G.order()):
            want = iv.member_indices(p_prime_core_oracle(F, q))
            assert {i for i in f_idx if iv.order_of[i] % q} == want, q

    def test_focal_generation_sifts_no_value(self, monkeypatch):
        G = battery_group("C2wrS4")
        want = check_focal_generation(G, 1, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("a value was sifted through a chain")

        monkeypatch.setattr(StabilizerChain, "contains", refuse)
        assert check_focal_generation(G, 1, 2) == want

    def test_fitting_membership_forms_no_commutator_per_element(self, monkeypatch):
        G = battery_group("AGL1_16")
        want = check_fitting_membership(G, 2)
        refuse_permutation_arithmetic(monkeypatch)
        assert check_fitting_membership(G, 2) == want

    @pytest.mark.parametrize("name", builtin_names() + list(SCALE_NAMES))
    def test_coprime_action_reports(self, name):
        G = battery_group(name)
        for k in range(1, 5):
            try:
                want = coprime_action_oracle(G, k)
            except HypothesisNotSatisfied:
                with pytest.raises(HypothesisNotSatisfied):
                    check_coprime_action(G, k)
            else:
                assert check_coprime_action(G, k) == want, k

    @settings(max_examples=100, deadline=None)
    @given(small_symmetric_subgroups(6))
    @example(PermGroup(4, (perm("(1 2)", 4), perm("(1 2 3 4)", 4))))  # S4: not metanilpotent
    @example(PermGroup(6, (perm("(1 2 3)", 6), perm("(1 2)", 6), perm("(4 5 6)", 6))))  # S3 x C3
    def test_coprime_action_and_fitting_membership_on_random_groups(self, G):
        for k in (1, 2, 3):
            try:
                want = coprime_action_oracle(G, k)
            except HypothesisNotSatisfied:
                with pytest.raises(HypothesisNotSatisfied):
                    check_coprime_action(G, k)
            else:
                assert check_coprime_action(G, k) == want, k
        metanilpotent = is_metanilpotent_oracle(G)
        for p in prime_factors(G.order()):
            if metanilpotent:
                assert check_fitting_membership(G, p) == fitting_membership_oracle(G, p), p
            else:
                with pytest.raises(NotMetanilpotent):
                    check_fitting_membership(G, p)

    def test_coprime_action_failure_reports_the_oracle_witness(self, monkeypatch):
        # without the identity among the values, the first replayed step fails
        def values_without_identity(G, k):
            values = delta_values(G, k)
            return SimpleNamespace(indices=values.indices - {indexed_view(G).identity_index})

        G = battery_group("S3wrC3")
        want = coprime_action_oracle(G, 2, values_without_identity)
        monkeypatch.setattr("nilcrit.lemmas.delta_values", values_without_identity)
        got = check_coprime_action(G, 2)
        assert not got.holds and got.witness["failure"] == "double commutator left the value set"
        assert got == want

    def test_invariant_family_builds_no_chain_per_element(self, monkeypatch):
        G = battery_group("S4wrC2")
        # the normal subgroups and F are the family's inputs, shared with other checks
        normal_subgroups(G)
        fitting_subgroup(G)
        refuse_chain_construction(monkeypatch)
        family = _invariant_subgroup_family(G)
        monkeypatch.undo()  # the oracle loads and sifts a fresh copy of G
        assert len(family) == len(invariant_subgroup_family_oracle(battery_group("S4wrC2")))

    def test_coprime_action_forms_no_permutation_conjugate(self, monkeypatch):
        G = battery_group("C2wrS4")
        want = check_coprime_action(G, 2)
        assert want.checked > 0
        refuse_permutation_arithmetic(monkeypatch)
        assert check_coprime_action(G, 2) == want


class TestNormalSubgroupIndexSets:
    def test_lemmas_make_one_normality_pass_per_subgroup(self, monkeypatch, capsys):
        from nilcrit.cli import main
        from nilcrit.indexed import IndexedGroup

        # the value sets X are normal subsets, checked through
        # _check_normal_p_set on themselves as seeds; only the passes made for
        # subgroups, seeded with their generators, are counted
        passes: dict[frozenset, int] = {}
        require_normal = IndexedGroup.require_normal

        def counted_pass(self, seeds, members):
            if seeds is not members:
                key = frozenset(members)
                passes[key] = passes.get(key, 0) + 1
            return require_normal(self, seeds, members)

        monkeypatch.setattr(IndexedGroup, "require_normal", counted_pass)
        assert main(["lemmas", str(SCALE_CORPUS / "S4xS4.grp"), "--k", "1..3"]) == 0
        capsys.readouterr()
        assert len(passes) == len(normal_subgroups(battery_group("S4xS4"))) == 17
        assert max(passes.values()) == 1

    @pytest.mark.parametrize("name", ["S4wrC2", "S4xS4", "C2wrS4"])
    def test_lemmas_build_one_view_per_group(self, name, monkeypatch, capsys):
        from nilcrit.cli import main
        from nilcrit.indexed import IndexedGroup

        views = []
        init = IndexedGroup.__init__

        def counted(self, *args, **kwargs):
            views.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(IndexedGroup, "__init__", counted)
        assert main(["lemmas", str(SCALE_CORPUS / f"{name}.grp"), "--k", "1..3"]) == 0
        capsys.readouterr()
        assert len(views) == 1

    def test_non_normal_subgroup_fails_on_every_call(self, s4):
        H = members(s4, subgroup_generated(4, [perm("(1 2 3)", 4)]))
        X = p_power_value_closure(s4, 1, 2)
        for _ in range(3):
            with pytest.raises(NotNormal, match="not closed under conjugation"):
                _check_normal_subgroup(s4, H)
            with pytest.raises(NotNormal, match="not closed under conjugation"):
                check_lifted_generation(s4, TRIVIAL, H, 2, X)
        outside = frozenset({0, s4.order()})
        for _ in range(2):
            with pytest.raises(NotNormal, match="not contained"):
                _check_normal_subgroup(s4, outside)

    def test_memoised_index_set_is_the_subgroup(self, s4, a4, v4):
        iv = indexed_view(s4)
        for H in (a4, v4, s4, trivial_group(4), derived_term(s4, 1)):
            want = frozenset(iv.index[h.images] for h in elements_of(H))
            assert iv.member_indices(H) == want
            assert iv.member_indices(H) is iv.member_indices(H)
            _check_normal_subgroup(s4, want)
        for H in (sylow_subgroup(s4, 2), subgroup_generated(4, [perm("(1 2 3)", 4)])):
            want = frozenset(iv.index[h.images] for h in elements_of(H))
            assert iv.member_indices(H) == want
            assert iv.member_indices(H) is iv.member_indices(H)

    def test_generators_are_looked_up_once_per_subgroup_object(self):
        G = load_group("S4")
        iv = indexed_view(G)
        reads = 0

        class CountedGenerators(tuple):
            def __iter__(self):
                nonlocal reads
                reads += 1
                return super().__iter__()

        gens = [perm("(1 2)(3 4)", 4), perm("(1 3)(2 4)", 4)]
        N, twin = subgroup_generated(4, gens), subgroup_generated(4, gens)
        for H in (N, twin):
            elements_of(H)  # chain and elements built before the generators are counted
            H.generators = CountedGenerators(H.generators)
        for _ in range(3):
            iv.coset_labels(iv.member_indices(N))
        assert reads == 1
        # the same subgroup as another object is looked up afresh, and shares the index set
        assert iv.member_indices(twin) is iv.member_indices(N)
        assert reads == 2
        # an entry lives as long as its subgroup
        kept = len(iv._generator_keys)
        del N, twin, H
        gc.collect()
        assert len(iv._generator_keys) == kept - 2

    @pytest.mark.parametrize("degree", [8, 9])
    def test_kernel_outside_g_fails_before_it_is_enumerated(self, s4, degree):
        # S9 lies above the default cap and S8 below it: neither is enumerated
        N = PermGroup(degree, [perm("(1 2)", degree),
                               perm("(" + " ".join(map(str, range(1, degree + 1))) + ")", degree)])
        for _ in range(2):
            with pytest.raises(NotNormal, match="not contained"):
                indexed_view(s4).member_indices(N)
        assert N._chain is None

    def test_subgroup_outside_g_of_the_same_degree_is_not_enumerated(self, a4, monkeypatch):
        H = subgroup_generated(4, [perm("(1 2)", 4)])
        iv = indexed_view(a4)

        def refuse(self):
            raise AssertionError("the subgroup was enumerated")

        monkeypatch.setattr(StabilizerChain, "elements", refuse)
        with pytest.raises(NotNormal, match="not contained"):
            iv.member_indices(H)


@pytest.mark.usefixtures("stall_deadline")
def test_battery_on_s3_wreath_s3(tmp_path, capsys):
    # order 1296, above every builtin; generators as in tests/test_tower_scale.py
    gens = ["(1 2)", "(1 2 3)", "(1 4)(2 5)(3 6)", "(1 4 7)(2 5 8)(3 6 9)"]
    descriptor = GroupDescriptor("S3wrS3", 9, tuple(Permutation.parse_cycles(g, 9).one_based()
                                                    for g in gens), 1296, ("soluble",))
    path, report = tmp_path / "S3wrS3.grp", tmp_path / "report.json"
    path.write_text(descriptor.canonical_text(), encoding="utf-8")
    assert main(["lemmas", str(path), "--k", "1..3", "--json", str(report)]) == 0
    aggregate = json.loads(report.read_text(encoding="utf-8"))["aggregate"]
    assert aggregate == {"groups": 1, "checks": 339, "failures": 0,
                         "hypothesis_not_satisfied": 145}
