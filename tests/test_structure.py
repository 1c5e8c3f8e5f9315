"""Series, predicates, Sylow machinery, cores, and Sylow bases."""

from __future__ import annotations

import functools
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nilcrit.corpus import builtin_names, filter_names, load_group
from nilcrit.errors import NotPrimeDivisor, NotSoluble
from nilcrit.group import PermGroup, normal_closure, subgroup_generated
from nilcrit.indexed import indexed_view
from nilcrit.perm import Permutation
from nilcrit.primes import p_part, prime_factors
from nilcrit.lemmas import normal_subgroups
from nilcrit.structure import (
    _commutators,
    _distinct_conjugates,
    _permutable,
    _sylow_indices,
    derived_series,
    derived_subgroup,
    derived_term,
    fitting_subgroup,
    gamma_infinity,
    intersect_basis,
    is_metanilpotent,
    is_nilpotent,
    is_soluble,
    lower_central_series,
    lower_fitting_series,
    p_core,
    product_order,
    sylow_basis,
    sylow_subgroup,
)
from nilcrit.words import generator_tower

from conftest import (
    SCALE_CORPUS,
    conjugated,
    derived_subgroup_oracle,
    lower_central_step_oracle,
    p_prime_core_oracle,
    perm,
    product_set,
    scale_group,
    small_symmetric_subgroups,
    stretch_group,
)
from oracles import (contains, elements_of, equals, group_from_elements, is_subgroup_of, quotient,
                     sylow_scan_oracle)

SCALE_NAMES = sorted(path.stem for path in SCALE_CORPUS.glob("*.grp"))


def cyclic(n: int) -> PermGroup:
    return PermGroup(n, (Permutation([(i + 1) % n for i in range(n)]),), name=f"C{n}")


def normal_subgroup_sets_oracle(G: PermGroup) -> list[set[Permutation]]:
    """All normal subgroups as element sets, from unions of conjugacy classes."""
    elements = set(elements_of(G))
    remaining = set(elements)
    classes = []
    while remaining:
        x = min(remaining)
        cls = {x.conjugate(g) for g in elements}
        classes.append(cls)
        remaining -= cls
    identity_class = next(c for c in classes if min(c).is_identity())
    others = [c for c in classes if c is not identity_class]
    out = []
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            union = set(identity_class)
            for c in combo:
                union |= c
            if all(a * b in union for a in union for b in union):
                out.append(union)
    return out


class TestDerivedSeries:
    def test_abelian_profile(self):
        rep = derived_series(cyclic(6))
        assert rep.orders == (6, 1)
        assert rep.reaches_trivial()

    def test_s4_profile_against_oracle(self, s4):
        rep = derived_series(s4)
        assert rep.orders == (24, 12, 4, 1)
        # oracle: iterate all-pairs commutator closures from scratch
        term = set(elements_of(s4))
        oracle_orders = [len(term)]
        while len(term) > 1:
            term = derived_subgroup_oracle(4, term)
            oracle_orders.append(len(term))
        assert tuple(oracle_orders) == rep.orders
        assert set(elements_of(rep.terms[1])) == derived_subgroup_oracle(4, set(elements_of(s4)))

    def test_a5_is_perfect(self, a5):
        rep = derived_series(a5)
        assert rep.orders == (60, 60)
        assert not rep.reaches_trivial()
        assert derived_subgroup_oracle(5, set(elements_of(a5))) == set(elements_of(a5))

    def test_derived_term_past_stabilization(self, s4, a5):
        assert derived_term(s4, 4).order() == 1
        assert derived_term(a5, 7).order() == 60

    def test_derived_term_rejects_negative_depth(self, s4):
        with pytest.raises(ValueError, match="indexed from 0"):
            derived_term(s4, -1)


class TestLowerCentralSeries:
    def test_nilpotent_residual_trivial_for_d8(self, d8):
        assert gamma_infinity(d8).is_trivial()

    def test_s4_residual_is_a4_against_oracle(self, s4, a4):
        res = gamma_infinity(s4)
        assert res.order() == 12
        assert equals(res, a4)
        # oracle: iterate [term, G] closures at the element level
        whole = set(elements_of(s4))
        term = set(whole)
        while True:
            nxt = lower_central_step_oracle(4, term, whole)
            if len(nxt) == len(term):
                break
            term = nxt
        assert set(elements_of(res)) == term

    def test_s3_residual(self, s3):
        res = gamma_infinity(s3)
        assert res.order() == 3

    def test_lower_central_profile_d8(self, d8):
        assert lower_central_series(d8).orders == (8, 2, 1)


class TestPredicates:
    def test_trivial_group_satisfies_all(self):
        t = PermGroup(1, ())
        assert is_nilpotent(t) and is_soluble(t) and is_metanilpotent(t)

    def test_s4(self, s4):
        assert not is_nilpotent(s4)
        assert is_soluble(s4)
        assert not is_metanilpotent(s4)

    def test_a5_not_soluble(self, a5):
        assert not is_soluble(a5)

    def test_s3_is_metanilpotent(self, s3):
        assert is_metanilpotent(s3) and not is_nilpotent(s3)

    def test_d8_is_nilpotent(self, d8):
        assert is_nilpotent(d8)


class TestLowerFittingSeries:
    def test_s4_height_three(self, s4):
        rep = lower_fitting_series(s4)
        assert rep.orders == (24, 12, 4, 1)
        assert rep.fitting_height == 3

    def test_insoluble_has_no_height(self, a5):
        rep = lower_fitting_series(a5)
        assert rep.fitting_height is None

    def test_height_matches_exhaustive_minimal_series(self, s4, s3, d8):
        # oracle: minimal length of a normal series with nilpotent factors,
        # by exhaustive recursion over normal subgroups
        def minimal_height(G: PermGroup) -> int:
            if G.order() == 1:
                return 0
            best = None
            for nset in normal_subgroup_sets_oracle(G):
                N = group_from_elements(G.degree, nset)
                if N.order() == G.order():
                    continue
                Q, _ = quotient(G, N)
                if is_nilpotent(Q):
                    h = 1 + minimal_height(N)
                    best = h if best is None else min(best, h)
            assert best is not None
            return best

        for G in (s4, s3, d8, cyclic(12)):
            assert lower_fitting_series(G).fitting_height == minimal_height(G)


class TestSylowSubgroups:
    def test_s4_sylow_orders(self, s4):
        assert sylow_subgroup(s4, 2).order() == 8
        assert sylow_subgroup(s4, 3).order() == 3

    def test_p_group_is_its_own_sylow(self, d8):
        assert equals(sylow_subgroup(d8, 2), d8)

    def test_rejects_non_divisor(self, s4):
        with pytest.raises(NotPrimeDivisor):
            sylow_subgroup(s4, 5)
        with pytest.raises(NotPrimeDivisor):
            sylow_subgroup(s4, 4)

    def test_sylow_is_subgroup(self, s4, a5):
        for G, p in ((s4, 2), (s4, 3), (a5, 2), (a5, 3), (a5, 5)):
            P = sylow_subgroup(G, p)
            assert is_subgroup_of(P, G)


def normalizer_scan_oracle(G: PermGroup, H: PermGroup) -> set[Permutation]:
    """N_G(H) by conjugating H's generators by every element and sifting them through H."""
    return {g for g in elements_of(G) if all(contains(H, h.conjugate(g)) for h in H.generators)}


def p_core_scan_oracle(G: PermGroup, P: PermGroup) -> set[Permutation]:
    """The intersection of the conjugates of P by every element of G."""
    core = set(elements_of(P))
    for g in elements_of(G):
        core &= {x.conjugate(g) for x in elements_of(P)}
    return core


class TestIndexedScansAgainstPermutationScans:
    """The normalizer scan and p_core on the indexed view agree with the Permutation scans."""

    @pytest.mark.parametrize("name", builtin_names())
    def test_every_sylow_normalizer_and_p_core(self, name):
        G = load_group(name)
        iv = indexed_view(G)
        for p in prime_factors(G.order()):
            P = sylow_subgroup(G, p)
            scanned = iv.subgroup(iv.normalizing([P]))
            assert set(elements_of(scanned)) == normalizer_scan_oracle(G, P)
            assert set(elements_of(p_core(G, p))) == p_core_scan_oracle(G, P)


def check_sylow_scan_against_oracle(G: PermGroup, domains) -> None:
    iv = indexed_view(G)
    for domain in domains:
        for p in prime_factors(len(domain)):
            assert _sylow_indices(iv, p, domain) == sylow_scan_oracle(iv, p, domain), (p, domain)


class TestSylowScan:
    """The scan that tests y^-1 matches the former scan, members and generators alike."""

    @pytest.mark.parametrize("name", builtin_names() + SCALE_NAMES)
    def test_on_g_and_on_every_normal_subgroup(self, name):
        G = load_group(name) if name in builtin_names() else scale_group(name)
        # the normal subgroups' index lists are the coprime-action family's domains
        check_sylow_scan_against_oracle(
            G, [range(G.order())] + [sorted(M) for M in normal_subgroups(G)])

    def test_on_s4_cubed(self):
        G = stretch_group("S4cubed")
        check_sylow_scan_against_oracle(G, [range(G.order())])


class TestCores:
    def test_s4_cores_against_class_union_oracle(self, s4):
        assert p_core(s4, 2).order() == 4
        assert p_core(s4, 3).order() == 1
        assert fitting_subgroup(s4).order() == 4
        assert p_prime_core_oracle(s4, 2).order() == 1
        # oracle: largest normal 2-subgroup / 2'-subgroup over all class unions
        normals = normal_subgroup_sets_oracle(s4)
        two_subgroups = [n for n in normals
                         if all(x.order() in (1, 2, 4, 8) for x in n)]
        assert max(len(n) for n in two_subgroups) == 4
        odd_order_normals = [n for n in normals if len(n) % 2 == 1]
        assert max(len(n) for n in odd_order_normals) == 1

    def test_s3_cores(self, s3):
        assert fitting_subgroup(s3).order() == 3
        assert p_prime_core_oracle(s3, 3).order() == 1
        assert p_prime_core_oracle(s3, 2).order() == 3

    def test_nilpotent_group_is_its_own_fitting_subgroup(self, d8):
        assert equals(fitting_subgroup(d8), d8)

    def test_fitting_contains_every_normal_nilpotent_subgroup(self, s4, s3):
        for G in (s4, s3):
            F = fitting_subgroup(G)
            for nset in normal_subgroup_sets_oracle(G):
                N = group_from_elements(G.degree, nset)
                if is_nilpotent(N):
                    assert is_subgroup_of(N, F)


class TestSylowBasis:
    def test_nilpotent_basis_normalizer_is_whole_group(self, d8):
        B = sylow_basis(d8)
        assert equals(B.normalizer, d8)
        assert set(B.basis) == {2}

    def test_s4_basis(self, s4):
        B = sylow_basis(s4)
        assert set(B.basis) == {2, 3}
        assert B.basis[2].order() == 8 and B.basis[3].order() == 3
        assert B.normalizer.order() == 2
        assert is_nilpotent(B.normalizer)
        # the factorization G = T * residual
        covered = product_set(elements_of(B.normalizer), elements_of(gamma_infinity(s4)))
        assert len(covered) == 24

    def test_s3_basis_normalizer_order(self, s3):
        assert sylow_basis(s3).normalizer.order() == 2

    def test_insoluble_rejected(self, a5):
        with pytest.raises(NotSoluble):
            sylow_basis(a5)

    def test_pairwise_permutability(self, s4):
        B = sylow_basis(s4)
        P, Q = B.basis[2], B.basis[3]
        assert product_set(elements_of(P), elements_of(Q)) == product_set(elements_of(Q), elements_of(P))

    def test_two_seeds_give_conjugate_normalizers(self, s4):
        T0 = sylow_basis(s4, seed=0).normalizer
        T1 = sylow_basis(s4, seed=5).normalizer
        assert any(equals(conjugated(T0, g), T1) for g in elements_of(s4))

    def test_normalizer_image_in_quotient_is_basis_normalizer(self, s4, v4):
        # push T through G -> G/N and compare with a basis normalizer computed there
        B = sylow_basis(s4)
        Q, cmap = quotient(s4, v4)
        T_image = subgroup_generated(Q.degree, [cmap(t) for t in B.normalizer.generators])
        TQ = sylow_basis(Q).normalizer
        assert any(equals(conjugated(TQ, g), T_image) for g in elements_of(Q))


class TestIntersectBasis:
    def test_whole_group_fixed_point(self, s4):
        B = sylow_basis(s4)
        BK = intersect_basis(B, s4)
        for p in B.basis:
            assert equals(BK.basis[p], B.basis[p])

    def test_s4_down_to_a4(self, s4, a4):
        B = sylow_basis(s4)
        BK = intersect_basis(B, a4)
        assert BK.basis[2].order() == 4
        assert BK.basis[3].order() == 3
        assert BK.normalizer.order() == 3

    def test_trivial_subgroup(self, s4):
        from nilcrit.group import trivial_group
        B = sylow_basis(s4)
        BK = intersect_basis(B, trivial_group(4))
        assert BK.basis == {}
        assert BK.normalizer.order() == 1

    def test_non_normal_subgroup_rejected(self, s4):
        from nilcrit.errors import NotNormal
        B = sylow_basis(s4)
        H = subgroup_generated(4, [perm("(1 2 3)", 4)])
        with pytest.raises(NotNormal):
            intersect_basis(B, H)


# The Permutation formulations the Sylow layer used before it moved onto the
# indexed view, kept as oracles.

SCALE_CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"
SOLUBLE_SCALE = ("AGammaL1_8", "AGL1_16", "ASL2_3", "C2wrS4", "AGL2_3", "S4xS4",
                 "S3wrC3", "S4wrC2")
SOLUBLE_GROUPS = filter_names("soluble") + list(SOLUBLE_SCALE)
SCALE_NAMES = tuple(sorted(path.stem for path in SCALE_CORPUS.glob("*.grp")))


@functools.lru_cache(maxsize=None)
def loaded(name: str) -> PermGroup:
    """A builtin, or a group of the scale corpus, loaded once."""
    return load_group(str(SCALE_CORPUS / f"{name}.grp") if name in SCALE_NAMES else name)


def conjugate_groups(G: PermGroup, P: PermGroup) -> list[PermGroup]:
    """The conjugates of P in G, each wrapped as sylow_basis wraps a candidate it tests."""
    iv = indexed_view(G)
    return [iv.known_subgroup(frozenset(members), gens)
            for members, gens in _distinct_conjugates(G, P)]


def p_power_part(x: Permutation, p: int) -> Permutation:
    """The p-part of x: a power of x whose order is the p-part of |x|."""
    n = x.order()
    return x ** (n // p_part(n, p))


def sylow_growth_oracle(G: PermGroup, p: int) -> PermGroup:
    """Sylow growth that scans the normalizer N_G(P), in element order, at every step."""
    target = p_part(G.order(), p)
    seed = next(x for x in elements_of(G) if x.order() % p == 0)
    P = subgroup_generated(G.degree, [p_power_part(seed, p)])
    while P.order() < target:
        for y in sorted(normalizer_scan_oracle(G, P), key=lambda x: x.images):
            if y.order() % p == 0:
                z = p_power_part(y, p)
                if not contains(P, z):
                    P = subgroup_generated(G.degree, P.generators + (z,))
                    break
        else:
            raise AssertionError("normalizer scan found no p-element outside P")
    return P


@functools.lru_cache(maxsize=None)
def conjugates_oracle(G: PermGroup, p: int) -> list[frozenset[Permutation]]:
    """The conjugates of the Sylow p-subgroup by every element of G, sorted by sorted images."""
    base = elements_of(sylow_subgroup(G, p))
    found = {frozenset(x.conjugate(g) for x in base) for g in elements_of(G)}
    return sorted(found, key=lambda s: sorted(x.images for x in s))


def permutable_oracle(P: frozenset[Permutation], Q: frozenset[Permutation]) -> bool:
    return product_set(P, Q) == product_set(Q, P)


def basis_normalizer_oracle(G: PermGroup, basis: list[frozenset[Permutation]]) -> set[Permutation]:
    """The intersection of the normalizers N_G(P) of the basis members."""
    members = set(elements_of(G))
    for P in basis:
        members &= normalizer_scan_oracle(G, subgroup_generated(G.degree, P))
    return members


def sylow_basis_oracle(G: PermGroup, seed: int) -> list[frozenset[Permutation]]:
    """Backtracking over the oracle candidates, shuffled as sylow_basis shuffles them."""
    candidates = []
    for p in prime_factors(G.order()):
        conj = list(conjugates_oracle(G, p))
        if seed:
            random.Random(f"{seed}/{p}").shuffle(conj)
        candidates.append(conj)

    def extend(chosen: list[frozenset[Permutation]]) -> list[frozenset[Permutation]] | None:
        if len(chosen) == len(candidates):
            return chosen
        for P in candidates[len(chosen)]:
            if all(permutable_oracle(Q, P) for Q in chosen):
                found = extend(chosen + [P])
                if found is not None:
                    return found
        return None

    return extend([])


def intersect_basis_oracle(G: PermGroup, basis: list[frozenset[Permutation]],
                           K: PermGroup) -> tuple[list[set[Permutation]], set[Permutation]]:
    """Element-set intersections with K, and their basis normalizer computed inside K."""
    k_elems = set(elements_of(K))
    members = [P & k_elems for P in basis if len(P & k_elems) > 1]
    return members, basis_normalizer_oracle(K, members)


@pytest.mark.parametrize("name", SOLUBLE_GROUPS)
class TestSylowLayerAgainstPermutationOracles:
    """Sylow subgroups, candidates, bases and normalizers on the indexed view
    agree with the Permutation formulations they replaced."""

    def test_sylow_subgroups(self, name):
        G = loaded(name)
        for p in prime_factors(G.order()):
            P, Q = sylow_subgroup(G, p), sylow_growth_oracle(G, p)
            assert elements_of(P) == elements_of(Q)
            assert P.generators == Q.generators

    def test_candidate_lists(self, name):
        G = loaded(name)
        for p in prime_factors(G.order()):
            conj = conjugate_groups(G, sylow_subgroup(G, p))
            got = [frozenset(elements_of(C)) for C in conj]
            assert got == conjugates_oracle(G, p)

    def test_permutability(self, name):
        # up to six candidates at each of the first three primes
        G = loaded(name)
        iv = indexed_view(G)
        primes = prime_factors(G.order())
        for p, q in itertools.combinations(primes[:3], 2):
            for P in conjugate_groups(G, sylow_subgroup(G, p))[:6]:
                for Q in conjugate_groups(G, sylow_subgroup(G, q))[:6]:
                    assert _permutable(iv, P, Q) == permutable_oracle(frozenset(elements_of(P)),
                                                                      frozenset(elements_of(Q)))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_bases_and_normalizers(self, name, seed):
        G = loaded(name)
        B = sylow_basis(G, seed=seed)
        want = sylow_basis_oracle(G, seed)
        assert [frozenset(elements_of(B.basis[p])) for p in B.primes] == want
        assert set(elements_of(B.normalizer)) == basis_normalizer_oracle(G, want)
        for K in lower_fitting_series(G).terms:
            BK = intersect_basis(B, K)
            members, T = intersect_basis_oracle(G, want, K)
            assert [set(elements_of(BK.basis[p])) for p in BK.primes] == members
            assert set(elements_of(BK.normalizer)) == T

    def test_the_ambient_group_keeps_its_basis(self, name):
        G = loaded(name)
        B = sylow_basis(G)
        assert intersect_basis(B, G) is B


@settings(max_examples=60, deadline=None)
@given(small_symmetric_subgroups(7))
def test_random_subgroups_against_the_backtracking_oracle(G):
    # One pass finds the basis backtracking finds: in a soluble group no choice is undone.
    for seed in (0, 3):
        if not is_soluble(G):
            with pytest.raises(NotSoluble):
                sylow_basis(G, seed=seed)
            with pytest.raises(NotSoluble):
                generator_tower(G, seed=seed)
            continue
        B = sylow_basis(G, seed=seed)
        assert [frozenset(elements_of(B.basis[p])) for p in B.primes] == sylow_basis_oracle(G, seed)
        generator_tower(G, seed=seed)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["AGammaL1_8", "AGL1_16"]), st.data())
def test_relabelled_three_prime_groups_against_the_backtracking_oracle(name, data):
    # Random draws above rarely have three primes, where a candidate can be passed
    # over; relabelling the points reorders the candidates.
    G = loaded(name)
    H = conjugated(G, Permutation(data.draw(st.permutations(range(G.degree)))))
    for seed in (0, 3):
        B = sylow_basis(H, seed=seed)
        assert [frozenset(elements_of(B.basis[p])) for p in B.primes] == sylow_basis_oracle(H, seed)


class TestPPrimeCoreAgainstChainOracle:
    """The chain oracle's p'-cores against the p-cores and Fitting subgroup on index sets.

    O_p(H) and O_{p'}(H) are normal of coprime orders, so they meet trivially
    and centralize each other; in a nilpotent H such as F(G) they are the
    two factors of H = O_p(H) x O_{p'}(H).
    """

    @pytest.mark.parametrize("name", builtin_names() + list(SCALE_NAMES))
    def test_p_prime_cores_of_the_group_and_its_fitting_subgroup(self, name):
        G = loaded(name)
        F = fitting_subgroup(G)
        for H in (G, F):
            for p in prime_factors(H.order()):
                O_p, O_q = p_core(H, p), p_prime_core_oracle(H, p)
                assert p_part(O_p.order(), p) == O_p.order(), p
                assert O_q.order() % p != 0, p
                assert all(a * b == b * a for a in O_p.generators for b in O_q.generators), p
                if H is F:
                    assert O_p.order() * O_q.order() == F.order(), p

    def test_builds_no_chain_once_the_view_exists(self, monkeypatch):
        G = load_group(str(SCALE_CORPUS / "S4xS4.grp"))
        indexed_view(G)  # builds G's chain and view

        def refuse(*args, **kwargs):
            raise AssertionError("the cores built a stabilizer chain")

        monkeypatch.setattr("nilcrit.group.StabilizerChain", refuse)
        assert p_core(G, 2).order() == 16  # V4 x V4, which is O_{3'}(G) as well
        assert p_core(G, 3).order() == 1
        assert fitting_subgroup(G).order() == 16


def unbounded_series_orders(G: PermGroup) -> dict[str, tuple[int, ...]]:
    """The three series' order profiles, each term a fresh normal closure with no bound and no memo."""
    def descend(H: PermGroup, step) -> list[PermGroup]:
        terms = [H]
        while terms[-1].order() != 1:
            terms.append(step(terms[-1]))
            if terms[-1].order() == terms[-2].order():
                break
        return terms

    def gamma_infinity_unbounded(H: PermGroup) -> PermGroup:
        return descend(H, lambda t: normal_closure(H, _commutators(t.generators, H.generators)))[-1]

    series = {
        "derived": descend(G, lambda H: normal_closure(H, _commutators(H.generators, H.generators))),
        "lower_central": descend(G, lambda t: normal_closure(G, _commutators(t.generators,
                                                                              G.generators))),
        "lower_fitting": descend(G, gamma_infinity_unbounded),
    }
    return {kind: tuple(t.order() for t in terms) for kind, terms in series.items()}


class TestEachSubgroupBuiltOnce:
    """Series terms and Sylow-layer subgroups are built once per group and then shared."""

    @pytest.mark.parametrize("name", builtin_names() + list(SCALE_NAMES))
    def test_gamma_2_is_the_derived_subgroup(self, name):
        G = loaded(name)
        terms = lower_central_series(G).terms
        if G.order() == 1:
            assert terms == (G,)
        else:
            assert terms[1] is derived_subgroup(G)

    @pytest.mark.parametrize("name", builtin_names() + list(SCALE_NAMES))
    def test_a_stalled_series_repeats_its_last_term(self, name):
        G = loaded(name)
        want = unbounded_series_orders(G)
        for series in (derived_series(G), lower_central_series(G), lower_fitting_series(G)):
            assert series.orders == want[series.kind]
            if not series.reaches_trivial():
                assert series.terms[-1] is series.terms[-2], series.kind

    @pytest.mark.parametrize("name", ["S4xS4", "S3wrC3"])
    def test_the_sylow_layer_builds_no_chain(self, name, monkeypatch):
        G = load_group(str(SCALE_CORPUS / f"{name}.grp"))
        indexed_view(G)
        fitting = lower_fitting_series(G).terms
        derived_series(G)

        def refuse(*args, **kwargs):
            raise AssertionError("the Sylow layer built a stabilizer chain")

        monkeypatch.setattr("nilcrit.group.StabilizerChain", refuse)
        B = sylow_basis(G)
        for K in fitting:
            intersect_basis(B, K)
        tower = generator_tower(G)
        assert tower.chain_orders() == tuple(K.order() for K in fitting if K.order() > 1)


class TestProductOrder:
    def test_matches_product_sets_of_non_normal_subgroups(self, s4):
        subgroups = conjugate_groups(s4, sylow_subgroup(s4, 2))
        subgroups += conjugate_groups(s4, sylow_subgroup(s4, 3))
        subgroups.append(subgroup_generated(4, [perm("(1 2)", 4)]))
        for A, B in itertools.product(subgroups, repeat=2):
            assert product_order(s4, A, B) == len(product_set(elements_of(A), elements_of(B)))
