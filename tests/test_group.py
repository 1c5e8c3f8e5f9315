"""Group kernel: chains, enumeration, closure, conjugacy; and the quotient oracle."""

from __future__ import annotations

import inspect
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nilcrit
import nilcrit.criterion
import nilcrit.group
import nilcrit.indexed
import nilcrit.lemmas
import nilcrit.structure
import nilcrit.words
from nilcrit.corpus import builtin_names, load_group
from nilcrit.errors import DegreeMismatch, NotNormal, OrderCapExceeded
from nilcrit.group import (
    DEFAULT_ENUM_CAP,
    PermGroup,
    normal_closure,
    subgroup_generated,
    trivial_group,
)
from nilcrit.indexed import IndexedGroup, indexed_view
from nilcrit.lemmas import normal_subgroups
from nilcrit.perm import Permutation
from nilcrit.primes import prime_factors
from nilcrit.structure import (
    derived_series,
    fitting_subgroup,
    is_soluble,
    lower_central_series,
    lower_fitting_series,
    p_core,
    sylow_subgroup,
)
from nilcrit.words import delta_values, generator_tower

from conftest import (SCALE_CORPUS, CountingIndex, class_lists, closure_oracle, classes_oracle, perm,
                      small_symmetric_subgroups)
from oracles import (contains, elements_of, equals, group_from_elements, is_normal, normalizer_oracle,
                     quotient, random_element)


def big_omega(n: int) -> int:
    """Number of prime factors of n, counted with multiplicity."""
    count, d = 0, 2
    while n > 1:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count


class TestChainAndOrder:
    def test_trivial_group(self):
        t = trivial_group(3)
        assert t.order() == 1
        assert contains(t, Permutation.identity(3))
        assert not contains(t, perm("(1 2)", 3))

    def test_s4_order_against_closure_oracle(self, s4):
        oracle = closure_oracle(4, list(s4.generators))
        assert len(oracle) == 24
        assert s4.order() == 24
        assert set(elements_of(s4)) == oracle

    def test_a4_membership_against_oracle(self, a4):
        oracle = closure_oracle(4, list(a4.generators))
        assert perm("(1 2)", 4) not in oracle
        assert not contains(a4, perm("(1 2)", 4))
        for x in oracle:
            assert contains(a4, x)

    def test_larger_groups(self, a5):
        assert a5.order() == 60
        s6 = PermGroup(6, (perm("(1 2)", 6), perm("(1 2 3 4 5 6)", 6)))
        assert s6.order() == 720

    def test_generators_pass_membership(self, s4, a4, a5, d8):
        for G in (s4, a4, a5, d8):
            for g in G.generators:
                assert contains(G, g)

    def test_enumeration_cap(self, s4):
        with pytest.raises(OrderCapExceeded) as err:
            IndexedGroup(s4, cap=10)
        assert err.value.order == 24
        assert err.value.cap == 10

    def test_elements_sorted_and_start_at_identity(self, s4):
        elems = elements_of(s4)
        assert list(elems) == sorted(elems)
        assert elems[0].is_identity()

    def test_random_element_uniform_support(self, s4):
        import random
        rng = random.Random(3)
        seen = {random_element(s4, rng) for _ in range(600)}
        assert seen == set(elements_of(s4))


class TestSubgroupGenerated:
    def test_empty_seed_gives_trivial(self):
        assert subgroup_generated(4, ()).order() == 1

    def test_cyclic(self):
        assert subgroup_generated(3, [perm("(1 2 3)", 3)]).order() == 3

    def test_v4_inside_s4(self):
        G = subgroup_generated(4, [perm("(1 2)(3 4)", 4), perm("(1 3)(2 4)", 4)])
        assert G.order() == 4
        assert set(elements_of(G)) == closure_oracle(4, list(G.generators))

    def test_group_from_elements_round_trip(self, s4):
        rebuilt = group_from_elements(4, elements_of(s4))
        assert rebuilt.order() == 24
        assert equals(rebuilt, s4)

    def test_group_from_elements_rejects_non_closed(self):
        with pytest.raises(ValueError):
            group_from_elements(3, [Permutation.identity(3), perm("(1 2 3)", 3)])

    def test_redundant_inputs_are_dropped_in_order(self, s4):
        a, b = perm("(1 2)", 4), perm("(1 2 3 4)", 4)
        G = subgroup_generated(4, [Permutation.identity(4), a, a * a, b, a * b, b * a])
        assert G.generators == (a, b)
        assert equals(G, s4)

    def test_constructed_subgroups_keep_at_most_omega_generators(self, corpus):
        """Every kept generator at least doubles the order, so a subgroup H
        built by the library has at most Omega(|H|) generators."""
        over = []
        for name, G in corpus.items():
            primes = prime_factors(G.order())
            subgroups = {
                "derived": derived_series(G).terms,
                "lower central": lower_central_series(G).terms,
                "lower Fitting": lower_fitting_series(G).terms,
                "Fitting": (fitting_subgroup(G),),
                "Sylow": tuple(sylow_subgroup(G, p) for p in primes),
                "p-core": tuple(p_core(G, p) for p in primes),
                "basis normalizer": generator_tower(G).normalizers if is_soluble(G) else (),
            }
            for kind, terms in subgroups.items():
                for H in terms:
                    if len(H.generators) > max(1, big_omega(H.order())):
                        over.append((name, kind, H.order(), len(H.generators)))
        assert over == []


def generator_orbit_classes(G: PermGroup) -> list[set[Permutation]]:
    """The former conjugacy_classes: orbits under conjugation by G's generators."""
    seen: set[Permutation] = set()
    classes = []
    for x in elements_of(G):
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in G.generators:
                z = y.conjugate(g)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        seen |= orbit
        classes.append(orbit)
    return sorted(classes, key=lambda c: min(c).images)


def centralizer_indices(G: PermGroup, a: Permutation) -> list[int]:
    """C_G(a) as increasing indices of G's view: the g with a^g = a, each a^g formed by ``conj``.

    a's index is found by closing <a> in the view, which raises NotNormal when
    a lies outside G.
    """
    iv = indexed_view(G)
    iv.member_indices(subgroup_generated(G.degree, [a]))
    r = iv.index[a.images]
    return [g for g in range(iv.size) if iv.conj(r, g) == r]


class TestConjugacy:
    @pytest.mark.parametrize("name", builtin_names())
    def test_class_labels_match_generator_orbits(self, corpus, name):
        G = corpus[name]
        want = generator_orbit_classes(G)
        iv = indexed_view(G)
        labels, reps = iv.class_labels()
        got: list[set[Permutation]] = [set() for _ in reps]
        for x, c in zip(iv.perms(range(iv.size)), labels):
            got[c].add(x)
        assert got == want
        assert [iv.element(r) for r in reps] == [min(c) for c in want]
        assert [set(c) for c in class_lists(G)] == want

    def test_s3_class_sizes(self, s3):
        classes = class_lists(s3)
        assert sorted(len(c) for c in classes) == [1, 2, 3]

    def test_classes_match_oracle(self, s4):
        got = [set(c) for c in class_lists(s4)]
        want = classes_oracle(4, set(elements_of(s4)))
        assert got == want

    def test_class_sizes_divide_group_order(self, s4, a5):
        for G in (s4, a5):
            classes = class_lists(G)
            assert sum(len(c) for c in classes) == G.order()
            for c in classes:
                assert G.order() % len(c) == 0

    def test_centralizer_index_is_class_size(self, s4):
        iv = indexed_view(s4)
        for c in class_lists(s4):
            fixed = centralizer_indices(s4, c[0])
            assert iv.closure(fixed) == set(fixed)
            assert len(fixed) * len(c) == s4.order()

    @pytest.mark.parametrize("name", builtin_names())
    def test_centralizers_match_product_scan(self, corpus, name):
        # C_G(a), the g with a^g = a formed on image bytes, is the g with
        # a * g == g * a, and its index is a's class size
        G = corpus[name]
        iv = indexed_view(G)
        for c in class_lists(G):
            a = c[0]
            fixed = centralizer_indices(G, a)
            assert iv.perms(fixed) == [g for g in elements_of(G) if a * g == g * a]
            assert len(fixed) * len(c) == G.order()

    def test_centralizer_forms_no_product_per_element(self, monkeypatch):
        # C_G(a) is read on image bytes: a scan of Permutations would form
        # a * g and g * a for every g in G
        G = load_group(str(Path(__file__).resolve().parents[1] / "bench" / "corpus"
                           / "AGL1_16.grp"))
        a = next(x for x in elements_of(G) if x.order() == 15)
        calls = 0
        mul = Permutation.__mul__

        def counted(x, y):
            nonlocal calls
            calls += 1
            return mul(x, y)

        monkeypatch.setattr(Permutation, "__mul__", counted)
        assert len(centralizer_indices(G, a)) == 15
        assert calls < G.order()

    def test_centralizer_rejects_an_element_outside_the_group(self, a4):
        with pytest.raises(NotNormal):
            centralizer_indices(a4, perm("(1 2)", 4))


def check_random_seed_subsets(G: PermGroup, rounds: int) -> None:
    # members, and the generators kept, match subgroup_generated's
    iv = indexed_view(G)
    rng = random.Random(5)
    for _ in range(rounds):
        seed = rng.sample(range(iv.size), rng.randrange(5))
        want = subgroup_generated(G.degree, iv.perms(seed))
        assert iv.closure(seed) == iv.member_indices(want), seed
        assert iv.subgroup(seed).generators == want.generators, seed


class TestIndexedClosure:
    def test_closure_of_every_element_forms_each_member_once(self):
        # re-closing by rows re-walked every member after each kept seed
        G = load_group(str(SCALE_CORPUS / "S4wrC2.grp"))
        iv = IndexedGroup(G)
        iv.index = CountingIndex(iv.index)
        members, kept = iv._close(range(iv.size))
        lookups = iv.index.lookups
        assert members == set(range(iv.size))
        assert len(kept) <= 10  # each kept seed at least doubles: floor(log2 1152)
        # one lookup per member formed, and one per (coset, kept seed) for the
        # products r*s of coset representatives; H_i is generated by kept[:i]
        orders = [len(iv.closure(kept[:i])) for i in range(1, len(kept) + 1)]
        cosets = [orders[i] // orders[i - 1] for i in range(1, len(kept))]
        assert lookups <= iv.size + sum(c * (i + 2) for i, c in enumerate(cosets))

    def test_quotient_closure_forms_each_coset_once(self):
        # closing G/N on coset labels forms one product per coset, never one
        # per preimage element: the bound above with cosets for members
        G = load_group(str(SCALE_CORPUS / "S4wrC2.grp"))
        iv = IndexedGroup(G)
        iv.index = CountingIndex(iv.index)
        for N in normal_subgroups(G):
            cosets = len(iv.coset_labels(N)[1])
            kept: list[int] = []
            for s in range(cosets):
                if s not in iv.coset_closure(N, kept):
                    kept.append(s)
            orders = [len(iv.coset_closure(N, kept[:i])) for i in range(1, len(kept) + 1)]
            iv.index.lookups = 0
            assert iv.coset_closure(N, range(cosets)) == set(range(cosets))
            grown = [orders[i] // orders[i - 1] for i in range(1, len(kept))]
            assert iv.index.lookups <= cosets + sum(c * (i + 2) for i, c in enumerate(grown))

    def test_random_seed_subsets_of_s4(self, s4):
        check_random_seed_subsets(s4, 300)

    def test_booleans_are_not_indices(self, s4):
        # True == 1 and hashes alike, so only the type tells them apart
        iv = indexed_view(s4)
        assert iv.are_indices({0, 1})
        assert not iv.are_indices({True})

    def test_random_seed_subsets_of_s4wrc2(self):
        check_random_seed_subsets(load_group(str(SCALE_CORPUS / "S4wrC2.grp")), 100)


class TestNormalStructure:
    def test_normal_closure_of_three_cycle_in_s4(self, s4):
        N = normal_closure(s4, [perm("(1 2 3)", 4)])
        assert N.order() == 12

    def test_normal_closure_is_normal(self, s4):
        N = normal_closure(s4, [perm("(1 2)(3 4)", 4)])
        assert N.order() == 4
        assert is_normal(s4, N)

    def test_normal_closure_rejects_a_seed_of_another_degree(self, s4):
        with pytest.raises(DegreeMismatch):
            normal_closure(s4, [perm("(1 2 3)", 3)])

    @settings(max_examples=60, deadline=None)
    @given(small_symmetric_subgroups(), st.data())
    def test_closure_within_a_bound_is_the_bound_exactly_when_it_fills_it(self, G, data):
        # B, the normal closure of the seed and some extra elements, contains N
        pick = st.lists(st.sampled_from(elements_of(G)), max_size=3)
        seed = data.draw(pick)
        B = normal_closure(G, seed + data.draw(pick))
        iv = indexed_view(G)
        want = iv.member_indices(normal_closure(G, seed))
        N = normal_closure(G, seed, within=B)
        assert iv.member_indices(N) == want
        assert (N is B) == (want == iv.member_indices(B))

    def test_normalizer_of_whole_group(self, s4):
        iv = indexed_view(s4)
        assert equals(iv.subgroup(iv.normalizing([s4])), s4)

    def test_normalizer_of_sylow3_in_s4(self, s4):
        H = subgroup_generated(4, [perm("(1 2 3)", 4)])
        iv = indexed_view(s4)
        N = iv.subgroup(iv.normalizing([H]))
        assert N.order() == 6
        # oracle: explicit scan
        scan = [g for g in elements_of(s4)
                if all(contains(H, h.conjugate(g)) for h in H.generators)]
        assert set(elements_of(N)) == set(scan)

    def test_normalizer_rejects_a_non_subgroup(self, a4):
        with pytest.raises(NotNormal):
            indexed_view(a4).normalizing([subgroup_generated(4, [perm("(1 2)", 4)])])

    @settings(max_examples=60, deadline=None)
    @given(small_symmetric_subgroups(7), st.data())
    def test_normalizer_against_the_permutation_oracle(self, G, data):
        # up to 3 subgroups of G, each on 1 to 3 drawn elements; a domain drawn
        # as distinct indices in any order, whose order the result must keep
        iv = indexed_view(G)
        index = st.integers(0, iv.size - 1)
        subgroups = [subgroup_generated(G.degree, iv.perms(gens))
                     for gens in data.draw(st.lists(st.lists(index, min_size=1, max_size=3),
                                                    min_size=1, max_size=3))]
        assert iv.normalizing(subgroups) == normalizer_oracle(G, subgroups)
        domain = data.draw(st.lists(index, unique=True, max_size=40))
        assert iv.normalizing(subgroups, domain) == normalizer_oracle(G, subgroups, domain)
        # a subgroup's sorted index set, as intersect_basis passes its normal subgroup
        within = sorted(iv.member_indices(subgroups[0]))
        assert iv.normalizing(subgroups, within) == normalizer_oracle(G, subgroups, within)

    def test_centralizer_of_transposition(self, s4):
        C = centralizer_indices(s4, perm("(1 2)", 4))
        assert len(C) == 4


class TestQuotient:
    """The tests-side quotient, which other tests use as an oracle."""

    def test_quotient_by_trivial_is_isomorphic_copy(self, s3):
        Q, cmap = quotient(s3, trivial_group(3))
        assert Q.order() == 6
        assert Q.degree == 6

    def test_s4_mod_v4(self, s4, v4):
        Q, cmap = quotient(s4, v4)
        assert Q.order() == 6
        # coset enumeration oracle: 24/4 = 6 cosets
        assert Q.degree == 6
        # kernel is exactly V4
        for n in elements_of(v4):
            assert cmap(n).is_identity()
        non_kernel = [g for g in elements_of(s4) if not contains(v4, g)]
        assert all(not cmap(g).is_identity() for g in non_kernel)

    def test_quotient_map_is_homomorphism(self, s4, v4):
        Q, cmap = quotient(s4, v4)
        elems = elements_of(s4)
        for a in elems[:8]:
            for b in elems[:8]:
                assert cmap(a * b) == cmap(a) * cmap(b)

    def test_non_normal_subgroup_rejected(self, s4):
        H = subgroup_generated(4, [perm("(1 2 3)", 4)])
        with pytest.raises(NotNormal):
            quotient(s4, H)

    def test_quotient_order_times_kernel_order(self, s4, a4, v4):
        for N in (a4, v4):
            Q, _ = quotient(s4, N)
            assert Q.order() * N.order() == s4.order()

    def test_reps_are_coset_minima_and_labels_match_membership(self, s4, a4, v4):
        # the oracle scans products, and the library's coset labels, formed
        # from N's image bytes, number the cosets the same way
        iv = indexed_view(s4)
        elements = iv.perms(range(iv.size))
        for N in (trivial_group(4), v4, a4, s4):
            _, cmap = quotient(s4, N)
            kernel = elements_of(N)
            for r in cmap.reps:
                assert r == min(n * r for n in kernel)
            labels, reps = iv.coset_labels(iv.member_indices(N))
            assert list(cmap.reps) == iv.perms(reps)
            assert [cmap.labels[g] for g in elements] == labels
            for g in elements:
                coset = {n * g for n in kernel}
                assert {h for h in elements if cmap.labels[h] == cmap.labels[g]} == coset
        # a kernel that is not normal: its right cosets, not its left ones
        H = subgroup_generated(4, [perm("(1 2 3)", 4)])
        kernel = elements_of(H)
        labels, reps = iv.coset_labels(iv.member_indices(H))
        assert len(reps) == 8
        for g, c in zip(elements, labels):
            coset = {n * g for n in kernel}
            assert {h for h, d in zip(elements, labels) if d == c} == coset
            assert iv.element(reps[c]) == min(coset)


def test_only_the_group_module_touches_the_group_cache():
    # other modules cache through PermGroup.memo, which stores only successes
    package = Path(nilcrit.__file__).resolve().parent
    touching = sorted(path.name for path in package.glob("*.py")
                      if path.name != "group.py" and "._cache" in path.read_text(encoding="utf-8"))
    assert touching == []


def fresh_s4() -> PermGroup:
    return PermGroup(4, (perm("(1 2)", 4), perm("(1 2 3 4)", 4)), name="S4")


class TestEnumerationCap:
    """The cap is checked where G's indexed view is built, and nowhere else."""

    # the only functions that enumerate a group: the view and its builder
    CAP_TAKERS = {"IndexedGroup.__init__", "indexed_view"}

    def test_only_the_view_builders_take_a_cap(self):
        takers = set()
        for module in (nilcrit.group, nilcrit.indexed, nilcrit.structure,
                       nilcrit.words, nilcrit.criterion, nilcrit.lemmas):
            for obj in vars(module).values():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                for f in vars(obj).values() if inspect.isclass(obj) else [obj]:
                    f = getattr(f, "__func__", f)  # classmethods and staticmethods
                    if inspect.isfunction(f) and "cap" in inspect.signature(f).parameters:
                        takers.add(f.__qualname__)
        assert takers == self.CAP_TAKERS

    def test_an_explicit_cap_is_checked_on_every_call(self, monkeypatch):
        G = fresh_s4()
        builds = []
        init = IndexedGroup.__init__

        def counted(self, group, cap=DEFAULT_ENUM_CAP):
            builds.append(cap)
            init(self, group, cap)

        monkeypatch.setattr(IndexedGroup, "__init__", counted)
        with pytest.raises(OrderCapExceeded, match="group order 24 exceeds cap 10"):
            indexed_view(G, 10)
        assert builds == []
        view = indexed_view(G)  # nothing was kept, so this builds
        assert builds == [DEFAULT_ENUM_CAP]
        with pytest.raises(OrderCapExceeded, match="group order 24 exceeds cap 10"):
            indexed_view(G, 10)
        assert indexed_view(G, 24) is view
        assert indexed_view(G) is view
        assert builds == [DEFAULT_ENUM_CAP]

    def test_checks_read_the_same_view_however_it_was_built(self):
        cold, warm = fresh_s4(), fresh_s4()
        indexed_view(warm, 24)
        assert elements_of(sylow_subgroup(cold, 2)) == elements_of(sylow_subgroup(warm, 2))
        assert elements_of(fitting_subgroup(cold)) == elements_of(fitting_subgroup(warm))
        assert delta_values(cold, 1).indices == delta_values(warm, 1).indices
        assert indexed_view(cold).images == indexed_view(warm).images
