"""Group kernel: chains, enumeration, closure, conjugacy; and the quotient oracle."""

from __future__ import annotations

import inspect
import random
from pathlib import Path

import pytest

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
    centralizer,
    normal_closure,
    normalizer,
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
    lower_central_series,
    lower_fitting_series,
    p_core,
    p_prime_core,
    sylow_subgroup,
)
from nilcrit.words import delta_values

from conftest import class_lists, closure_oracle, classes_oracle, perm
from oracles import group_from_elements, is_normal, quotient


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
        assert t.contains(Permutation.identity(3))
        assert not t.contains(perm("(1 2)", 3))

    def test_s4_order_against_closure_oracle(self, s4):
        oracle = closure_oracle(4, list(s4.generators))
        assert len(oracle) == 24
        assert s4.order() == 24
        assert set(s4.elements()) == oracle

    def test_a4_membership_against_oracle(self, a4):
        oracle = closure_oracle(4, list(a4.generators))
        assert perm("(1 2)", 4) not in oracle
        assert not a4.contains(perm("(1 2)", 4))
        for x in oracle:
            assert a4.contains(x)

    def test_larger_groups(self, a5):
        assert a5.order() == 60
        s6 = PermGroup(6, (perm("(1 2)", 6), perm("(1 2 3 4 5 6)", 6)))
        assert s6.order() == 720

    def test_generators_pass_membership(self, s4, a4, a5, d8):
        for G in (s4, a4, a5, d8):
            for g in G.generators:
                assert G.contains(g)

    def test_enumeration_cap(self, s4):
        with pytest.raises(OrderCapExceeded) as err:
            s4.elements(cap=10)
        assert err.value.order == 24
        assert err.value.cap == 10

    def test_elements_sorted_and_start_at_identity(self, s4):
        elems = s4.elements()
        assert list(elems) == sorted(elems)
        assert elems[0].is_identity()

    def test_random_element_uniform_support(self, s4):
        import random
        rng = random.Random(3)
        seen = {s4.random_element(rng) for _ in range(600)}
        assert seen == set(s4.elements())


class TestSubgroupGenerated:
    def test_empty_seed_gives_trivial(self):
        assert subgroup_generated(4, ()).order() == 1

    def test_cyclic(self):
        assert subgroup_generated(3, [perm("(1 2 3)", 3)]).order() == 3

    def test_v4_inside_s4(self):
        G = subgroup_generated(4, [perm("(1 2)(3 4)", 4), perm("(1 3)(2 4)", 4)])
        assert G.order() == 4
        assert set(G.elements()) == closure_oracle(4, list(G.generators))

    def test_group_from_elements_round_trip(self, s4):
        rebuilt = group_from_elements(4, s4.elements())
        assert rebuilt.order() == 24
        assert rebuilt.equals(s4)

    def test_group_from_elements_rejects_non_closed(self):
        with pytest.raises(ValueError):
            group_from_elements(3, [Permutation.identity(3), perm("(1 2 3)", 3)])

    def test_redundant_inputs_are_dropped_in_order(self, s4):
        a, b = perm("(1 2)", 4), perm("(1 2 3 4)", 4)
        G = subgroup_generated(4, [Permutation.identity(4), a, a * a, b, a * b, b * a])
        assert G.generators == (a, b)
        assert G.equals(s4)

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
                "normal": tuple(normal_subgroups(G)),
                "Sylow": tuple(sylow_subgroup(G, p) for p in primes),
                "p-core": tuple(p_core(G, p) for p in primes),
                "p'-core": tuple(p_prime_core(G, p) for p in primes),
                "centralizer": tuple(centralizer(G, g) for g in G.generators),
                "normalizer": tuple(normalizer(G, sylow_subgroup(G, p)) for p in primes),
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
    for x in G.elements():
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


class TestConjugacy:
    @pytest.mark.parametrize("name", builtin_names())
    def test_class_labels_match_generator_orbits(self, corpus, name):
        G = corpus[name]
        want = generator_orbit_classes(G)
        iv = indexed_view(G)
        labels, reps = iv.class_labels()
        got: list[set[Permutation]] = [set() for _ in reps]
        for x, c in zip(iv.elements, labels):
            got[c].add(x)
        assert got == want
        assert [iv.elements[r] for r in reps] == [min(c) for c in want]
        assert [set(c) for c in class_lists(G)] == want

    def test_s3_class_sizes(self, s3):
        classes = class_lists(s3)
        assert sorted(len(c) for c in classes) == [1, 2, 3]

    def test_classes_match_oracle(self, s4):
        got = [set(c) for c in class_lists(s4)]
        want = classes_oracle(4, set(s4.elements()))
        assert got == want

    def test_class_sizes_divide_group_order(self, s4, a5):
        for G in (s4, a5):
            classes = class_lists(G)
            assert sum(len(c) for c in classes) == G.order()
            for c in classes:
                assert G.order() % len(c) == 0

    def test_centralizer_index_is_class_size(self, s4):
        for c in class_lists(s4):
            x = c[0]
            assert centralizer(s4, x).order() * len(c) == s4.order()

    @pytest.mark.parametrize("name", builtin_names())
    def test_centralizers_match_product_scan(self, corpus, name):
        # the former centralizer: a * g == g * a for every g in G
        G = corpus[name]
        for c in class_lists(G):
            a = c[0]
            want = [g for g in G.elements() if a * g == g * a]
            assert centralizer(G, a).elements() == tuple(want)

    def test_centralizer_forms_no_product_per_element(self, monkeypatch):
        # the former scan formed a * g and g * a for every g in G
        G = load_group(str(Path(__file__).resolve().parents[1] / "bench" / "corpus"
                           / "AGL1_16.grp"))
        indexed_view(G).conjugation_tables()
        a = next(x for x in G.elements() if x.order() == 15)
        calls = 0
        mul = Permutation.__mul__

        def counted(x, y):
            nonlocal calls
            calls += 1
            return mul(x, y)

        monkeypatch.setattr(Permutation, "__mul__", counted)
        assert centralizer(G, a).order() == 15
        assert calls < G.order()

    def test_centralizer_rejects_an_element_outside_the_group(self, a4):
        with pytest.raises(NotNormal):
            centralizer(a4, perm("(1 2)", 4))


class TestIndexedClosure:
    def test_closure_of_every_element_builds_at_most_log2_rows(self):
        # one row per seed was 1152 rows here; each kept seed doubles the group
        G = load_group(str(Path(__file__).resolve().parents[1] / "bench" / "corpus"
                           / "S4wrC2.grp"))
        iv = IndexedGroup(G)
        assert iv.closure(range(iv.size)) == frozenset(range(iv.size))
        assert sum(row is not None for row in iv._rows) <= 10  # floor(log2 1152)

    def test_random_seed_subsets_of_s4(self, s4):
        iv = indexed_view(s4)
        rng = random.Random(5)
        for _ in range(300):
            seed = rng.sample(range(iv.size), rng.randrange(5))
            want = iv.member_indices(subgroup_generated(4, iv.perms(seed)))
            assert iv.closure(seed) == want, seed


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

    def test_normalizer_of_whole_group(self, s4):
        assert normalizer(s4, s4).equals(s4)

    def test_normalizer_of_sylow3_in_s4(self, s4):
        H = subgroup_generated(4, [perm("(1 2 3)", 4)])
        N = normalizer(s4, H)
        assert N.order() == 6
        # oracle: explicit scan
        scan = [g for g in s4.elements()
                if all(H.contains(h.conjugate(g)) for h in H.generators)]
        assert set(N.elements()) == set(scan)

    def test_normalizer_rejects_a_non_subgroup(self, a4):
        with pytest.raises(NotNormal):
            normalizer(a4, subgroup_generated(4, [perm("(1 2)", 4)]))

    def test_centralizer_of_transposition(self, s4):
        C = centralizer(s4, perm("(1 2)", 4))
        assert C.order() == 4


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
        for n in v4.elements():
            assert cmap(n).is_identity()
        non_kernel = [g for g in s4.elements() if not v4.contains(g)]
        assert all(not cmap(g).is_identity() for g in non_kernel)

    def test_quotient_map_is_homomorphism(self, s4, v4):
        Q, cmap = quotient(s4, v4)
        elems = s4.elements()
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
        # the oracle scans products, and the library's coset labels, read
        # off rows, number the cosets the same way
        iv = indexed_view(s4)
        for N in (trivial_group(4), v4, a4, s4):
            _, cmap = quotient(s4, N)
            kernel = N.elements()
            for r in cmap.reps:
                assert r == min(n * r for n in kernel)
            labels, reps = iv.coset_labels(N)
            assert list(cmap.reps) == iv.perms(reps)
            assert [cmap.labels[g] for g in iv.elements] == labels
            for g in iv.elements:
                coset = {n * g for n in kernel}
                assert {h for h in iv.elements if cmap.labels[h] == cmap.labels[g]} == coset


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

    # the only functions that enumerate a group: the view and the element list under it
    CAP_TAKERS = {"PermGroup.elements", "IndexedGroup.__init__", "indexed_view"}

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
        assert sylow_subgroup(cold, 2).elements() == sylow_subgroup(warm, 2).elements()
        assert fitting_subgroup(cold).elements() == fitting_subgroup(warm).elements()
        assert delta_values(cold, 1).indices == delta_values(warm, 1).indices
        assert indexed_view(cold).elements == indexed_view(warm).elements
