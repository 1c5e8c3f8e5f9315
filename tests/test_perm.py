"""Permutation arithmetic, the product convention, and its algebraic identities."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from nilcrit.errors import DegreeMismatch, InvalidPermutation
from nilcrit.perm import MAX_DEGREE, Permutation, commutator

from conftest import TuplePermutation, perm, tuple_commutator


def random_perms(max_degree: int = 8):
    return st.integers(2, max_degree).flatmap(
        lambda n: st.permutations(range(n)).map(Permutation))


def same_degree_pairs(max_degree: int = 8):
    return st.integers(2, max_degree).flatmap(
        lambda n: st.tuples(st.permutations(range(n)).map(Permutation),
                            st.permutations(range(n)).map(Permutation)))


def same_degree_triples(max_degree: int = 7):
    return st.integers(2, max_degree).flatmap(
        lambda n: st.tuples(*(st.permutations(range(n)).map(Permutation) for _ in range(3))))


class TestConstruction:
    def test_rejects_non_bijection(self):
        with pytest.raises(InvalidPermutation):
            Permutation([0, 0, 2])
        with pytest.raises(InvalidPermutation):
            Permutation.from_one_based([1, 1, 3])

    def test_rejects_booleans(self):
        # True == 1, so [True, 0] would otherwise be the transposition of 0 and 1
        with pytest.raises(InvalidPermutation):
            Permutation([True, 0])

    def test_one_based_round_trip(self):
        p = Permutation.from_one_based([2, 1, 3])
        assert p == perm("(1 2)", 3)
        assert p.one_based() == [2, 1, 3]

    def test_cycle_parsing(self):
        assert perm("(1 2)(3 4)", 4).one_based() == [2, 1, 4, 3]
        assert perm("()", 5).is_identity()
        assert perm("(1, 2, 3)", 3) == perm("(1 2 3)", 3)
        with pytest.raises(InvalidPermutation):
            Permutation.parse_cycles("(1 2", 3)
        with pytest.raises(InvalidPermutation):
            Permutation.parse_cycles("(1 2)(2 3)", 3)

    def test_cycle_string_round_trip(self):
        p = perm("(1 3 2)(4 5)", 6)
        assert Permutation.parse_cycles(p.cycle_string(), 6) == p


class TestProductConvention:
    def test_identity_is_neutral(self):
        p = perm("(1 2)", 3)
        assert p * Permutation.identity(3) == p
        assert Permutation.identity(3) * p == p

    def test_left_to_right_composition(self):
        # apply (1 2) first, then (2 3): 1 -> 2 -> 3, so the product is (1 3 2)
        assert perm("(1 2)", 3) * perm("(2 3)", 3) == perm("(1 3 2)", 3)

    def test_inverse_law(self):
        rng = random.Random(7)
        for _ in range(20):
            imgs = list(range(6))
            rng.shuffle(imgs)
            a = Permutation(imgs)
            assert (a * a.inverse()).is_identity()
            assert (a.inverse() * a).is_identity()

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            perm("(1 2)", 3) * perm("(1 2)", 4)
        with pytest.raises(DegreeMismatch):
            commutator(perm("(1 2)", 3), perm("(1 2)", 4))

    @given(same_degree_triples())
    def test_associativity(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)


class TestCommutator:
    def test_commutator_with_identity(self):
        a = perm("(1 2 3)", 4)
        assert commutator(a, Permutation.identity(4)).is_identity()
        assert commutator(a, a).is_identity()

    def test_commutator_of_transpositions(self):
        # four-factor oracle: a^-1 b^-1 a b multiplied out longhand
        a, b = perm("(1 2)", 3), perm("(1 3)", 3)
        longhand = a.inverse() * b.inverse() * a * b
        assert commutator(a, b) == longhand == perm("(1 3 2)", 3)

    @given(same_degree_pairs())
    def test_commutator_swap_is_inverse(self, pair):
        a, b = pair
        assert commutator(a, b).inverse() == commutator(b, a)

    @given(same_degree_pairs())
    def test_conjugation_identity(self, pair):
        # y^x = y * [y, x] pins the sign conventions together
        y, x = pair
        assert y.conjugate(x) == y * commutator(y, x)

    @given(same_degree_pairs())
    def test_conjugation_preserves_order(self, pair):
        a, b = pair
        assert a.conjugate(b).order() == a.order()


class TestOrder:
    def test_identity_order(self):
        assert Permutation.identity(5).order() == 1

    def test_lcm_of_cycle_lengths(self):
        assert perm("(1 2)(3 4 5)", 5).order() == 6

    @given(random_perms())
    def test_order_by_repeated_multiplication(self, a):
        # independent oracle: multiply until the identity reappears
        power = a
        m = 1
        while not power.is_identity():
            power = power * a
            m += 1
        assert a.order() == m
        for d in range(1, m):
            if m % d == 0 and d < m:
                assert not (a ** d).is_identity()

    @given(st.integers(1, MAX_DEGREE).flatmap(lambda n: st.permutations(range(n)).map(Permutation)))
    @example(Permutation(range(MAX_DEGREE)))
    @example(Permutation([(x + 1) % MAX_DEGREE for x in range(MAX_DEGREE)]))
    @example(Permutation([0]))
    def test_order_matches_lcm_of_cycle_lengths(self, a):
        # the former order(): the lcm over the 1-based cycle tuples, fixed points included
        assert a.order() == math.lcm(*(len(c) for c in a.cycles(with_fixed=True)))

    @given(random_perms())
    def test_power_consistency(self, a):
        m = a.order()
        assert (a ** m).is_identity()
        assert a ** -1 == a.inverse()


def oracle_cases():
    """(images of a, images of b, exponent) on 1..256 points; b is sometimes a or the identity."""
    return st.integers(1, MAX_DEGREE).flatmap(lambda n: st.tuples(
        st.permutations(range(n)),
        st.one_of(st.permutations(range(n)), st.just(None), st.just(list(range(n)))),
        st.integers(-300, 300)))


class TestTupleOracle:
    @given(oracle_cases())
    @example((list(range(MAX_DEGREE - 1, -1, -1)), list(range(1, MAX_DEGREE)) + [0], -257))
    @example(([0], None, -1))
    def test_matches_tuple_arithmetic(self, case):
        a_imgs, b_imgs, k = case
        if b_imgs is None:
            b_imgs = a_imgs
        a, b = Permutation(a_imgs), Permutation(b_imgs)
        ta, tb = TuplePermutation(a_imgs), TuplePermutation(b_imgs)
        pairs = [
            (a, ta), (b, tb), (a * b, ta * tb), (b * a, tb * ta),
            (a.inverse(), ta.inverse()), (a ** k, ta ** k), (b ** -k, tb ** -k),
            (a.conjugate(b), ta.conjugate(tb)), (commutator(a, b), tuple_commutator(ta, tb)),
            # an inverse as right operand multiplies by the table maketrans built
            (a * b.inverse() * b, ta * tb.inverse() * tb),
        ]
        for p, t in pairs:
            assert tuple(p.images) == t.images
            assert p.is_identity() == t.is_identity()
            assert p.order() == t.order()
            assert p.cycles() == t.cycles()
            assert p.cycles(with_fixed=True) == t.cycles(with_fixed=True)
        for (p, t), (q, u) in itertools.product(pairs, repeat=2):
            assert (p == q) == (t == u)
            assert (p < q) == (t < u)
            assert (p <= q) == (t <= u)
            if p == q:
                assert hash(p) == hash(q)


class TestRepresentation:
    def test_every_constructor_and_operation_stores_bytes(self):
        a, b = perm("(1 2 3)", 4), perm("(1 4)(2 3)", 4)
        built = [
            Permutation([1, 0, 2, 3]), Permutation.identity(4),
            Permutation.from_one_based([2, 1, 3, 4]), Permutation.from_cycles(4, [(1, 2, 3)]),
            Permutation.parse_cycles("(1 2)(3 4)", 4), Permutation.parse_cycles("()", 4),
            a * b, a.inverse(), a ** 0, a ** 2, a ** -2, a.conjugate(b), commutator(a, b),
        ]
        for p in built:
            assert type(p.images) is bytes, p
        assert Permutation.from_one_based([2, 1, 3, 4]) == perm("(1 2)", 4)


class TestDegreeLimit:
    def test_degree_256_works(self):
        n = MAX_DEGREE
        shift = Permutation([(i + 1) % n for i in range(n)])
        assert shift.degree == n
        assert shift.order() == n
        assert (shift ** n).is_identity() and not (shift ** (n - 1)).is_identity()
        assert shift.inverse() == shift ** -1 == Permutation.from_one_based([n] + list(range(1, n)))
        assert Permutation.parse_cycles(f"(1 {n})", n) * Permutation.identity(n) == \
            Permutation.from_cycles(n, [(n, 1)])

    @pytest.mark.parametrize("build", [
        lambda: Permutation(range(MAX_DEGREE + 1)),
        lambda: Permutation.identity(MAX_DEGREE + 1),
        lambda: Permutation.from_one_based(list(range(1, MAX_DEGREE + 2))),
        lambda: Permutation.from_cycles(MAX_DEGREE + 1, [(1, 2)]),
        lambda: Permutation.parse_cycles("(1 2)", MAX_DEGREE + 1),
    ])
    def test_degree_257_is_a_typed_error(self, build):
        with pytest.raises(InvalidPermutation, match="exceeds the limit of 256 points"):
            build()

    @pytest.mark.parametrize("images", [[0, 300], [0, -1], [0, 1.0], [1, 1]])
    def test_out_of_range_images_are_a_typed_error(self, images):
        with pytest.raises(InvalidPermutation, match="not a bijection"):
            Permutation(images)
