"""Partition enumeration, class sizes, symmetric functions, psi weights,
the factorization length r and the integrality check shared by every
engine, and the odd-prime code."""

from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest

from hurwitz.closedform import c_value, psi
from hurwitz.cutjoin import evolve, extract_c
from hurwitz.oracle import count_transitive
from hurwitz.partitions import (
    IntegralityError,
    Partition,
    a_weight,
    class_size,
    elem_sym,
    exact_quotient,
    factorization_length,
    odd_prime,
    partitions_of,
    prime_code,
    prime_pairs,
    theta,
)


def partition_count(n):
    """Independent partition-function values by the Euler DP."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    # a part is an int as given: 2.9 is no 2, and "3" and True are no parts
    @pytest.mark.parametrize(
        "parts",
        [[2.9, 1], [2.0], ["3"], [True], [3, True]],
        ids=["float", "whole-float", "str", "bool", "bool-after-int"],
    )
    def test_non_int_part_refused(self, parts):
        with pytest.raises(TypeError, match=r"^parts must be int, not "):
            Partition(parts)

    def test_empty_partition(self):
        empty = Partition()
        assert empty.n == 0 and empty.m == 0
        assert str(empty) == "()"
        assert theta(empty) == 1
        assert class_size(empty) == 1

    def test_views(self):
        a = Partition((3, 2, 2))
        assert a.n == 7 and a.m == 3
        assert a.mults() == {3: 1, 2: 2}
        assert a.pexp() == ((2, 2), (3, 1))
        assert str(a) == "(3,2,2)"
        assert list(a) == [3, 2, 2]

    def test_is_its_tuple(self):
        a = Partition((3, 2, 2))
        assert isinstance(a, tuple)
        assert a == (3, 2, 2) and hash(a) == hash((3, 2, 2))
        assert {(3, 2, 2): "c"}[a] == "c"
        assert type(a[1:]) is tuple and a[1:] == (2, 2)
        assert repr(a) == "Partition(3, 2, 2)" and repr(Partition((4,))) == "Partition(4,)"
        assert str(a) == "(3,2,2)" and str(Partition((4,))) == "(4)"
        with pytest.raises(ValueError, match=r"^parts must be weakly decreasing, got \(1, 2\)$"):
            Partition([1, 2])
        with pytest.raises(ValueError, match=r"^parts must be positive, got 0$"):
            Partition((2, 0))


class TestFactorizationLength:
    def test_length(self):
        assert factorization_length(Partition((2, 1)), 0) == 3
        assert factorization_length(Partition((2,)), 1) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha must be a partition of n >= 1"):
            factorization_length(Partition(), 0)
        with pytest.raises(ValueError, match="genus must be nonnegative"):
            factorization_length(Partition((2,)), -1)

    @pytest.mark.parametrize(
        "count",
        [count_transitive, lambda alpha, g: extract_c(evolve(3, 1), alpha, g), c_value],
        ids=["oracle", "cutjoin", "closed"],
    )
    def test_every_engine_refuses_alike(self, count):
        with pytest.raises(ValueError, match="alpha must be a partition of n >= 1"):
            count(Partition(), 0)
        with pytest.raises(ValueError, match="genus must be nonnegative"):
            count(Partition((2,)), -1)


class TestExactQuotient:
    def test_exact_remainder_and_negative(self):
        assert exact_quotient(42, 6, "count") == 7
        assert exact_quotient(0, 5, "count") == 0
        with pytest.raises(IntegralityError, match="^count for x: 43/6$"):
            exact_quotient(43, 6, "count for x")
        with pytest.raises(IntegralityError, match="^count for x: -42/6$"):
            exact_quotient(-42, 6, "count for x")


class TestEnumeration:
    def test_zero(self):
        assert partitions_of(0) == (Partition(),)

    def test_small_counts(self):
        assert len(partitions_of(4)) == 5
        assert len(partitions_of(8)) == 22

    def test_counts_match_partition_function(self):
        for n in range(10):
            assert len(partitions_of(n)) == partition_count(n)

    def test_reverse_lex_order(self):
        got = list(partitions_of(4))
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_no_duplicates(self):
        for n in range(9):
            ps = partitions_of(n)
            assert len(set(ps)) == len(ps)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partitions_of(-1)


class TestClassData:
    def test_theta_examples(self):
        assert theta(Partition((2, 1))) == 2
        assert theta(Partition((1, 1, 1))) == 6

    def test_class_size_examples(self):
        assert class_size(Partition((1, 1, 1, 1))) == 1
        assert class_size(Partition((2, 1))) == 3
        assert class_size(Partition((3,))) == 2

    def test_class_sizes_sum_to_group_order(self):
        for n in range(1, 10):
            assert sum(class_size(a) for a in partitions_of(n)) == factorial(n)

    def test_theta_times_class_size(self):
        for n in range(1, 10):
            for a in partitions_of(n):
                assert theta(a) * class_size(a) == factorial(n)


class TestElemSym:
    def test_e0(self):
        assert elem_sym(Partition((5, 2)))[0] == 1
        assert elem_sym(Partition()) == (1,)

    def test_examples(self):
        assert elem_sym(Partition((2, 1, 1))) == (1, 4, 5, 2)
        assert elem_sym(Partition((3, 2)))[1] == 5

    def test_e1_is_n(self):
        for n in range(1, 9):
            for a in partitions_of(n):
                assert elem_sym(a)[1] == n

    def test_beyond_length_is_zero(self):
        # e_k = 0 for k > m, so the tuple stops at e_m
        assert elem_sym(Partition((2, 1))) == (1, 3, 2)

    def test_generating_product(self):
        # sum_k e_k t^k = prod_j (1 + part_j t), checked coefficientwise
        for n in range(9):
            for lam in partitions_of(n):
                poly = [1]
                for part in lam:
                    nxt = [0] * (len(poly) + 1)
                    for i, c in enumerate(poly):
                        nxt[i] += c
                        nxt[i + 1] += c * part
                    poly = nxt
                assert elem_sym(lam) == tuple(poly)

    def test_sums_over_combinations(self):
        for n in range(11):
            for lam in partitions_of(n):
                want = tuple(sum(map(prod, combinations(lam, k))) for k in range(lam.m + 1))
                assert elem_sym(lam) == want, lam


class TestPrimeCode:
    """prime_code maps (k, e) pairs to prod q_k^e; prime_pairs reads them back."""

    BY_SIZE = {n: partitions_of(n) for n in range(1, 21)}
    ALL = [alpha for size in BY_SIZE.values() for alpha in size]

    def test_codes_are_distinct_and_decode_back(self):
        codes = {prime_code(alpha.pexp()): alpha for alpha in self.ALL}
        assert len(codes) == len(self.ALL) == 2713
        for c, alpha in codes.items():
            assert prime_pairs(c) == alpha.pexp()
        # p_40 needs the table grown far past every part above
        assert odd_prime(1) == 3 and odd_prime(40) == 179
        assert prime_code(((7, 1), (40, 3))) == 19 * 179**3
        assert prime_pairs(19 * 179**3) == ((7, 1), (40, 3))

    def test_code_of_a_union_is_the_product(self):
        for a in self.ALL:
            for nb in range(1, 21 - a.n):
                for b in self.BY_SIZE[nb]:
                    union = Partition(sorted(a + b, reverse=True))
                    assert prime_code(union.pexp()) == prime_code(a.pexp()) * prime_code(b.pexp())

    def test_refusals(self):
        # once the table is grown, q_0 and q_-1 would read its last entries
        assert odd_prime(6) == 17
        for k in (0, -1):
            with pytest.raises(ValueError, match="odd-prime index"):
                odd_prime(k)
            with pytest.raises(ValueError, match="odd-prime index"):
                prime_code([(2, 1), (k, 1)])
        with pytest.raises(ValueError, match="negative exponent"):
            prime_code([(2, -1)])
        for c in (0, -3, 2, 6):
            with pytest.raises(ValueError, match="not a positive odd code"):
                prime_pairs(c)
        assert prime_code([]) == 1 and prime_pairs(1) == ()


class TestAWeight:
    def test_values(self):
        assert a_weight(1) == (1, 1)
        assert a_weight(2) == (4, 1)
        assert a_weight(3) == (27, 2)
        assert Fraction(*a_weight(4)) == Fraction(256, 6)

    def test_below_one_rejected(self):
        with pytest.raises(ValueError, match="r must be at least 1"):
            a_weight(0)
        for j in (-3, 0, 2):
            with pytest.raises(ValueError, match="r must be at least 1"):
                a_weight(0, j)

    def test_weight_pairs_are_the_powers_of_r_times_a_r(self):
        # r^j a_r for every j, the power of r in the denominator once r + j < 0
        for r in range(1, 11):
            a_r = Fraction(r**r, factorial(r - 1))
            assert Fraction(*a_weight(r)) == a_r
            for j in range(-14, 4):
                num, den = a_weight(r, j)
                assert type(num) is int and type(den) is int and den > 0
                assert Fraction(num, den) == Fraction(r) ** j * a_r, (r, j)
        assert a_weight(3, -5) == (1, 9 * 2)
        assert a_weight(2, -2) == (1, 1)


class TestPsi:
    def test_weights(self):
        t = 4
        assert psi(1, t).coeff(1, (1,)) == 1
        assert psi(0, t).coeff(2, (2,)) == 2
        assert psi(2, t).coeff(3, (3,)) == Fraction(81, 2)

    def test_negative_index(self):
        t = 4
        # r^(i-1) a_r at i = -1 is a_r / r^2 = r^(r-2)/(r-1)!
        assert psi(-1, t).coeff(3, (3,)) == Fraction(3, 2)

    def test_term_count(self):
        t = 6
        assert len(psi(1, t).terms) == 6
