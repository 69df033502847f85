"""Factorization counting: enumeration vs the character formula vs S_3's table."""

import os
import subprocess
import sys
from fractions import Fraction
from functools import cache
from math import comb, factorial
from pathlib import Path

import pytest

import hurwitz
from hurwitz import cutjoin
from hurwitz.closedform import c_value, mu0
from hurwitz.oracle import (
    ORACLE_MAX_N,
    _characters,
    _content,
    _identity_column,
    _transitive_count,
    _walks_type,
    count_transitive,
)
from hurwitz.partitions import (
    Partition,
    SizeLimitExceeded,
    class_size,
    factorization_length,
    partitions_of,
    theta,
)

from naive import count_naive


def hook_length_dim(lam: tuple[int, ...]) -> int:
    """dim(lambda) = n! / prod of the hook lengths: the reference for the
    dimensions in _identity_column."""
    conj = [sum(1 for a in lam if a > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, a in enumerate(lam):
        for j in range(a):
            hooks *= a - j + conj[j] - i - 1
    return factorial(sum(lam)) // hooks


@cache
def subset_sieve(tp: tuple[int, ...], r: int) -> int:
    """The transitivity sieve over all 2^(m-1) subsets of the cycles after
    the first, every r1 from 0 to r: the reference for _transitive_count."""
    total = _walks_type(tp, r)
    first, rest = tp[0], tp[1:]
    k = len(rest)
    for bits in range(2**k - 1):  # proper subsets of the remaining cycles
        block = (first, *(rest[i] for i in range(k) if bits >> i & 1))
        comp = tuple(rest[i] for i in range(k) if not bits >> i & 1)
        for r1 in range(r + 1):
            w_out = _walks_type(comp, r - r1)
            if w_out:
                total -= comb(r, r1) * subset_sieve(block, r1) * w_out
    return total


def beta_set(lam: tuple[int, ...], n: int) -> int:
    """The n-bead beta-set of lambda: bits at lambda_i + n - i, i = 1..n."""
    padded = lam + (0,) * (n - len(lam))
    return sum(1 << (a + n - 1 - i) for i, a in enumerate(padded))


# Character table of S_3: rows (trivial, sign, standard) on the classes
# (1,1,1), (2,1), (3); used as an independent oracle for walk counts.
S3_CHARS = [
    (1, 1, 1),
    (1, -1, 1),
    (2, 0, -1),
]
S3_CLASS_OF = {Partition((1, 1, 1)): 0, Partition((2, 1)): 1, Partition((3,)): 2}


def s3_walks_by_characters(alpha: Partition, r: int) -> int:
    """Ordered products of r transpositions equal to a fixed element of
    class alpha, via the class-algebra formula
    |C_t|^r / |G| * sum_chi chi(t)^r chi(pi^{-1}) / chi(1)^(r-1)."""
    col = S3_CLASS_OF[alpha]
    total = Fraction(0)
    for chi in S3_CHARS:
        total += Fraction(chi[1] ** r * chi[col], chi[0] ** (r - 1))
    value = Fraction(3**r, 6) * total
    assert value.denominator == 1
    return int(value)


class TestCountNaive:
    def test_trivial_target(self):
        assert count_naive(Partition((1,)), 0) == 1

    def test_two_cycle_genus_one(self):
        assert count_naive(Partition((2,)), 1) == 1

    def test_three_cycle_genus_zero(self):
        assert count_naive(Partition((3,)), 0) == 3

    def test_budget_refusal(self):
        with pytest.raises(SizeLimitExceeded):
            count_naive(Partition((6,)), 0)  # n beyond budget
        with pytest.raises(SizeLimitExceeded):
            count_naive(Partition((1, 1, 1, 1, 1)), 2)  # r = 12 beyond budget
        with pytest.raises(SizeLimitExceeded):
            count_naive(Partition((2, 1, 1, 1)), 1)  # r = 9 beyond budget


class TestCountWalks:
    """W(alpha, r), all (not necessarily transitive) length-r factorizations,
    as the sieve reads it: ``_walks_type(alpha, r)``."""

    def test_identity_in_s2(self):
        assert _walks_type((1, 1), 2) == 1

    def test_parity_obstruction(self):
        assert _walks_type((2,), 2) == 0

    def test_character_oracle_s3(self):
        for alpha in (Partition((3,)), Partition((2, 1)), Partition((1, 1, 1))):
            n_minus_m = 3 - alpha.m
            for r in range(1, 7):
                want = s3_walks_by_characters(alpha, r)
                if (r - n_minus_m) % 2:
                    want = 0  # the character sum also vanishes; be explicit
                assert _walks_type(alpha, r) == want

    def test_class_sums_count_every_sequence(self):
        # each of the C(n, 2)^r transposition sequences multiplies to exactly
        # one permutation, and the count is constant on each class
        for n in range(1, 10):
            for r in range(2 * n + 1):
                total = sum(
                    class_size(alpha) * _walks_type(alpha, r) for alpha in partitions_of(n)
                )
                assert total == comb(n, 2) ** r, (n, r)

    def test_parity_zeros(self):
        # a product of r transpositions has sign (-1)^r, a type-alpha
        # permutation (-1)^(n - m)
        for n in range(1, 10):
            for alpha in partitions_of(n):
                for r in range(n - alpha.m + 1, 2 * n + 1, 2):
                    assert _walks_type(alpha, r) == 0, (alpha, r)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_non_integral_character_sum_raises(self, flags):
        # raising the trivial character by one, its dimension included,
        # turns its term 1 * 1 * 3^3 at (2,1) into 2 * 2 * 3^3: the sum grows
        # by 81, not a multiple of 3! = 6; python -O must not strip the guard
        code = (
            "from hurwitz import oracle\n"
            "from hurwitz.partitions import IntegralityError\n"
            "real = oracle._characters\n"
            "def perturbed(tp):\n"
            "    n = sum(tp)\n"
            "    chars = dict(real(tp))\n"
            "    chars[1 << (2 * n - 1) | ((1 << (n - 1)) - 1)] += 1\n"
            "    return chars\n"
            "oracle._characters = perturbed\n"
            "try:\n"
            "    oracle._walks_type((2, 1), 3)\n"
            "except IntegralityError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = str(Path(hurwitz.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        assert subprocess.run([sys.executable, *flags, "-c", code], env=env).returncode == 0


class TestCountTransitive:
    def test_identity_class_genus_one(self):
        assert count_transitive(Partition((1, 1)), 1) == 1

    def test_transposition_fixed_point(self):
        assert count_transitive(Partition((2, 1)), 0) == 8

    def test_full_cycle_equals_walks(self):
        # a full cycle is itself transitive, so the sieve removes nothing
        for n in range(2, 6):
            alpha = Partition((n,))
            for g in (0, 1, 2):
                r = n + 1 + 2 * (g - 1)
                assert count_transitive(alpha, g) == _walks_type(alpha, r)

    def test_matches_naive_enumeration(self):
        for n in range(1, 5):
            for alpha in partitions_of(n):
                for g in (0, 1):
                    assert count_transitive(alpha, g) == count_naive(alpha, g)

    def test_genus_zero_matches_closed_formula(self):
        for n in range(1, 6):
            for alpha in partitions_of(n):
                c = count_transitive(alpha, 0)
                assert Fraction(class_size(alpha) * c, factorial(n)) == mu0(alpha)

    def test_six_cycle_spot_check(self):
        alpha = Partition((6,))
        assert count_transitive(alpha, 0) == c_value(alpha, 0)

    def test_minimal_factorizations_count_labeled_trees(self):
        # an n-cycle splits into n-1 transpositions transitively in n^(n-2)
        # ways, in bijection with labeled trees on n vertices
        for n in range(2, 9):
            assert c_value(Partition((n,)), 0) == n ** (n - 2)
        for n in range(2, 6):
            assert count_naive(Partition((n,)), 0) == n ** (n - 2)

    def test_size_refusal(self):
        with pytest.raises(SizeLimitExceeded, match="ORACLE_MAX_N"):
            count_transitive(Partition((ORACLE_MAX_N + 1,)), 0)

    def test_size_refusal_is_the_shared_type(self):
        # defined beside IntegralityError; the oracle's name still imports
        from hurwitz import oracle, partitions

        assert oracle.SizeLimitExceeded is partitions.SizeLimitExceeded is SizeLimitExceeded


class TestSieve:
    def test_multiset_sieve_equals_the_subset_sieve(self):
        for n in range(1, 11):
            for alpha in partitions_of(n):
                for g in range(4):
                    r = factorization_length(alpha, g)
                    assert _transitive_count(alpha, r) == subset_sieve(alpha, r), (
                        alpha, g
                    )

    def test_the_skipped_terms_vanish(self):
        # the multiset sieve runs r1 only where neither factor is zero: no
        # factorization is shorter than the Cayley distance n - m, and no
        # transitive one is shorter than genus 0 allows, n + m - 2
        for n in range(1, 9):
            for alpha in partitions_of(n):
                for r in range(n - alpha.m):
                    assert _walks_type(alpha, r) == 0, (alpha, r)
                for r in range(n + alpha.m - 2):
                    assert subset_sieve(alpha, r) == 0, (alpha, r)

    @pytest.mark.parametrize(
        "n_max", [12, pytest.param(ORACLE_MAX_N, marks=pytest.mark.slow)], ids=["n12", "budget"]
    )
    def test_oracle_equals_cut_and_join(self, n_max):
        genus_max = 3
        state = cutjoin.evolve(n_max, genus_max)
        for n in range(1, n_max + 1):
            for alpha in partitions_of(n):
                for g in range(genus_max + 1):
                    assert count_transitive(alpha, g) == cutjoin.extract_c(state, alpha, g), (
                        alpha, g
                    )


class TestCharacters:
    def test_column_orthogonality(self):
        # sum_lambda chi^lambda(alpha)^2 is the centralizer order theta(alpha)
        for n in range(1, 10):
            for alpha in partitions_of(n):
                chars = _characters(alpha)
                assert sum(chi * chi for chi in chars.values()) == theta(alpha), alpha

    def test_identity_column_is_the_hook_length_dimension(self):
        for n in range(1, 10):
            want = {beta_set(lam, n): hook_length_dim(lam) for lam in partitions_of(n)}
            assert {beads: dim for beads, (dim, _) in _identity_column(n).items()} == want, n

    def test_content_from_beads_is_the_cell_sum(self):
        for n in range(1, ORACLE_MAX_N + 1):
            column = _identity_column(n)
            for lam in partitions_of(n):
                cells = sum(j - i for i, a in enumerate(lam) for j in range(a))
                beads = beta_set(lam, n)
                assert _content(beads, n) == column[beads][1] == cells, lam
