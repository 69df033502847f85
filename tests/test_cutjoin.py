"""The cut-and-join evolution against the oracle and the closed formulas."""

from fractions import Fraction
from math import factorial

import pytest

from hurwitz import (
    CutJoinState,
    IntegralityError,
    Partition,
    Truncation,
    class_size,
    count_naive,
    count_transitive,
    evolve,
    extract_c,
    f0_series,
    g1_defn,
    mu0,
    mu1,
    partitions_of,
    run,
)
from hurwitz.closedform import psi_at_s
from hurwitz.cutjoin import genus_slice

TR5 = Truncation(N=5, K=5, G=1)


@pytest.fixture(scope="module")
def state5():
    return evolve(TR5)


def genus(r, parts):
    return (r - sum(parts) - len(parts)) // 2 + 1


class TestInitialCondition:
    def test_seed_is_x_p1(self):
        state = evolve(Truncation(N=5, K=5, G=1, R=0))
        assert state.phi == ({(1,): Fraction(1)},)

    def test_seed_matches_enumeration(self):
        # the unique length-0 factorization of the 1-cycle
        assert count_naive(Partition((1,)), 0) == 1
        seed = evolve(Truncation(N=5, K=5, G=1, R=0))
        assert extract_c(seed, Partition((1,)), 0) == 1


class TestStep:
    def test_first_order(self, state5):
        # r = 1 holds exactly the 2-cycle at genus 0
        assert state5.phi[1] == {(2,): Fraction(1, 2)}
        assert extract_c(state5, Partition((2,)), 0) == 1

    def test_genus_one_appears_at_r3(self, state5):
        assert all(genus(2, parts) == 0 for parts in state5.phi[2])
        assert any(genus(3, parts) == 1 for parts in state5.phi[3])
        assert extract_c(state5, Partition((2,)), 1) == count_naive(Partition((2,)), 1)

    def test_parity_and_size_constraints(self, state5):
        for r, phi in enumerate(state5.phi):
            for parts, c in phi.items():
                n, m = sum(parts), len(parts)
                assert c and parts == tuple(sorted(parts, reverse=True)) and parts[-1] >= 1
                assert n <= TR5.N and 0 <= genus(r, parts) <= TR5.G
                assert (n + m - r) % 2 == 0
                assert n + m <= r + 2


class TestExtract:
    def test_known_values(self, state5):
        assert extract_c(state5, Partition((1,)), 0) == 1
        assert extract_c(state5, Partition((3,)), 0) == 3
        assert extract_c(state5, Partition((2, 1)), 1) == count_transitive(
            Partition((2, 1)), 1
        )

    def test_non_integral_coefficient_raises(self, state5):
        alpha = Partition((2, 1))
        r = alpha.n + alpha.m - 2
        for bad in (state5.phi[r][alpha.parts] + Fraction(1, 3), Fraction(-1)):
            phi = list(state5.phi)
            phi[r] = {**phi[r], alpha.parts: bad}
            with pytest.raises(IntegralityError):
                extract_c(CutJoinState(TR5, tuple(phi)), alpha, 0)
        assert extract_c(state5, alpha, 0) == 8

    def test_out_of_range_queries(self, state5):
        with pytest.raises(ValueError):
            extract_c(state5, Partition((6,)), 0)
        with pytest.raises(ValueError):
            extract_c(state5, Partition((2,)), 2)


class TestRunTable:
    def test_matches_oracle_through_n5(self, state5):
        for n in range(1, 6):
            for alpha in partitions_of(n):
                for g in (0, 1):
                    assert extract_c(state5, alpha, g) == count_transitive(alpha, g)

    def test_genus_slices_match_closed_formulas(self):
        table = run(TR5)
        for (alpha, g), c in table.items():
            mu = Fraction(class_size(alpha) * c, factorial(alpha.n))
            assert mu == (mu0(alpha) if g == 0 else mu1(alpha))

    def test_larger_truncation_is_consistent(self):
        small = run(Truncation(N=4, K=4, G=1))
        large = run(Truncation(N=6, K=6, G=1))
        for key, value in small.items():
            assert large[key] == value

    def test_counts_are_nonnegative_integers(self):
        for value in run(TR5).values():
            assert isinstance(value, int) and value >= 0

    @pytest.mark.slow
    def test_triangle_at_order_twelve(self):
        table = run(Truncation(N=12, K=12, G=1))
        for (alpha, g), c in table.items():
            mu = Fraction(class_size(alpha) * c, factorial(alpha.n))
            assert mu == (mu0(alpha) if g == 0 else mu1(alpha)), (alpha, g)


class TestGenusTwo:
    def test_matches_oracle_through_n6(self):
        state = evolve(Truncation(N=6, K=6, G=2, R=16))
        genus_zero = evolve(Truncation(N=6, K=6, G=0, R=16))
        checked = 0
        for n in range(1, 7):
            for alpha in partitions_of(n):
                for g in range(3):
                    want = count_transitive(alpha, g)
                    assert extract_c(state, alpha, g) == want, (alpha, g)
                    if g == 0:
                        assert extract_c(genus_zero, alpha, 0) == want, alpha
                    checked += 1
        assert checked == 87


class TestGenusSlices:
    def test_genus_zero_slice_equals_assembled_series(self, state5):
        assert genus_slice(state5, 0) == f0_series(TR5)

    def test_genus_one_slice_equals_assembled_series(self, state5):
        assert genus_slice(state5, 1) == g1_defn(TR5)

    def test_euler_square_of_f0_is_psi0(self, state5):
        f0 = genus_slice(state5, 0)
        assert f0.xdiff().xdiff() == psi_at_s(0, TR5)
