"""The cut-and-join evolution against the oracle and the closed formulas."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import pytest

from hurwitz import cutjoin, series
from hurwitz.closedform import c_value, mu0, mu1
from hurwitz.cutjoin import CutJoinState, evolve, extract_c
from hurwitz.oracle import count_transitive
from hurwitz.partitions import (
    IntegralityError,
    Partition,
    class_size,
    odd_prime,
    partitions_of,
    prime_code,
    prime_pairs,
)

from naive import count_naive


@pytest.fixture(scope="module")
def state5():
    return evolve(5, 1)


def genus(r, parts):
    return (r - sum(parts) - len(parts)) // 2 + 1


def code(parts):
    """The key of an order: prod q_k over the parts k."""
    return prime_code((k, 1) for k in parts)


def parts_of(key):
    """The parts of the partition with code ``key``, largest first."""
    return tuple(k for k, e in reversed(prime_pairs(key)) for _ in range(e))


def counts(state):
    """c_g(alpha) for every alpha with n <= N and g <= G, read by extract_c."""
    return {
        (alpha, g): extract_c(state, alpha, g)
        for n in range(1, state.N + 1)
        for alpha in partitions_of(n)
        for g in range(state.G + 1)
    }


class TestInitialCondition:
    def test_seed_is_x_p1(self):
        # N = 1, G = 0 needs no step: the one type (1) lives at r = 0
        state = evolve(1, 0)
        assert state.phi == ({code((1,)): 1},)
        assert type(state.phi[0][code((1,))]) is int

    def test_seed_matches_enumeration(self):
        # the unique length-0 factorization of the 1-cycle
        assert count_naive(Partition((1,)), 0) == 1
        seed = evolve(1, 0)
        assert extract_c(seed, Partition((1,)), 0) == 1


class TestBounds:
    def test_bad_bounds_rejected(self):
        for N, G in ((0, 1), (3, -1)):
            with pytest.raises(ValueError):
                evolve(N, G)

    @pytest.mark.parametrize("N, G", [(1, 0), (5, 1), (6, 2), (4, 3)])
    def test_step_count_reaches_every_type(self, N, G):
        # the largest r = n + m + 2g - 2 is (1^N) at genus G
        state = evolve(N, G)
        assert state.order == 2 * N + 2 * G - 2
        assert state.phi[-1] == {code((1,) * N): state.phi[-1][code((1,) * N)]}


class TestStep:
    def test_first_order(self, state5):
        # r = 1 holds exactly the 2-cycle at genus 0: L = 2! mu_0((2)) = 1
        assert state5.phi[1] == {code((2,)): 1}
        assert extract_c(state5, Partition((2,)), 0) == 1

    def test_genus_one_appears_at_r3(self, state5):
        assert all(genus(2, parts_of(key)) == 0 for key in state5.phi[2])
        assert any(genus(3, parts_of(key)) == 1 for key in state5.phi[3])
        assert extract_c(state5, Partition((2,)), 1) == count_naive(Partition((2,)), 1)

    def test_parity_and_size_constraints(self, state5):
        for r, phi in enumerate(state5.phi):
            for key, c in phi.items():
                parts = parts_of(key)
                n, m = sum(parts), len(parts)
                assert c and parts == tuple(sorted(parts, reverse=True)) and parts[-1] >= 1
                assert n <= state5.N and 0 <= genus(r, parts) <= state5.G
                assert (n + m - r) % 2 == 0
                assert n + m <= r + 2


class TestStoredCounts:
    def test_orders_hold_class_size_times_count(self):
        # each order stores L_r(alpha) = |C_alpha| c_g(alpha), an int, for
        # exactly the types with a nonzero count
        state = evolve(8, 2)
        want = {}
        for n in range(1, 9):
            for alpha in partitions_of(n):
                for g in range(3):
                    L = class_size(alpha) * count_transitive(alpha, g)
                    if L:
                        want[alpha.n + alpha.m + 2 * g - 2, prime_code(alpha.pexp())] = L
        stored = {(r, key): L for r, phi in enumerate(state.phi) for key, L in phi.items()}
        assert stored == want
        assert all(type(L) is int for L in stored.values())


# The two guards of the integer recurrence (an odd cross-join weight at
# r = 0, a negative count read by extract_c) and extract_c's refusal of a
# negative genus, whose r would index the orders from their end.
_GUARD_SCRIPT = """
from math import comb
from hurwitz import cutjoin
from hurwitz.partitions import IntegralityError, Partition, odd_prime
cutjoin.comb = lambda n, k: 1
try:
    cutjoin.evolve(2, 0)
except IntegralityError as exc:
    print(exc)
cutjoin.comb = comb
state = cutjoin.evolve(2, 0)
bad = cutjoin.CutJoinState(2, 0, (state.phi[0], {odd_prime(2): -1}))
try:
    cutjoin.extract_c(bad, Partition((2,)), 0)
except IntegralityError as exc:
    print(exc)
try:
    cutjoin.extract_c(cutjoin.evolve(3, 1), Partition((2,)), -1)
except ValueError as exc:
    print(exc)
"""


class TestIntegralityGuards:
    def test_odd_cross_join_weight_raises(self, monkeypatch):
        # the halved weight C(r, r/2) C(n_a + n_b, n_a) / 2 is checked, not assumed
        monkeypatch.setattr(cutjoin, "comb", lambda n, k: 1)
        evolve.cache_clear()
        with pytest.raises(IntegralityError, match="odd cross-join weight 1 at r=0"):
            evolve(3, 0)

    def test_guards_survive_dash_o(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        plain, optimized = (
            subprocess.run(
                [sys.executable, *flags, "-c", _GUARD_SCRIPT], capture_output=True, env=env
            )
            for flags in ((), ("-O",))
        )
        assert plain.returncode == 0
        assert plain.stdout.decode().splitlines() == [
            "odd cross-join weight 1 at r=0, sizes 1 and 1",
            "non-integral count for (2), g=0: -1/1",
            "genus must be nonnegative",
        ]
        assert (optimized.returncode, optimized.stdout) == (0, plain.stdout)


class TestExtract:
    def test_known_values(self, state5):
        assert extract_c(state5, Partition((1,)), 0) == 1
        assert extract_c(state5, Partition((3,)), 0) == 3
        assert extract_c(state5, Partition((2, 1)), 1) == count_transitive(
            Partition((2, 1)), 1
        )

    def test_non_integral_coefficient_raises(self, state5):
        alpha = Partition((2, 1))
        r, key = alpha.n + alpha.m - 2, prime_code(alpha.pexp())
        # |C_(2,1)| = 3: L + 1 is not divisible by it, and -3 is negative
        for bad in (state5.phi[r][key] + 1, -class_size(alpha)):
            phi = list(state5.phi)
            phi[r] = {**phi[r], key: bad}
            with pytest.raises(IntegralityError):
                extract_c(CutJoinState(5, 1, tuple(phi)), alpha, 0)
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

    def test_genus_slices_match_closed_formulas(self, state5):
        table = counts(state5)
        for (alpha, g), c in table.items():
            mu = Fraction(class_size(alpha) * c, factorial(alpha.n))
            assert mu == (mu0(alpha) if g == 0 else mu1(alpha))

    def test_larger_truncation_is_consistent(self):
        small = counts(evolve(4, 1))
        large = counts(evolve(6, 1))
        for key, value in small.items():
            assert large[key] == value

    def test_counts_are_nonnegative_integers(self, state5):
        for value in counts(state5).values():
            assert isinstance(value, int) and value >= 0

    @pytest.mark.slow
    def test_triangle_at_order_twelve(self):
        table = counts(evolve(12, 1))
        for (alpha, g), c in table.items():
            mu = Fraction(class_size(alpha) * c, factorial(alpha.n))
            assert mu == (mu0(alpha) if g == 0 else mu1(alpha)), (alpha, g)


class TestGenusTwo:
    def test_matches_oracle_through_n6(self):
        # evolve works out its own step count: every (alpha, g) with n <= 6
        # and g <= 2 is in the table, (1^6) at genus 2 (r = 14) included
        table = counts(evolve(6, 2))
        genus_zero = evolve(6, 0)
        want = {
            (alpha, g): count_transitive(alpha, g)
            for n in range(1, 7)
            for alpha in partitions_of(n)
            for g in range(3)
        }
        assert len(want) == 87
        assert table == want
        for (alpha, g), c in want.items():
            if g == 0:
                assert extract_c(genus_zero, alpha, 0) == c, alpha

    def test_matches_oracle_through_n9(self):
        table = counts(evolve(9, 2))
        keys = [(alpha, g) for n in range(1, 10) for alpha in partitions_of(n) for g in range(3)]
        assert len(keys) == len(table) == 288
        for alpha, g in keys:
            assert table[alpha, g] == count_transitive(alpha, g), (alpha, g)


# q_0 (unused), q_1 .. q_20: the prime list the key loops read, parts up to 20
Q = [1, *map(odd_prime, range(1, 21))]


def sort(parts):
    return tuple(sorted(parts, reverse=True))


def without(parts, *positions):
    return tuple(k for pos, k in enumerate(parts) if pos not in positions)


def single(parts):
    """The coded order {code: 1} of p_alpha and the shape table it reads."""
    return {code(parts): 1}, {code(parts): cutjoin._decode(code(parts))}


def cut_pass_derivatives(parts, r, L=1):
    """The derivative buckets that the cut pass over the order {code: L} of
    p_alpha, read as order r, returns at the least N that keeps them."""
    _, shapes = single(parts)
    return cutjoin._cut_and_handle_join({code(parts): L}, r, sum(parts) + 1, 0, Q, shapes, {})


def decoded(acc):
    """A coded order keyed by parts tuples, each key decoded by prime_pairs."""
    return {parts_of(key): c for key, c in acc.items()}


class TestPrimeCode:
    """Every order keys a partition by prod q_k over its parts k."""

    ALL = [alpha for n in range(1, 21) for alpha in partitions_of(n)]

    def test_one_prime_table(self):
        assert cutjoin.odd_prime is series.odd_prime is odd_prime
        assert cutjoin.prime_pairs is series.prime_pairs
        assert Q[1:9] == [3, 5, 7, 11, 13, 17, 19, 23]

    def test_decode_gives_the_shape(self):
        for parts in self.ALL:
            mults = tuple((k, parts.count(k)) for k in sorted(set(parts)))
            assert cutjoin._decode(code(parts)) == (sum(parts), len(parts), mults)

    def test_cut_and_handle_join_match_the_tuple_construction(self):
        # the PDE's cut and handle-join terms over ordered position pairs,
        # keyed by sorted tuples; its 1/2 is applied at the end
        for parts in self.ALL:
            want = {}
            for pos, k in enumerate(parts):
                for i in range(1, k):
                    key = sort(without(parts, pos) + (i, k - i))
                    want[key] = want.get(key, 0) + k
            for a, b in permutations(range(len(parts)), 2):
                key = sort(without(parts, a, b) + (parts[a] + parts[b],))
                want[key] = want.get(key, 0) + parts[a] * parts[b]
            assert all(c % 2 == 0 for c in want.values())
            got = {}
            # at r = 0 the genus (r - n - m)/2 + 1 is below G = 1, so every pair
            # joins; a term of size N is cut and joined but gets no bucket
            order, shapes = single(parts)
            assert cutjoin._cut_and_handle_join(order, 0, sum(parts), 1, Q, shapes, got) == {}
            assert decoded(got) == {key: c // 2 for key, c in want.items()}, parts

    def test_cut_pass_derivatives_match_the_tuple_construction(self):
        # k d/dp_k of L p_alpha, one term per position of a part k, keyed by
        # the (n, g) of p_alpha at genus 0 and genus 2
        for parts in self.ALL:
            n, m, L = sum(parts), len(parts), 7
            want = {}
            for pos, k in enumerate(parts):
                key = (k, code(without(parts, pos)))
                want[key] = want.get(key, 0) + k * L
            want = sorted((k, rest, c) for (k, rest), c in want.items())
            for g in (0, 2):
                got = cut_pass_derivatives(parts, n + m + 2 * g - 2, L)
                assert {key: sorted(entries) for key, entries in got.items()} == {
                    (n, g): want
                }, (parts, g)

    def test_cross_join_matches_the_tuple_construction(self):
        # r = 3, s = 1: the weight C(3, 1) C(n_a + n_b, n_a) is not halved
        small = [parts for parts in self.ALL if sum(parts) <= 8]
        for a in small:
            da = cut_pass_derivatives(a, 1)
            for b in small:
                db = cut_pass_derivatives(b, 2)
                weight = comb(3, 1) * comb(sum(a) + sum(b), sum(a))
                want = {}
                for pa in range(len(a)):
                    for pb in range(len(b)):
                        key = sort(without(a, pa) + without(b, pb) + (a[pa] + b[pb],))
                        want[key] = want.get(key, 0) + weight * a[pa] * b[pb]
                got = {}
                cutjoin._cross_join(da, db, 3, 1, 16, 99, Q, got)
                assert decoded(got) == want, (a, b)


def assert_agrees_with_closed_formulas(N):
    state = evolve(N, 1)
    for n in range(1, N + 1):
        for alpha in partitions_of(n):
            for g in (0, 1):
                assert extract_c(state, alpha, g) == c_value(alpha, g), (alpha, g)


class TestClosedFormAgreement:
    """Every type with n <= N and g <= 1, read by extract_c and by c_value."""

    def test_through_n18(self):
        assert_agrees_with_closed_formulas(18)

    @pytest.mark.slow
    def test_through_n22(self):
        assert_agrees_with_closed_formulas(22)
