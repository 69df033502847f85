"""Closed formulas, the substitution series, and the tree function."""

import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import hurwitz
from hurwitz import (
    IntegralityError,
    Partition,
    PSeries,
    c_value,
    class_size,
    count_naive,
    count_transitive,
    exp,
    f0_pdiff,
    f0_series,
    g1_closed,
    g1_defn,
    mu0,
    mu1,
    partitions_of,
    s_series,
)
from hurwitz import closedform, partitions
from hurwitz.closedform import FixedPointError, psi, psi_at_s, s_powers
from hurwitz.partitions import a_coeff
from hurwitz.series import fraction_view, powers, subst_x
from hurwitz.verify import _tree_coeffs

TR8 = 8
TR10 = 10


def tree_series(N):
    """The tree function w = x e^w from the coefficients verify expands it with."""
    w = PSeries.zero(N)
    for n, c in enumerate(_tree_coeffs(N)):
        w = w + PSeries.term(N, c, x=n)
    return w


class TestMu0:
    def test_examples(self):
        assert mu0(Partition((1,))) == 1
        assert mu0(Partition((3,))) == 1
        assert mu0(Partition((2, 1))) == 4

    def test_against_enumeration(self):
        for parts, g in (((1,), 0), ((3,), 0), ((2, 1), 0)):
            alpha = Partition(parts)
            c = count_naive(alpha, 0)
            assert mu0(alpha) == Fraction(class_size(alpha) * c, factorial(alpha.n))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mu0(Partition())


class TestMu1:
    def test_examples(self):
        assert mu1(Partition((1,))) == 0
        assert mu1(Partition((2,))) == Fraction(1, 2)
        assert mu1(Partition((3,))) == 9

    def test_against_oracle(self):
        for parts in ((2,), (3,), (2, 1), (1, 1, 1), (4,)):
            alpha = Partition(parts)
            c = count_transitive(alpha, 1)
            assert mu1(alpha) == Fraction(class_size(alpha) * c, factorial(alpha.n))

    def test_counts_are_integers(self):
        for n in range(1, 13):
            for alpha in partitions_of(n):
                value = mu1(alpha) * factorial(n) / class_size(alpha)
                assert value.denominator == 1 and value >= 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mu1(Partition())


class TestRecords:
    def test_c_value_genus_bound(self):
        with pytest.raises(ValueError):
            c_value(Partition((2,)), 2)

    def test_non_integral_count_raises(self, monkeypatch):
        monkeypatch.setattr(closedform, "MU", (lambda alpha: Fraction(1, 7), closedform.mu1))
        with pytest.raises(IntegralityError):
            c_value(Partition((3,)), 0)
        monkeypatch.setattr(closedform, "MU", (lambda alpha: Fraction(-1), closedform.mu1))
        with pytest.raises(IntegralityError):
            c_value(Partition((3,)), 0)

    def test_integrality_guard_survives_optimize_flag(self):
        # python -O strips assert statements; the guard must still fire
        code = (
            "from fractions import Fraction\n"
            "from hurwitz import IntegralityError, Partition, closedform\n"
            "closedform.MU = (lambda alpha: Fraction(1, 7), closedform.mu1)\n"
            "try:\n"
            "    closedform.c_value(Partition((3,)), 0)\n"
            "except IntegralityError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = str(Path(hurwitz.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


class TestG1Series:
    def test_defn_linear_term_vanishes(self):
        assert g1_defn(TR8).coeff(1, (1,)) == 0

    def test_defn_normalization_contract(self):
        # n!/|C_alpha| * (n+m)! * coefficient recovers c_1(alpha)
        g1 = g1_defn(TR8)
        for parts in ((2,), (3,), (2, 1)):
            alpha = Partition(parts)
            n, m = alpha.n, alpha.m
            coeff = g1.coeff(n, alpha.parts)
            got = coeff * factorial(n) * factorial(n + m) / class_size(alpha)
            assert got == count_transitive(alpha, 1)

    def test_closed_constant_term_vanishes(self):
        assert g1_closed(TR8).coeff(0, ()) == 0

    def test_closed_equals_defn(self):
        assert g1_closed(TR8) == g1_defn(TR8)

    def test_two_cycle_coefficient(self):
        assert g1_closed(TR8).coeff(2, (2,)) == g1_defn(TR8).coeff(2, (2,))


class TestGoldenSerialization:
    def test_g1_matches_frozen_json(self):
        import json
        from pathlib import Path

        tr = 4
        golden = json.loads(
            (Path(__file__).parent / "data" / "g1_n4.json").read_text()
        )
        # the records still carry the genus marker z, always 0 in G_1
        assert all(rec["z"] == 0 for rec in golden)
        got = [
            (x, [[i, e] for i, e in pexp], str(c))
            for (x, pexp), c in sorted(fraction_view(g1_defn(tr)).items())
        ]
        assert got == [(rec["x"], rec["p"], rec["c"]) for rec in golden]


class TestSubstitutionSeries:
    def test_leading_orders(self):
        s = s_series(TR8)
        assert s.coeff(1, ()) == 1
        assert s.coeff(2, (1,)) == 1
        assert s.coeff(3, (1, 1)) == Fraction(3, 2)
        assert s.coeff(3, (2,)) == 2

    def test_lagrange_inversion_oracle(self):
        # [x^n] s carries, on p_lambda with lambda of size n-1, the weight
        # (1/n) prod_r (n a_r / r)^{m_r} / m_r!  (multinomial expansion)
        s = s_series(TR10)
        for n in range(1, 11):
            expected = {}
            for lam in partitions_of(n - 1):
                coeff = Fraction(1, n)
                for r, mr in lam.mults().items():
                    coeff *= (n * a_coeff(r) / r) ** mr / factorial(mr)
                if coeff:
                    expected[(n, lam.pexp())] = coeff
            got = {
                mono: c for mono, c in fraction_view(s).items() if mono[0] == n
            }
            assert got == expected

    # the ids keep the N<N>K<N>G1 form these cases have been reported under
    @pytest.mark.parametrize("N", range(1, 11), ids=lambda n: f"N{n}K{n}G1")
    def test_lagrange_equals_iteration(self, N):
        # the inversion formula against N iterations of the defining equation,
        # each of which settles one more x-degree
        psi0, xs = psi(0, N), PSeries.x(N)
        iterated = PSeries.zero(N)
        for _ in range(N):
            iterated = xs * exp(subst_x(psi0, powers(iterated)))
        assert s_series(N) == iterated

    def test_perturbed_candidate_is_refused_and_not_cached(self, monkeypatch):
        # the power table is built from a candidate that is off at x^4, so
        # x exp(psi_0(s)) read through it no longer gives back its s
        nudge = PSeries.term(TR8, Fraction(1, 3), x=4, p=((1, 1), (2, 1)))
        monkeypatch.setattr(closedform, "powers", lambda s: powers(s + nudge))
        s_powers.cache_clear()
        with pytest.raises(FixedPointError):
            s_powers(TR8)
        assert s_powers.cache_info().currsize == 0

    def test_fixed_point_error_is_the_shared_type(self):
        # defined beside IntegralityError, so the CLI catches it unloaded
        assert closedform.FixedPointError is partitions.FixedPointError

    def test_euler_identity(self):
        # x ds/dx (1 - psi_1) = s
        s = s_series(TR8)
        one = PSeries.one(TR8)
        assert s.xdiff() * (one - psi_at_s(1, TR8)) == s

    def test_p_derivative_identity(self):
        # k ds/dp_k (1 - psi_1) = a_k s^(k+1)
        s = s_series(TR8)
        one = PSeries.one(TR8)
        omp = one - psi_at_s(1, TR8)
        pw = s_powers(TR8)
        for k in (1, 2, 3):
            assert s.pdiff(k) * omp * k == pw[k + 1] * a_coeff(k)


class TestF0:
    def test_pdiff_leading_term(self):
        d1 = f0_pdiff(1, TR8)
        assert d1.coeff(1, ()) == 1  # begins with s = x + ...

    def test_pdiff_matches_assembled_series(self):
        f0 = f0_series(TR8)
        for k in (1, 2, 3, 4):
            assert f0.pdiff(k) == f0_pdiff(k, TR8)

    def test_mixed_second_derivative_product_form(self):
        f0 = f0_series(TR8)
        for i, j in ((1, 1), (1, 2), (2, 3), (3, 1)):
            assert f0_pdiff(i, TR8).pdiff(j) == f0.pdiff(i).pdiff(j)

    def test_euler_square_is_psi0(self):
        assert f0_series(TR8).xdiff().xdiff() == psi_at_s(0, TR8)


class TestTreeFunction:
    def test_known_coefficients(self):
        w = tree_series(TR8)
        assert w.coeff(3, ()) == Fraction(3, 2)
        assert w.coeff(4, ()) == Fraction(8, 3)

    def test_coefficients_to_order_ten(self):
        w = tree_series(TR10)
        for n in range(1, 11):
            assert w.coeff(n, ()) == Fraction(n ** (n - 1), factorial(n))

    def test_functional_equation(self):
        w = tree_series(TR8)
        assert w == PSeries.x(TR8) * exp(w)

    def test_derivative_identities(self):
        w = tree_series(TR8)
        d1 = w.xdiff()
        d2 = d1.xdiff()
        d3 = d2.xdiff()
        omw = PSeries.one(TR8) - w
        assert d1 * omw == w
        assert d2 * omw * omw * omw == w
        assert d3 * omw * omw * omw * omw * omw == w + w * w * 2
