"""Acceptance criteria, one test per criterion.

Every assertion is an exact equality of rationals or integers (zero
tolerance).  Each test prints a single pass/fail line; run with -s to see
them on success.
"""

from fractions import Fraction
from math import factorial

from hurwitz.closedform import f0_series, g1_closed, g1_defn, mu0, mu1, psi_at_s, s_series
from hurwitz.cutjoin import evolve, extract_c
from hurwitz.oracle import count_transitive
from hurwitz.partitions import class_size, partitions_of
from hurwitz.series import PSeries, exp, fraction_view
from hurwitz.verify import (
    _tree_coeffs,
    check_u1,
    check_u2,
    check_u3,
    closed_form_series_checks,
    elem_sym_extraction,
    g1_pdiff_identity,
    g1_xdiff_identity,
    psi_pdiff_identity,
    residual_T,
    s_pdiff_identity,
    s_xdiff_identity,
)

from conftest import a_fraction

TR8 = 8
TR10 = 10


def _report(number, title, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {title}")
    assert ok, f"criterion {number} ({title}) failed"


def test_criterion_1_oracle_vs_genus1_formula():
    ok = True
    for n in range(1, 6):
        for alpha in partitions_of(n):
            lhs = Fraction(
                count_transitive(alpha, 1) * class_size(alpha), factorial(n)
            )
            if lhs != mu1(alpha):
                ok = False
    _report(1, "oracle equals genus-1 closed formula for n <= 5", ok)


def test_criterion_2_oracle_vs_genus0_formula():
    ok = True
    for n in range(1, 6):
        for alpha in partitions_of(n):
            lhs = Fraction(
                count_transitive(alpha, 0) * class_size(alpha), factorial(n)
            )
            if lhs != mu0(alpha):
                ok = False
    _report(2, "oracle equals genus-0 closed formula for n <= 5", ok)


def test_criterion_3_method_triangle():
    state = evolve(TR8, 1)
    ok = True
    for n in range(1, 9):
        for alpha in partitions_of(n):
            for g in (0, 1):
                closed = (mu0 if g == 0 else mu1)(alpha)
                cut = extract_c(state, alpha, g)
                if Fraction(cut * class_size(alpha), factorial(n)) != closed:
                    ok = False
                if n <= 5 and cut != count_transitive(alpha, g):
                    ok = False
    _report(3, "cut-and-join = closed formula (n <= 8) = oracle (n <= 5)", ok)


def test_criterion_4_proof_certificate():
    ok = residual_T(TR8).is_zero
    ok = ok and g1_closed(TR8) == g1_defn(TR8)
    ok = ok and check_u1().ok and check_u2().ok and check_u3().ok
    ok = ok and all(c.ok for c in closed_form_series_checks())
    _report(4, "PDE residual, series equality, and polynomial vanishing", ok)


def test_criterion_5_series_identities():
    ok = True

    # fixed point of the substitution equation vs multinomial expansion
    s = s_series(TR10)
    for n in range(1, 11):
        expected = {}
        for lam in partitions_of(n - 1):
            coeff = Fraction(1, n)
            for r, mr in lam.mults().items():
                coeff *= (n * a_fraction(r) / r) ** mr / factorial(mr)
            expected[(n, lam.pexp())] = coeff
        got = {mono: c for mono, c in fraction_view(s).items() if mono[0] == n}
        if got != expected:
            ok = False

    # tree-function coefficients, as verify expands w = x e^w
    w10 = PSeries.zero(TR10)
    for n, c in enumerate(_tree_coeffs(TR10)):
        w10 = w10 + PSeries.term(TR10, Fraction(*c), x=n)
    for n in range(1, 11):
        if w10.coeff(n, ()) != Fraction(n ** (n - 1), factorial(n)):
            ok = False

    # functional equation and derivative identities of the tree function
    w = PSeries.zero(TR8)
    for n, c in enumerate(_tree_coeffs(TR8)):
        w = w + PSeries.term(TR8, Fraction(*c), x=n)
    d1 = w.xdiff()
    d2 = d1.xdiff()
    d3 = d2.xdiff()
    one = PSeries.one(TR8)
    omw = one - w
    ok = ok and w == PSeries.x(TR8) * exp(w)
    ok = ok and d1 * omw == w
    ok = ok and d2 * omw * omw * omw == w
    ok = ok and d3 * omw * omw * omw * omw * omw == w + w * w * 2

    # substitution-series and genus-1 derivative identities at order 8
    ok = ok and s_xdiff_identity(TR8).ok
    ok = ok and s_pdiff_identity(TR8).ok
    ok = ok and psi_pdiff_identity(TR8).ok
    ok = ok and g1_xdiff_identity(TR8).ok
    ok = ok and g1_pdiff_identity(TR8).ok

    # the genus-0 series under the squared Euler operator
    ok = ok and f0_series(TR8).xdiff().xdiff() == psi_at_s(0, TR8)

    _report(5, "fixed-point, tree-function, and derivative identities", ok)


def test_criterion_6_elementary_symmetric_extraction():
    ok = elem_sym_extraction().ok
    _report(6, "coefficient-extraction identity for e_k, n <= 8", ok)


def test_criterion_7_genus1_integrality():
    ok = True
    for n in range(1, 13):
        for alpha in partitions_of(n):
            value = mu1(alpha) * factorial(n) / class_size(alpha)
            if value.denominator != 1 or value < 0:
                ok = False
    _report(7, "genus-1 counts are nonnegative integers for n <= 12", ok)
