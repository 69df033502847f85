"""The truncated series ring: exactness, ring axioms, analytic inverses."""

import operator
from decimal import Decimal
from fractions import Fraction
from functools import reduce

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hurwitz import (
    PSeries,
    TruncationMismatch,
    exp,
    log1,
    subst_x,
)
from hurwitz.series import _decode, _encode, fraction_view, monomial_str, powers

from conftest import TR6, TR8, fraction_sum, fractions_st, is_canonical, pexp_st, series_st

# few monomials, so random products often overflow the truncation
TR_SMALL = 2


def cancelling_pair_st(N):
    """(a + b, a - b): the cross terms a*b of their product cancel in pairs."""
    return st.tuples(series_st(N, 4), series_st(N, 4)).map(
        lambda ab: (ab[0] + ab[1], ab[0] - ab[1])
    )


def xp1(N):
    return PSeries.term(N, 1, x=1, p=((1, 1),))


def merged(p1, p2):
    pexp = dict(p1)
    for i, e in p2:
        pexp[i] = pexp.get(i, 0) + e
    return tuple(sorted(pexp.items()))


def fraction_loop_product(f, g):
    """The product by a termwise Fraction double loop, zero sums dropped."""
    N = f.N
    out = {}
    for (x1, p1), c1 in fraction_view(f).items():
        for (x2, p2), c2 in fraction_view(g).items():
            if x1 + x2 > N:
                continue
            key = (x1 + x2, merged(p1, p2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {key: c for key, c in out.items() if c}


class TestTruncation:
    def test_bad_bounds_rejected(self):
        for make in (PSeries, PSeries.zero, PSeries.one, PSeries.x):
            with pytest.raises(ValueError):
                make(0)

    def test_only_the_x_degree_is_cut(self):
        # p-indices have no bound: p_9 survives at N = 2, x^3 does not
        f = PSeries(TR_SMALL, {(1, ((9, 1),)): 1, (3, ()): 1})
        assert f == PSeries.term(TR_SMALL, 1, x=1, p=((9, 1),))
        assert f.pdiff(9) == PSeries.x(TR_SMALL)
        assert f.coeff(1, (9,)) == 1


class TestFromParts:
    def test_x_degree_is_the_size(self):
        f = PSeries.from_parts(TR8, {(3, 1): Fraction(1, 2), (1,): 2})
        assert f == PSeries.term(TR8, Fraction(1, 2), x=4, p=((1, 1), (3, 1))) + (
            PSeries.term(TR8, 2, x=1, p=((1, 1),))
        )
        assert f.coeff(4, (1, 3)) == Fraction(1, 2)

    def test_keys_naming_one_partition_add_up(self):
        f = PSeries.from_parts(TR8, {(2, 1): 1, (1, 2): 2, (2, 2): 3, (4,): 0})
        assert f == PSeries.from_parts(TR8, {(2, 1): 3, (2, 2): 3})

    def test_sizes_above_n_dropped(self):
        assert PSeries.from_parts(TR_SMALL, {(2, 1): 1}).is_zero

    def test_non_positive_parts_rejected(self):
        with pytest.raises(ValueError):
            PSeries.from_parts(TR8, {(2, 0): 1})
        with pytest.raises(ValueError):
            PSeries.one(TR8).coeff(0, (0,))


class TestRingOps:
    def test_monomial_product(self):
        f = xp1(TR8)
        assert f * f == PSeries.term(TR8, 1, x=2, p=((1, 2),))

    def test_zero_annihilates(self):
        f = xp1(TR8) + PSeries.one(TR8)
        assert (f * PSeries.zero(TR8)).is_zero

    def test_truncation_drops_top_degree(self):
        one, x = PSeries.one(1), PSeries.x(1)
        assert (one + x) * (one - x) == one

    def test_mixed_truncations_rejected(self):
        with pytest.raises(TruncationMismatch):
            PSeries.one(TR8) + PSeries.one(TR6)
        with pytest.raises(TruncationMismatch):
            PSeries.one(TR8) * PSeries.one(TR6)
        with pytest.raises(TruncationMismatch):
            PSeries.one(TR8) == PSeries.one(TR6)

    def test_scalar_multiplication(self):
        f = xp1(TR8)
        assert 3 * f == f + f + f
        assert (f * Fraction(1, 2)) + (f * Fraction(1, 2)) == f

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            PSeries.term(TR8, 0.5, x=1)

    @given(series_st(TR6), series_st(TR6), series_st(TR6))
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @given(series_st(TR6))
    @settings(max_examples=25, deadline=None)
    def test_additive_inverse(self, f):
        assert (f - f).is_zero
        assert f + (-f) == PSeries.zero(TR6)


class TestIntegerKernel:
    @given(
        st.one_of(
            cancelling_pair_st(TR_SMALL),
            cancelling_pair_st(TR6),
            st.tuples(series_st(TR_SMALL, max_terms=8), series_st(TR_SMALL, max_terms=8)),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_product_equals_fraction_loop(self, pair):
        f, g = pair
        got = f * g
        assert fraction_view(got) == fraction_loop_product(f, g)
        assert is_canonical(got)

    def test_cancelling_and_overflowing_terms_are_not_stored(self):
        t = 3
        f = PSeries(t, {(0, ()): Fraction(1, 2), (1, ((1, 1),)): Fraction(2, 3)})
        g = PSeries(t, {(0, ()): Fraction(4, 3), (1, ((1, 1),)): Fraction(-16, 9)})
        # y = x p1; the y coefficients cancel: (1/2)(-16/9) + (2/3)(4/3) = 0
        prod = f * g
        assert fraction_view(prod) == {(0, ()): Fraction(2, 3), (2, ((1, 2),)): Fraction(-32, 27)}
        assert (PSeries.x(t, 2) * PSeries.x(t, 2)).terms == {}

    @given(series_st(TR_SMALL, max_terms=8), series_st(TR_SMALL, max_terms=8))
    @settings(max_examples=40, deadline=None)
    def test_sums_store_no_zero(self, f, g):
        for res in (f + g, f - g, (f + g) - g, -f, f * Fraction(-3, 2)):
            assert is_canonical(res)
        assert fraction_view((f + g) - g) == fraction_view(f)

    def test_shift_still_truncates(self):
        assert PSeries.x(TR6).shift(x=TR6).is_zero


class TestCanonicalForm:
    """Every operation stores its result canonically, with the coefficients
    a termwise Fraction computation on the coefficient views gives."""

    @given(
        series_st(TR_SMALL, max_terms=8),
        series_st(TR_SMALL, max_terms=8),
        st.one_of(st.integers(-3, 3), fractions_st()),
        st.integers(0, 2),
        pexp_st(3),
        st.integers(1, 3),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_operation(self, f, g, c, x, p, k, strip):
        F, G = fraction_view(f), fraction_view(g)

        def nonzero(pairs):
            return {m: v for m, v in pairs if v}

        def summed(sign):
            return nonzero((m, F.get(m, 0) + sign * G.get(m, 0)) for m in F.keys() | G.keys())

        def pdiff_term(pexp):
            exps = dict(pexp)
            exps[k] -= 1
            return tuple((i, e) for i, e in sorted(exps.items()) if e)

        cases = [
            (f + g, summed(1)),
            (f - g, summed(-1)),
            (-f, {m: -v for m, v in F.items()}),
            (f * c, nonzero((m, v * c) for m, v in F.items())),
            (f * g, fraction_loop_product(f, g)),
            (
                f.shift(c, x=x, p=p),
                nonzero(
                    ((xd + x, merged(pexp, p)), v * c)
                    for (xd, pexp), v in F.items()
                    if xd + x <= TR_SMALL
                ),
            ),
            (
                f.pdiff(k),
                {
                    (xd, pdiff_term(pexp)): v * dict(pexp)[k]
                    for (xd, pexp), v in F.items()
                    if k in dict(pexp)
                },
            ),
            (f.xdiff(), nonzero((m, v * m[0]) for m, v in F.items())),
        ]
        parts = f.x_parts(strip)
        assert sorted(parts) == sorted({xd for xd, _ in F})
        for d, part in parts.items():
            want = {(0 if strip else xd, pexp): v for (xd, pexp), v in F.items() if xd == d}
            cases.append((part, want))
        for got, want in cases:
            assert is_canonical(got)
            assert fraction_view(got) == want


class TestDerivations:
    def test_pdiff_power_rule(self):
        f = PSeries.term(TR8, 1, x=4, p=((2, 2),))
        assert f.pdiff(2) == PSeries.term(TR8, 2, x=4, p=((2, 1),))
        f = PSeries.term(TR8, 5, x=6, p=((1, 3), (2, 2)))
        assert f.pdiff(1) == PSeries.term(TR8, 15, x=6, p=((1, 2), (2, 2)))
        assert f.pdiff(2) == PSeries.term(TR8, 10, x=6, p=((1, 3), (2, 1)))
        assert f.pdiff(3).is_zero

    def test_xdiff_scales_by_degree(self):
        f = PSeries.term(TR8, 1, x=3, p=((3, 1),))
        assert f.xdiff() == f * 3

    def test_pdiff_index_out_of_range(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                PSeries.one(TR8).pdiff(k)

    @given(series_st(TR6))
    @settings(max_examples=25, deadline=None)
    def test_mixed_partials_commute(self, f):
        assert f.pdiff(1).pdiff(2) == f.pdiff(2).pdiff(1)

    @given(series_st(TR6), series_st(TR6))
    @settings(max_examples=25, deadline=None)
    def test_leibniz_rule(self, f, g):
        lhs = (f * g).pdiff(2)
        assert lhs == f.pdiff(2) * g + f * g.pdiff(2)


class TestExpLog:
    def test_exp_of_zero(self):
        assert exp(PSeries.zero(TR8)) == PSeries.one(TR8)

    def test_exp_taylor(self):
        t = 2
        got = exp(xp1(t))
        want = (
            PSeries.one(t)
            + xp1(t)
            + PSeries.term(t, Fraction(1, 2), x=2, p=((1, 2),))
        )
        assert got == want

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError):
            exp(PSeries.one(TR8))
        with pytest.raises(ValueError):
            log1(PSeries.term(TR8, 1, p=((1, 1),)))

    @given(series_st(TR8, max_terms=5, min_xdeg=1))
    @settings(max_examples=20, deadline=None)
    def test_log1_inverts_exp(self, f):
        assert log1(exp(f) - PSeries.one(TR8)) == f

    @given(series_st(TR6, min_xdeg=1), series_st(TR6, min_xdeg=1))
    @settings(max_examples=15, deadline=None)
    def test_exp_is_multiplicative(self, f, g):
        assert exp(f) * exp(g) == exp(f + g)


class TestSubstitution:
    def test_identity_substitution(self):
        s = xp1(TR8) + PSeries.x(TR8, 2)
        assert subst_x(PSeries.x(TR8), powers(s)) == s

    def test_binomial_expansion(self):
        t = 3
        inner = PSeries.x(t) + PSeries.x(t, 2)
        got = subst_x(PSeries.x(t, 2), powers(inner))
        assert got == PSeries.x(t, 2) + PSeries.x(t, 3) * 2

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError):
            subst_x(PSeries.x(TR8), powers(PSeries.one(TR8)))

    def test_rule_keeps_p_coefficients(self):
        f = PSeries.term(TR8, 2, x=2, p=((3, 1),))
        s = PSeries.x(TR8) * Fraction(1, 2)
        got = subst_x(f, powers(s))
        assert got == PSeries.term(TR8, Fraction(1, 2), x=2, p=((3, 1),))


class TestCoeff:
    def test_single_monomial(self):
        assert xp1(TR8).coeff(1, (1,)) == 1

    def test_zero_series(self):
        assert PSeries.zero(TR8).coeff(3, (2, 1)) == 0

    def test_taylor_coefficient(self):
        assert exp(xp1(TR8)).coeff(3, (1, 1, 1)) == Fraction(1, 6)

    def test_out_of_truncation_rejected(self):
        with pytest.raises(ValueError):
            PSeries.one(TR8).coeff(9, ())
        with pytest.raises(ValueError):
            PSeries.one(TR8).coeff(-1, ())

    def test_lead_str_names_the_first_monomial(self):
        f = PSeries.term(TR8, 3, x=3, p=((1, 3),)) + PSeries.term(TR8, 1, x=2, p=((2, 1),))
        assert f.lead_str() == monomial_str((2, ((2, 1),))) == "x^2*p2"
        assert PSeries.zero(TR8).lead_str() == "0"
        # the first key, not the smallest code: x^2 p2 codes as 4 * 5 < 4 * 9
        g = PSeries.term(TR8, 1, x=2, p=((1, 2),)) + PSeries.term(TR8, 1, x=2, p=((2, 1),))
        assert g.lead_str() == "x^2*p1^2"


class TestMonomialCode:
    """A monomial is stored as the integer 2^d prod q_i^e_i (q_i the i-th odd prime)."""

    def test_round_trip(self):
        # the x-degree rides in the low bits of the odd-prime code
        for mono in [(0, ()), (5, ()), (0, ((1, 1),)), (3, ((1, 2), (4, 1)))]:
            assert _decode(_encode(*mono)) == mono
        assert _encode(2, ((1, 2), (3, 1))) == 2**2 * 3**2 * 7

    def test_repeated_indices_add_up(self):
        assert _encode(1, ((2, 1), (1, 1), (2, 1))) == _encode(1, {1: 1, 2: 2})
        f = PSeries(TR8, {(1, ((1, 1), (2, 1))): 1, (1, ((2, 1), (1, 1))): 2})
        assert fraction_view(f) == {(1, ((1, 1), (2, 1))): 3}

    def test_far_index_survives_the_ring(self):
        f = PSeries.term(TR8, 2, x=1, p=((40, 1),))
        assert fraction_view(f * f) == {(2, ((40, 2),)): 4}
        assert (f * f).pdiff(40) == f * PSeries.x(TR8) * 4
        assert f.coeff(1, (40,)) == 2

    def test_strip_removes_x_from_every_key(self):
        f = PSeries.from_parts(TR8, {(1,): 1, (2, 1): 2, (3,): 3, (2, 2, 1): 4})
        parts = f.x_parts(strip=True)
        assert sorted(parts) == [1, 3, 5]
        for part in parts.values():
            assert all(xd == 0 for xd, _ in fraction_view(part))
        assert fraction_view(parts[3]) == {(0, ((1, 1), (2, 1))): 2, (0, ((3, 1),)): 3}

    def test_fraction_view_keys(self):
        f = PSeries.term(TR8, Fraction(1, 3), x=4, p=((3, 1), (1, 1)))
        assert fraction_view(f) == {(4, ((1, 1), (3, 1))): Fraction(1, 3)}
        assert monomial_str(next(iter(fraction_view(f)))) == "x^4*p1*p3"


class TestSerialization:
    def test_rational_strings(self):
        # the wire format for rationals: "num/den", "/1" omitted
        assert str(Fraction(2, 4)) == "1/2"
        assert str(Fraction(-7, 1)) == "-7"
        assert Fraction("3/4") == Fraction(3, 4)


class TestScalarRule:
    """Coefficients and scalars are ints or Fractions; anything else is a TypeError."""

    def test_floats_keep_their_message(self):
        makers = (
            lambda: PSeries(TR8, {(1, ()): 0.5}),
            lambda: PSeries.from_parts(TR8, {(1,): 0.5}),
            lambda: PSeries.term(TR8, 0.5, x=1),
            lambda: PSeries.x(TR8) * 0.5,
            lambda: 0.5 * PSeries.x(TR8),
        )
        for make in makers:
            with pytest.raises(TypeError, match="floating-point"):
                make()

    @pytest.mark.parametrize("c", ["1/3", Decimal("0.1"), complex(1, 0), None])
    def test_other_types_rejected(self, c):
        makers = (
            lambda: PSeries(4, {(1, ()): c}),
            lambda: PSeries.from_parts(4, {(1,): c}),
            lambda: PSeries.term(4, c, x=1),
            lambda: PSeries.x(4) * c,
            lambda: c * PSeries.x(4),
            lambda: PSeries.x(4).shift(c, x=1),
        )
        for make in makers:
            with pytest.raises(TypeError, match="int or Fraction"):
                make()

    def test_repeated_keys_are_checked_after_adding(self):
        # "1" + "2" would concatenate; the sum is still refused
        with pytest.raises(TypeError, match="int or Fraction"):
            PSeries.from_parts(4, {(1, 2): "1", (2, 1): "2"})
        with pytest.raises(TypeError, match="floating-point"):
            PSeries.from_parts(4, {(1, 2): 1, (2, 1): 0.5})


class TestTotal:
    """PSeries.total: the sum of many series in one pass."""

    @given(st.lists(series_st(TR6), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_left_fold(self, items):
        got = PSeries.total(TR6, iter(items))
        assert fraction_view(got) == fraction_sum(items)
        assert got.N == TR6
        assert is_canonical(got)

    @given(cancelling_pair_st(TR6))
    @settings(max_examples=30, deadline=None)
    def test_cancellations_leave_nothing_stored(self, pair):
        f, g = pair
        got = PSeries.total(TR6, [f, g, -f, -g])
        assert got.is_zero
        assert is_canonical(got)
        # the running sum empties after -f and starts again from g
        got = PSeries.total(TR6, [f, -f, g])
        assert fraction_view(got) == fraction_view(g)
        assert is_canonical(got)

    def test_empty_is_zero(self):
        got = PSeries.total(TR8, ())
        assert got == PSeries.zero(TR8)
        assert is_canonical(got)

    def test_mixed_truncations_rejected(self):
        with pytest.raises(TruncationMismatch):
            PSeries.total(TR8, [PSeries.one(TR8), PSeries.one(TR6)])
        with pytest.raises(TruncationMismatch):
            PSeries.total(TR8, [PSeries.one(TR6)])


class TestSubstitutionByShifts:
    """subst_x shifts s^d by a one-term x-part instead of multiplying."""

    @staticmethod
    def generic(f, pw):
        parts = f.x_parts(strip=True).items()
        return reduce(operator.add, (cd * pw[d] for d, cd in parts), PSeries.zero(f.N))

    def test_one_term_and_many_term_parts(self):
        s = PSeries.from_parts(TR6, {(1,): Fraction(3, 2), (2,): Fraction(1, 4), (1, 1): 2})
        pw = powers(s)
        f = PSeries.from_parts(
            TR6,
            {
                (2,): Fraction(2, 3),  # one term at x^2
                (1, 2): 1,  # two terms at x^3
                (3,): Fraction(1, 5),
                (1, 1, 1, 1): 6,  # one term at x^4
            },
        )
        parts = f.x_parts(strip=True)
        assert sorted((d, len(p.terms)) for d, p in parts.items()) == [(2, 1), (3, 2), (4, 1)]
        got = subst_x(f, pw)
        assert got == self.generic(f, pw)
        assert is_canonical(got)

    @given(series_st(TR6), series_st(TR6, max_terms=4, min_xdeg=1))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_generic_products(self, f, s):
        pw = powers(s)
        got = subst_x(f, pw)
        assert got == self.generic(f, pw)
        assert is_canonical(got)
