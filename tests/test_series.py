"""The truncated series ring: exactness, ring axioms, analytic inverses."""

import operator
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hurwitz.series import (
    PSeries,
    TruncationMismatch,
    _decode,
    _encode,
    _xdeg,
    exp,
    fraction_view,
    log1,
    monomial_str,
    powers,
    subst_x,
)

from conftest import (
    TR6,
    TR8,
    fraction_sum,
    fractions_st,
    is_canonical,
    pexp_st,
    reduced_scale,
    scalars_st,
    series_st,
)

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


def parts_key(parts):
    """The constructor's key (n, ((a, 1), ...)) of x^n p_alpha, alpha given by its parts."""
    return sum(parts), tuple((a, 1) for a in parts)


class TestTerm:
    """PSeries.term builds its one monomial with the constructor and keeps the
    edges of a shift of the series 1."""

    def test_equals_a_shift_of_one(self):
        p = ((2, 1), (1, 1), (2, 2))
        for x in (0, 3, TR6):
            assert PSeries.term(TR6, Fraction(-2, 3), x, p) == PSeries.one(TR6).shift(
                Fraction(-2, 3), x, p
            )

    def test_beyond_the_cut_is_zero(self):
        got = PSeries.term(TR6, Fraction(2, 3), x=TR6 + 1, p=((1, 1),))
        assert got.is_zero and got.den == 1

    def test_negative_exponent_refused(self):
        with pytest.raises(ValueError, match="negative exponent"):
            PSeries.term(TR6, 1, x=-1)

    def test_repeated_p_indices_add_up(self):
        got = PSeries.term(TR6, 3, x=2, p=((2, 1), (1, 1), (2, 2)))
        assert fraction_view(got) == {(2, ((1, 1), (2, 3))): 3}
        assert got == PSeries.term(TR6, 3, x=2, p=((1, 1), (2, 3)))

    def test_zero_coefficient_is_zero(self):
        got = PSeries.term(TR6, Fraction(0, 5), x=1, p=((1, 1),))
        assert got.is_zero and got.den == 1

    def test_float_refused_inside_and_beyond_the_cut(self):
        for x in (1, TR6 + 1):
            with pytest.raises(TypeError, match="floating-point"):
                PSeries.term(TR6, 0.5, x=x)


class TestFromPartPairs:
    """PSeries.from_part_pairs builds x^n p_alpha from the parts of alpha and an
    integer pair (num, den), with one reduction."""

    def test_x_degree_is_the_size(self):
        f = PSeries.from_part_pairs(TR8, {(3, 1): (1, 2), (1,): (2, 1)})
        assert f == PSeries.term(TR8, Fraction(1, 2), x=4, p=((1, 1), (3, 1))) + (
            PSeries.term(TR8, 2, x=1, p=((1, 1),))
        )
        assert f.coeff(4, (1, 3)) == Fraction(1, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
            st.tuples(st.integers(-30, 30), st.integers(1, 12)),
            max_size=6,
        )
    )
    def test_equals_the_fraction_constructor(self, pairs):
        got = PSeries.from_part_pairs(TR6, pairs)
        assert got == PSeries(TR6, {parts_key(k): Fraction(*v) for k, v in pairs.items()})
        assert is_canonical(got)

    def test_keys_naming_one_partition_add_up(self):
        pairs = {(2, 1): (1, 1), (1, 2): (2, 1), (2, 2): (3, 1), (4,): (0, 1)}
        f = PSeries.from_part_pairs(TR8, pairs)
        assert f == PSeries.from_part_pairs(TR8, {(2, 1): (3, 1), (2, 2): (3, 1)})

    def test_keys_naming_one_partition_add_up_and_cancel(self):
        pairs = {(2, 1): (1, 6), (1, 2): (1, 3), (3,): (2, 4), (2, 2): (0, 5)}
        f = PSeries.from_part_pairs(TR8, pairs)
        half = Fraction(1, 2)
        assert f == PSeries(TR8, {parts_key((2, 1)): half, parts_key((3,)): half})
        assert (f.den, sorted(f.terms.values())) == (2, [1, 1])
        g = PSeries.from_part_pairs(TR8, {(2, 1): (1, 6), (1, 2): (-2, 12)})
        assert g.is_zero and g.den == 1

    def test_sizes_above_n_dropped(self):
        assert PSeries.from_part_pairs(TR_SMALL, {(2, 1): (1, 3)}).is_zero

    def test_whole_coefficient_above_n_dropped(self):
        assert PSeries.from_part_pairs(TR_SMALL, {(2, 1): (1, 1)}).is_zero

    def test_non_positive_parts_rejected(self):
        # above the cut too: a key is encoded before its size meets the cut
        for parts in ((2, 0), (9, 0), (10, -1)):
            with pytest.raises(ValueError, match="odd-prime index -?[01] is below 1"):
                PSeries.from_part_pairs(TR8, {parts: (1, 1)})
        with pytest.raises(ValueError):
            PSeries.one(TR8).coeff(0, (0,))

    @pytest.mark.parametrize(
        "pair",
        [
            (0.5, 1),
            (1, 2.0),
            (Fraction(1, 2), 1),
            ("1", 2),
            ("1/3", 1),
            (Decimal("0.1"), 1),
            (complex(1, 0), 1),
            (None, 1),
        ],
    )
    def test_only_int_pairs(self, pair):
        with pytest.raises(TypeError, match="pair of ints"):
            PSeries.from_part_pairs(TR8, {(1,): pair})

    @pytest.mark.parametrize("den", [0, -2])
    def test_only_positive_denominators(self, den):
        with pytest.raises(ValueError, match="below 1"):
            PSeries.from_part_pairs(TR8, {(1,): (1, den)})


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
    )
    @settings(max_examples=100, deadline=None)
    def test_every_operation(self, f, g, c, x, p, k):
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
        parts = f.x_parts()
        assert sorted(parts) == sorted({xd for xd, _ in F})
        for d, part in parts.items():
            want = {(xd, pexp): v for (xd, pexp), v in F.items() if xd == d}
            cases.append((part, want))
        for got, want in cases:
            assert is_canonical(got)
            assert fraction_view(got) == want


def with_content_st(N):
    """Random series times 1, 2 or 6, so the numerators often share a factor."""
    return st.tuples(series_st(N, max_terms=6), st.sampled_from([1, 2, 6])).map(
        lambda fk: PSeries(N, {m: v * fk[1] for m, v in fraction_view(fk[0]).items()})
    )


class TestScalarMultiples:
    """f * c and f.shift(c, ...) are weighted totals of one summand; both
    store the form the generic route gives, also where the cut dropped terms."""

    def test_integer_scalars(self):
        f = PSeries(TR6, {(1, ((1, 1),)): Fraction(2, 3), (5, ()): Fraction(4, 3)})
        scalars = (-1, 2, -6, Fraction(6))
        want = [reduced_scale(f.den, f.terms, c) for c in scalars]
        for c, (den, terms) in zip(scalars, want):
            got = f * c
            assert (got.den, got.terms) == (den, terms)
            assert f.shift(c, p=((2, 1),)).den == den

    def test_a_cut_shift_is_reduced_in_full(self):
        # 1/2 + x^4/6 is 3/6 + 1/6 x^4; x times it keeps only 3/6 x
        f = PSeries(4, {(0, ()): Fraction(1, 2), (4, ()): Fraction(1, 6)})
        assert f.den == 6
        got = f.shift(x=1)
        assert got == PSeries.term(4, Fraction(1, 2), x=1)
        assert got.den == 2
        assert is_canonical(got)

    @pytest.mark.parametrize(
        "c", [0, 1, -1, 3, -6, 4, Fraction(1, 2), Fraction(-3, 4), Fraction(9, 2), Fraction(5, 3)]
    )
    def test_pinned_scalars(self, c):
        # den 3, numerators 2 and 4 (content 2)
        f = PSeries(TR6, {(1, ((1, 1),)): Fraction(2, 3), (5, ()): Fraction(4, 3)})
        assert (f.den, sorted(f.terms.values())) == (3, [2, 4])
        got = f * c
        assert (got.den, got.terms) == reduced_scale(f.den, f.terms, c)
        assert is_canonical(got)
        for x in (0, 1, 2):
            self.check_shift(f, c, x, ((2, 1),))

    @staticmethod
    def check_shift(f, c, x, p):
        got = f.shift(c, x=x, p=p)
        m = _encode(x, p)
        kept = {code * m: v for code, v in f.terms.items() if _xdeg(code) + x <= f.N}
        assert (got.den, got.terms) == reduced_scale(f.den, kept, c)
        assert is_canonical(got)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_equal_the_generic_route(self, data):
        f = data.draw(with_content_st(TR_SMALL + 1))
        c = data.draw(scalars_st(f))
        got = f * c
        assert (got.den, got.terms) == reduced_scale(f.den, f.terms, c)
        assert is_canonical(got)
        self.check_shift(f, c, data.draw(st.integers(0, 2)), data.draw(pexp_st(3)))


class TestSubtraction:
    """a - b is one signed pass, with no negated copy of b."""

    @given(series_st(TR6, max_terms=6))
    @settings(max_examples=40, deadline=None)
    def test_zero_and_self(self, f):
        zero = PSeries.zero(TR6)
        for got, want in ((zero - f, -f), (f - zero, f), (f - f, zero)):
            assert got == want
            assert is_canonical(got)
        assert (f - f).den == 1


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

    @given(series_st(TR6, max_terms=6), series_st(TR6, max_terms=3, min_xdeg=1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_fraction_route(self, f, inner, data):
        # each term read off its code with its weight as a pair, against the
        # rule read through its Fraction coefficients
        f = f * data.draw(st.sampled_from([1, 2, 6, Fraction(1, 6)]))
        s = PSeries.x(TR6) + inner
        pw = powers(s)
        want = PSeries.weighted_total(
            TR6, ((pw[d], c, None, pexp) for (d, pexp), c in fraction_view(f).items())
        )
        got = subst_x(f, pw)
        assert got == want
        assert is_canonical(got)


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
        assert _encode(1, ((2, 1), (1, 1), (2, 1))) == _encode(1, ((1, 1), (2, 2)))
        f = PSeries(TR8, {(1, ((1, 1), (2, 1))): 1, (1, ((2, 1), (1, 1))): 2})
        assert fraction_view(f) == {(1, ((1, 1), (2, 1))): 3}

    def test_far_index_survives_the_ring(self):
        f = PSeries.term(TR8, 2, x=1, p=((40, 1),))
        assert fraction_view(f * f) == {(2, ((40, 2),)): 4}
        assert (f * f).pdiff(40) == f * PSeries.x(TR8) * 4
        assert f.coeff(1, (40,)) == 2

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
            lambda: PSeries(TR8, {parts_key((1,)): 0.5}),
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
            lambda: PSeries(4, {parts_key((1,)): c}),
            lambda: PSeries.term(4, c, x=1),
            lambda: PSeries.x(4) * c,
            lambda: c * PSeries.x(4),
            lambda: PSeries.x(4).shift(c, x=1),
        )
        for make in makers:
            with pytest.raises(TypeError, match="int or Fraction"):
                make()

    def test_repeated_keys_are_checked_after_adding(self):
        # each coefficient is checked before keys are added, so "1" + "2" never concatenates
        # (the keys name one monomial, p1 p2 x^3, in two orders)
        with pytest.raises(TypeError, match="int or Fraction"):
            PSeries(4, {parts_key((1, 2)): "1", parts_key((2, 1)): "2"})
        with pytest.raises(TypeError, match="floating-point"):
            PSeries(4, {parts_key((1, 2)): 1, parts_key((2, 1)): 0.5})
        with pytest.raises(TypeError, match="pair of ints"):
            PSeries.from_part_pairs(4, {(1, 2): ("1", 1), (2, 1): ("2", 1)})


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

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_weighted_equals_the_fraction_fold(self, data):
        # weights sharing a factor with den or the content, negative and zero
        items = data.draw(st.lists(with_content_st(TR6), max_size=6))
        weights = [data.draw(scalars_st(f)) for f in items]
        got = PSeries.weighted_total(TR6, zip(items, weights))
        assert fraction_view(got) == fraction_sum(items, weights)
        assert got.N == TR6
        assert is_canonical(got)

    @given(cancelling_pair_st(TR6), fractions_st())
    @settings(max_examples=30, deadline=None)
    def test_a_weighted_sum_cancels_and_restarts(self, pair, c):
        f, g = pair
        # c f and -c/2 (2 f) cancel; the sum restarts from 3 g, and a zero
        # weight adds nothing, first or later
        got = PSeries.weighted_total(TR6, [(g, 0), (f, c), (f * 2, -c / 2), (g, 3), (f, 0)])
        assert fraction_view(got) == fraction_view(g * 3)
        assert is_canonical(got)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_pair_weights_equal_their_fractions(self, data):
        # (a, b) weighs as a/b, also unreduced; no Fraction is needed
        items = data.draw(st.lists(with_content_st(TR6), max_size=4))
        weights = [data.draw(scalars_st(f)) for f in items]
        scales = [data.draw(st.sampled_from([1, 2, 6])) for _ in items]
        pairs = [
            (k * Fraction(c).numerator, k * Fraction(c).denominator)
            for c, k in zip(weights, scales)
        ]
        got = PSeries.weighted_total(TR6, zip(items, pairs))
        assert fraction_view(got) == fraction_sum(items, weights)
        assert is_canonical(got)

    @pytest.mark.parametrize(
        "weight, error",
        [((1, 0), ValueError), ((1, -2), ValueError), ((1.0, 2), TypeError),
         ((Fraction(1, 2), 3), TypeError), ((1, 2, 3), TypeError)],
        ids=["zero-den", "negative-den", "float-num", "fraction-num", "three-entries"],
    )
    def test_bad_pair_weights_refused(self, weight, error):
        with pytest.raises(error):
            PSeries.weighted_total(TR6, [(xp1(TR6), weight)])

    def test_empty_is_zero(self):
        got = PSeries.total(TR8, ())
        assert got == PSeries.zero(TR8)
        assert is_canonical(got)

    def test_mixed_truncations_rejected(self):
        with pytest.raises(TruncationMismatch):
            PSeries.total(TR8, [PSeries.one(TR8), PSeries.one(TR6)])
        with pytest.raises(TruncationMismatch):
            PSeries.total(TR8, [PSeries.one(TR6)])


def summand_st(N):
    """A lazy summand (f, c), (f, c, g), (f, c, None, p) or (f, c, g, p), g
    sometimes empty, with a weight that may share a factor with either den."""

    def weighted(fgp):
        f, g, p = fgp
        dens = st.sampled_from([f.den, 1 if g is None else g.den])
        c = st.one_of(scalars_st(f), dens.flatmap(lambda d: st.integers(-3, 3).map(d.__mul__)))
        return c.map(lambda c: (f, c, g, p) if p else (f, c) if g is None else (f, c, g))

    g = st.one_of(st.none(), st.just(PSeries.zero(N)), with_content_st(N))
    return st.tuples(with_content_st(N), g, st.one_of(st.just(()), pexp_st(N))).flatmap(weighted)


def eager(f, c, g=None, p=()):
    """The summand built as a series, the way the sum avoids."""
    return (f if g is None else f * g).shift(1, p=p), c


class TestMultiplyAccumulate:
    """weighted_total adds products and p-monomial multiples straight into
    the sum; the result equals the sum of the series built one by one."""

    @given(st.lists(summand_st(TR6), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_lazy_summands_equal_the_eager_fold(self, summands):
        got = PSeries.weighted_total(TR6, iter(summands))
        items, weights = zip(*(eager(*s) for s in summands)) if summands else ((), ())
        assert fraction_view(got) == fraction_sum(items, weights)
        assert got.N == TR6
        assert is_canonical(got)

    @given(cancelling_pair_st(TR6), series_st(TR6, 4), fractions_st(), pexp_st(TR6))
    @settings(max_examples=40, deadline=None)
    def test_products_cancel_inside_the_sum_and_restart(self, pair, h, c, p):
        f, g = pair
        a, b = (f + g) * Fraction(1, 2), (f - g) * Fraction(1, 2)
        # (a + b)(a - b) - a a + b b: the cross pairs cancel inside the first
        # product, the rest against the next two
        got = PSeries.weighted_total(TR6, [(f, 1, g), (a, -1, a), (b, 1, b)])
        assert got.is_zero
        assert is_canonical(got)
        # a sum that cancels to zero goes on from there
        got = PSeries.weighted_total(TR6, [(f, c, g), (f * g, -c), (h, 3, None, p), (h, 0, g)])
        assert fraction_view(got) == fraction_view(h.shift(3, p=p))
        assert is_canonical(got)

    def test_zero_weights_and_empty_factors_add_nothing(self):
        f, zero = xp1(TR6), PSeries.zero(TR6)
        summands = [(f, 0, f), (zero, 5, f), (f, 5, zero, ((2, 1),)), (f, 2, None, ((2, 1),))]
        want = PSeries.term(TR6, 2, x=1, p=((1, 1), (2, 1)))
        assert PSeries.weighted_total(TR6, summands) == want

    def test_mixed_truncations_rejected_in_either_factor(self):
        six, eight = PSeries.one(TR6), PSeries.one(TR8)
        p1 = ((1, 1),)
        for summand in ((eight, 1, six), (six, 1, eight), (six, 0, eight), (eight, 1, None, p1)):
            with pytest.raises(TruncationMismatch):
                PSeries.weighted_total(TR6, [summand])


class TestPartnerLists:
    """A right factor's partner lists are built once and kept with it."""

    def test_pinned_products_on_the_cut(self):
        # every pair of degrees d1 + d2 = N = 3 is kept and every d1 + d2 = 4
        # dropped, so a partner bound one off either way changes the product
        f = PSeries(3, {(0, ()): 1, (1, ((1, 1),)): 2, (2, ()): 3, (3, ((2, 1),)): 5})
        g = PSeries(3, {(0, ((3, 1),)): 7, (1, ()): 11, (2, ((1, 1),)): 13, (3, ()): 17})
        want = {
            (0, ((3, 1),)): 7, (1, ()): 11, (1, ((1, 1), (3, 1))): 14, (2, ((1, 1),)): 35,
            (2, ((3, 1),)): 21, (3, ()): 50, (3, ((1, 2),)): 26, (3, ((2, 1), (3, 1))): 35,
        }
        for _ in range(2):
            assert fraction_view(f * g) == want
        assert fraction_view(g * f) == want
        assert fraction_view(f * g) == want

    @given(series_st(TR_SMALL, max_terms=8), series_st(TR_SMALL, max_terms=8))
    @settings(max_examples=40, deadline=None)
    def test_reused_right_factors_give_the_same_products(self, f, g):
        want = fraction_loop_product(f, g)
        assert fraction_view(f * g) == want
        assert fraction_view(f * g) == want  # g's lists kept
        assert fraction_view(g * f) == fraction_loop_product(g, f)
        assert fraction_view(f * g) == want  # after g was a left factor

    @given(series_st(TR_SMALL, max_terms=8), series_st(TR_SMALL, max_terms=8), fractions_st())
    @settings(max_examples=40, deadline=None)
    def test_derived_series_carry_no_lists_of_their_own_source(self, f, g, c):
        f * g  # g's lists are built
        derived = [PSeries._of(g.N, g.den, g.terms), -g, g * 3, g * c]
        derived += [g.shift(2, x=1), g.shift(p=((1, 1),))]
        for h in derived:
            assert not hasattr(h, "_lists")
            assert fraction_view(f * h) == fraction_loop_product(f, h)


class TestSubstitutionByShifts:
    """subst_x sums shifts of s^d, one per term of the rule; the reference
    multiplies s^d by the whole p-content of each x-part."""

    @staticmethod
    def generic(f, pw):
        def content(part):
            return PSeries(f.N, {(0, pexp): c for (_, pexp), c in fraction_view(part).items()})

        products = (content(part) * pw[d] for d, part in f.x_parts().items())
        return reduce(operator.add, products, PSeries.zero(f.N))

    def test_one_term_and_many_term_parts(self):
        s = PSeries.from_part_pairs(TR6, {(1,): (3, 2), (2,): (1, 4), (1, 1): (2, 1)})
        pw = powers(s)
        f = PSeries.from_part_pairs(
            TR6,
            {
                (2,): (2, 3),  # one term at x^2
                (1, 2): (1, 1),  # two terms at x^3
                (3,): (1, 5),
                (1, 1, 1, 1): (6, 1),  # one term at x^4
            },
        )
        parts = f.x_parts()
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

    def test_rule_denominators_cancel_against_the_powers(self):
        # every numerator of s^d is a multiple of 2^d and every rule
        # coefficient has denominator 2 or 4, so each shift divides through
        # by gcd(b, content) > 1
        s = PSeries.from_part_pairs(TR6, {(1,): (2, 1), (1, 1): (4, 1), (2,): (6, 1)})
        pw = powers(s)
        rule = {(1,): (1, 2), (1, 1): (5, 4), (2, 3): (3, 4)}
        f = PSeries.from_part_pairs(TR6, rule)
        for (d, pexp), c in fraction_view(f).items():
            assert gcd(c.denominator, *pw[d].terms.values()) > 1
            assert is_canonical(pw[d].shift(c, p=pexp))
        got = subst_x(f, pw)
        assert got == self.generic(f, pw)
        assert is_canonical(got)
        half = subst_x(PSeries.term(TR6, Fraction(1, 2), x=1), pw)
        assert half == PSeries.from_part_pairs(TR6, {(1,): (1, 1), (1, 1): (2, 1), (2,): (3, 1)})
        assert half.den == 1
