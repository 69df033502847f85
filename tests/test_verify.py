"""The identity checker: PDE residual, polynomial vanishing, series identities."""

import inspect
from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hurwitz import closedform, verify
from hurwitz.closedform import f0_series, g1_closed, g1_defn, s_series
from hurwitz.series import PSeries, TruncationMismatch, fraction_view, subst_x
from hurwitz.verify import (
    DEFAULT_KERNELS,
    CheckResult,
    WExpr,
    WPoly,
    build_ABCDE,
    check_u1,
    check_u2,
    check_u3,
    closed_form_series_checks,
    elem_sym_extraction,
    f0_pdiff_axiom,
    g1_pdiff_identity,
    g1_xdiff_identity,
    kernel_recombination,
    psi_pdiff_identity,
    report_obj,
    residual_T,
    run_all_checks,
    s_pdiff_identity,
    s_xdiff_identity,
    series_u_checks,
    sym_psi,
    wd,
)

from conftest import a_fraction, fraction_sum, is_canonical, reduced_scale, scalars_st

TR8 = 8
# 1 + x1, cut at the order it is given with
ONE_PLUS_X1 = {(0, 0, 0): 1, (1, 0, 0): 1}


def coeff_st():
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


def wpoly_st(order):
    """Random WPoly with exponents 0..2, so products often overflow order 2."""
    mono = st.tuples(*[st.integers(0, 2)] * 3)
    return st.dictionaries(mono, coeff_st(), max_size=6).map(lambda t: WPoly(t, order))


def wpoly_pair_st(order):
    """A random pair, or (a + b, a - b), whose product cancels the cross terms."""
    return st.one_of(
        st.tuples(wpoly_st(order), wpoly_st(order)),
        st.tuples(wpoly_st(order), wpoly_st(order)).map(
            lambda ab: (ab[0] + ab[1], ab[0] - ab[1])
        ),
    )


def fraction_loop_product(f, g):
    """The product by a termwise Fraction double loop, zero sums dropped."""
    out = {}
    for m1, c1 in fraction_view(f).items():
        for m2, c2 in fraction_view(g).items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            if f.N is not None and max(mono) > f.N:
                continue
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


class TestResidual:
    def test_zero_for_closed_form(self):
        assert residual_T(TR8).is_zero

    def test_zero_for_assembled_form(self):
        assert residual_T(TR8, g1_defn(TR8)).is_zero

    def test_detects_perturbation(self):
        bad = g1_closed(TR8) + PSeries.term(TR8, 1, x=2, p=((2, 1),))
        assert not residual_T(TR8, bad).is_zero

    @pytest.mark.slow
    def test_zero_at_order_ten(self):
        tr = 10
        assert residual_T(tr).is_zero
        assert residual_T(tr, g1_defn(tr)).is_zero


class TestWAtoms:
    def test_tree_derivative_fractions(self):
        # w' (1 - w) = w as exact fractions
        d1 = wd(1, 1)
        lhs = d1 * WExpr(WPoly.const(1) - WPoly.var(1))
        assert (lhs - WExpr(WPoly.var(1))).num.is_zero

    def test_diff_division_sign(self):
        e = WExpr(WPoly.var(1) - WPoly.var(2))
        assert e.div_diff(1, 2).num == WPoly.var(1) - WPoly.var(2)
        assert e.div_diff(2, 1).num == -(WPoly.var(1) - WPoly.var(2))

    def test_float_scalars_rejected(self):
        e = WExpr(WPoly.var(1))
        for product in (lambda: e * 1.5, lambda: 1.5 * e):
            with pytest.raises(TypeError, match="floating-point"):
                product()

    def test_psi_image_bounds(self):
        with pytest.raises(ValueError):
            sym_psi(-2, 1)
        with pytest.raises(ValueError):
            wd(1, 4)


class TestRing:
    def test_orders_do_not_mix(self):
        series = WPoly(ONE_PLUS_X1, 8)
        with pytest.raises(TruncationMismatch):
            series + WPoly.var(1)
        with pytest.raises(TruncationMismatch):
            series * WPoly({(0, 0, 0): 1, (0, 1, 0): 1}, 10)
        with pytest.raises(TruncationMismatch):
            series == WPoly(ONE_PLUS_X1, 10)

    def test_truncation_is_per_variable(self):
        # (x1 + x1^2) x2 squared, with x1^3 and x1^4 beyond order 2
        f = WPoly({(1, 0, 0): 1, (2, 0, 0): 1}, 2) * WPoly({(0, 1, 0): 1}, 2)
        assert f * f == WPoly({(2, 2, 0): 1}, 2)

    @pytest.mark.parametrize("order", [None, 2])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_product_equals_fraction_loop(self, order, data):
        f, g = data.draw(wpoly_pair_st(order))
        got = f * g
        assert got.N == order
        assert fraction_view(got) == fraction_loop_product(f, g)
        assert is_canonical(got)

    @pytest.mark.parametrize("order", [None, 2])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_operation_is_canonical(self, order, data):
        f, g = data.draw(wpoly_pair_st(order))
        c = data.draw(st.one_of(st.integers(-3, 3), coeff_st()))
        F, G = fraction_view(f), fraction_view(g)

        def summed(sign):
            pairs = ((m, F.get(m, 0) + sign * G.get(m, 0)) for m in F.keys() | G.keys())
            return {m: v for m, v in pairs if v}

        cases = [
            (f + g, summed(1)),
            (f - g, summed(-1)),
            (-f, {m: -v for m, v in F.items()}),
            (f * c, {m: v * c for m, v in F.items() if c}),
            (f * g, fraction_loop_product(f, g)),
        ]
        for got, want in cases:
            assert got.N == order
            assert is_canonical(got)
            assert fraction_view(got) == want

    def test_truncated_product_crosses_the_cut_in_each_variable(self):
        # at order 2, x_v^2 * x_v crosses the cut in x_v alone, and x1 is
        # partnered with terms of x1-degree up to 2 - a1 only
        f = WPoly({(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 3, (1, 1, 1): 5, (0, 1, 0): 7}, 2)
        g = WPoly({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1, (1, 1, 0): 1}, 2)
        sums = [tuple(map(sum, zip(m1, m2))) for m1 in f.terms for m2 in g.terms]
        for v in range(3):
            assert any(e[v] > 2 >= max(e[:v] + e[v + 1 :]) for e in sums)
        assert fraction_view(f * g) == fraction_loop_product(f, g)

    def test_pinned_products_on_the_cut(self):
        # at order 2, every pair of x1-degrees summing to 2 is kept and every
        # pair summing to 3 dropped, so a partner bound one off either way
        # changes the product; g's partner lists are kept and read again
        f = WPoly({(0, 0, 0): 1, (1, 0, 1): 2, (2, 1, 0): 3}, 2)
        g = WPoly({(0, 1, 0): 5, (1, 0, 0): 7, (2, 0, 1): 11}, 2)
        want = {(0, 1, 0): 5, (1, 0, 0): 7, (2, 0, 1): 11 + 14, (1, 1, 1): 10, (2, 2, 0): 15}
        for _ in range(2):
            assert fraction_view(f * g) == want
        assert fraction_view(g * f) == want
        assert fraction_view(f * g) == want

    def test_cancelling_and_overflowing_terms_are_not_stored(self):
        # (1 + w1)(1 - w1) = 1 - w1^2; at order 1 the w1^2 term is dropped too
        for order, want in ((None, {(0, 0, 0): 1, (2, 0, 0): -1}), (1, {(0, 0, 0): 1})):
            f = WPoly({(0, 0, 0): 1, (1, 0, 0): 1}, order)
            g = WPoly({(0, 0, 0): 1, (1, 0, 0): -1}, order)
            assert (f * g).terms == want

    def test_witness_names_the_variables(self):
        assert (WPoly.var(1) * WPoly.var(2) * WPoly.var(2)).lead_str() == "w1*w2^2"
        assert WPoly({(1, 2, 0): 1}, 3).lead_str() == "x1*x2^2"


class TestScalarsAndSubtraction:
    @pytest.mark.parametrize("order", [None, 2])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_scaling_equals_the_generic_route(self, order, data):
        f = data.draw(wpoly_st(order)) * data.draw(st.sampled_from([1, 2, 6]))
        c = data.draw(scalars_st(f))
        got = f * c
        assert (got.den, got.terms) == reduced_scale(f.den, f.terms, c)
        assert is_canonical(got)

    @pytest.mark.parametrize("order", [None, 2])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_subtracting_zero_and_self(self, order, data):
        f, zero = data.draw(wpoly_st(order)), WPoly(N=order)
        for got, want in ((zero - f, -f), (f - zero, f), (f - f, zero)):
            assert got == want
            assert got.N == order
            assert is_canonical(got)
        assert (f - f).den == 1


class TestScalarRule:
    def test_floats_keep_their_message(self):
        for make in (lambda: WPoly({(1, 0, 0): 0.75}), lambda: WPoly.var(1) * 0.5):
            with pytest.raises(TypeError, match="floating-point"):
                make()

    @pytest.mark.parametrize("c", ["3/4", Decimal("0.5")])
    def test_other_types_rejected(self, c):
        for make in (
            lambda: WPoly({(1, 0, 0): c}),
            lambda: WPoly.const(c, 4),
            lambda: WPoly.var(1) * c,
            lambda: c * WPoly.var(1),
            lambda: WExpr(WPoly.var(1)) * c,
        ):
            with pytest.raises(TypeError, match="int or Fraction"):
                make()


class TestTotal:
    """WPoly.total: the sum of many polynomials in one pass."""

    @pytest.mark.parametrize("order", [None, 2])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_left_fold(self, order, data):
        items = data.draw(st.lists(wpoly_st(order), max_size=6))
        got = WPoly.total(order, (f for f in items))
        assert fraction_view(got) == fraction_sum(items)
        assert got.N == order
        assert is_canonical(got)

    @pytest.mark.parametrize("order", [None, 2])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_weighted_equals_the_fraction_fold(self, order, data):
        # weights sharing a factor with den or the content, negative and zero
        scaled = st.tuples(wpoly_st(order), st.sampled_from([1, 2, 6]))
        items = [f * k for f, k in data.draw(st.lists(scaled, max_size=6))]
        weights = [data.draw(scalars_st(f)) for f in items]
        got = WPoly.weighted_total(order, zip(items, weights))
        assert fraction_view(got) == fraction_sum(items, weights)
        assert got.N == order
        assert is_canonical(got)

    @pytest.mark.parametrize("order", [None, 2])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_weighted_sum_cancels_and_restarts(self, order, data):
        f, g = data.draw(wpoly_pair_st(order))
        c = data.draw(coeff_st())
        got = WPoly.weighted_total(order, [(g, 0), (f, c), (f * 2, -c / 2), (g, 3), (f, 0)])
        assert fraction_view(got) == fraction_view(g * 3)
        assert is_canonical(got)

    @pytest.mark.parametrize("order", [None, 2])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lazy_products_equal_the_eager_fold(self, order, data):
        # summands (f, c) and (f, c, g), g sometimes empty, with weights that
        # may share a factor with either den
        factor = st.one_of(st.none(), st.just(WPoly(N=order)), wpoly_st(order))
        pairs = data.draw(st.lists(st.tuples(wpoly_st(order), factor), max_size=6))
        summands, items, weights = [], [], []
        for f, g in pairs:
            f = f * data.draw(st.sampled_from([1, 2, 6]))
            c = data.draw(st.one_of(scalars_st(f), scalars_st(f if g is None else g)))
            summands.append((f, c) if g is None else (f, c, g))
            items.append(f if g is None else f * g)
            weights.append(c)
        got = WPoly.weighted_total(order, iter(summands))
        assert fraction_view(got) == fraction_sum(items, weights)
        assert got.N == order
        assert is_canonical(got)

    @pytest.mark.parametrize("order", [None, 2])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_products_cancel_inside_the_sum_and_restart(self, order, data):
        a, b, h = (data.draw(wpoly_st(order)) for _ in range(3))
        c = data.draw(coeff_st())
        # (a + b)(a - b) - a a + b b: the cross pairs cancel inside the first
        # product, the rest against the next two
        got = WPoly.weighted_total(order, [(a + b, 1, a - b), (a, -1, a), (b, 1, b)])
        assert got.is_zero
        assert is_canonical(got)
        # a sum that cancels to zero goes on from there
        got = WPoly.weighted_total(order, [(a, c, b), (a * b, -c), (h, 3), (h, 0, b)])
        assert fraction_view(got) == fraction_view(h * 3)
        assert is_canonical(got)

    def test_mixed_truncations_and_p_monomials_rejected(self):
        exact, cut = WPoly.var(1), WPoly(ONE_PLUS_X1, 8)
        for summand in ((exact, 1, cut), (cut, 1, exact), (cut, 0, exact)):
            with pytest.raises(TruncationMismatch):
                WPoly.weighted_total(8, [summand])
        with pytest.raises(TypeError, match="p-variables"):
            WPoly.weighted_total(None, [(exact, 1, None, ((1, 1),))])

    def test_empty_is_zero(self):
        for order in (None, 3):
            got = WPoly.total(order, [])
            assert got == WPoly(N=order)
            assert is_canonical(got)

    def test_mixed_truncations_rejected(self):
        with pytest.raises(TruncationMismatch):
            WPoly.total(None, [WPoly.var(1), WPoly(ONE_PLUS_X1, 8)])
        with pytest.raises(TruncationMismatch):
            WPoly.total(8, [WPoly(ONE_PLUS_X1, 10)])


class TestVanishing:
    def test_u1(self):
        assert check_u1().ok

    def test_u2(self):
        assert check_u2().ok

    def test_u3(self):
        assert check_u3().ok

    def test_build_forms_are_nonzero(self):
        for expr in build_ABCDE():
            assert not expr.num.is_zero

    def test_series_routes(self):
        for result in series_u_checks():
            assert result.ok, result

    def test_kernels_recombine_in_main_ring(self):
        assert kernel_recombination(TR8).ok

    def test_closed_forms_match_series(self):
        for result in closed_form_series_checks():
            assert result.ok, result

    @pytest.mark.parametrize("order", [8, 10])
    def test_renamed_kernels_equal_direct_builds(self, order):
        k = verify._series_kernels(order)
        for v1, v2 in ((2, 3), (1, 3), (2, 1)):
            assert k.c(v1, v2) == verify._direct_cross("c", v1, v2, order)
            assert k.e(v1, v2) == verify._direct_cross("e", v1, v2, order)
        for v in (2, 3):
            assert k.a(v) == verify._direct_linear("a", v, order)
            assert k.b(v) == verify._direct_linear("b", v, order)
            assert k.d(v) == verify._direct_linear("d", v, order)
            for m in range(-1, 3):
                assert k.psi(m, v) == verify._direct_psi(m, v, order)


def at_tree_by_monomial(p, order):
    """p at the tree series one monomial at a time: const * W1^a * W2^b * W3^c."""

    def terms():
        for mono, c in p.terms.items():
            term = WPoly.const(c, order)
            for v, e in enumerate(mono, 1):
                if e:
                    term = term * verify._w_power(v, e, order)
            yield term

    return WPoly.total(order, terms()) * Fraction(1, p.den)


def series_gap_by_expansion(expr, direct):
    """num - direct * den with den expanded as a polynomial, then evaluated at
    the tree series."""
    order = direct.N
    den = WExpr(WPoly.const(1))._lift(expr.den)
    return verify._at_tree(expr.num, order) - direct * verify._at_tree(den, order)


class TestTreeEvaluation:
    """_at_tree groups monomials by (e1, e2); it equals the per-monomial sum.
    _series_gap evaluates each denominator atom with it, never the expanded
    denominator; it equals the expanded route."""

    def test_on_every_form_the_series_checks_evaluate(self, monkeypatch):
        at_tree, seen = verify._at_tree, []

        def recording(p, order):
            seen.append((p, order))
            return at_tree(p, order)

        monkeypatch.setattr(verify, "_at_tree", recording)
        verify._atom_power.cache_clear()
        assert all(closed_form_series_checks())
        # a numerator for each of a..e and psi_-1..psi_2, and once each the
        # denominator atoms they carry, 1 - w1, 1 - w2 and w1 - w2
        atoms = [p for p, _ in seen if any(p == atom for atom in verify._ATOMS)]
        assert atoms == [verify._ATOMS[i] for i in (0, 1, 3)]
        assert len(seen) == 9 + len(atoms)
        for p, order in seen:
            assert at_tree(p, order) == at_tree_by_monomial(p, order)

    @pytest.mark.parametrize("order", [6, 10])
    def test_factored_gap_equals_the_expanded_denominator(self, order):
        direct = verify._series_kernels(order)
        pairs = list(zip(build_ABCDE(DEFAULT_KERNELS), build_ABCDE(direct)))
        pairs += [(DEFAULT_KERNELS.psi(m, 1), direct.psi(m, 1)) for m in range(-1, 3)]
        assert len(pairs) == 9
        for expr, series in pairs:
            assert verify._series_gap(expr, series) == series_gap_by_expansion(expr, series)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_factored_gap_on_random_fractions(self, data):
        den = tuple(data.draw(st.integers(0, bound)) for bound in verify._DEN_BOUND)
        expr = WExpr(data.draw(wpoly_st(None)), den)
        order = data.draw(st.integers(1, 6))
        direct = data.draw(wpoly_st(order))
        got = verify._series_gap(expr, direct)
        assert got == series_gap_by_expansion(expr, direct)
        assert is_canonical(got)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_on_random_polynomials(self, data):
        mono = st.tuples(*[st.integers(0, 3)] * 3)
        terms = data.draw(st.dictionaries(mono, coeff_st(), max_size=8))
        terms[0, 0, 0] = Fraction(2 * data.draw(st.integers(-3, 3)) + 1, 2)
        p = WPoly(terms)
        assert p.den > 1 and (0, 0, 0) in p.terms
        order = data.draw(st.integers(1, 10))
        got = verify._at_tree(p, order)
        assert got == at_tree_by_monomial(p, order)
        assert is_canonical(got)


def _fraction_linear(name, k):
    """[y_k] of a one-slot kernel, summed term by term in Fractions."""
    w = verify._LINEAR[name]
    return sum(
        (a_fraction(i) * a_fraction(k - i) * Fraction(*w(i, k - i)) for i in range(1, k)),
        Fraction(0),
    )


def _fraction_cross(name, k, m):
    """[y_k y_m] of a two-slot kernel, summed term by term in Fractions."""
    join, split = verify._CROSS[name]
    joined = sum(
        (a_fraction(i) * a_fraction(k - i) * Fraction(*join(i, k - i, m)) for i in range(1, k)),
        Fraction(0),
    )
    return a_fraction(m) * joined - a_fraction(k + m) * Fraction(*split(k, m))


def _scaled(w):
    """The weight w, a function giving an integer pair (num, den), times 13/12."""

    def off(*args):
        num, den = w(*args)
        return 13 * num, 12 * den

    return off


class TestKernelWeights:
    def test_integer_sums_equal_fraction_sums(self):
        for name in verify._LINEAR:
            for k in range(14):
                got = Fraction(*verify._linear_by(verify._LINEAR[name], k))
                assert got == _fraction_linear(name, k), (name, k)
        for name in verify._CROSS:
            for k in range(1, 14):
                for m in range(1, 13):
                    got = Fraction(*verify._cross_by(*verify._CROSS[name], k, m))
                    assert got == _fraction_cross(name, k, m), (name, k, m)

    def test_a_patched_weight_is_not_served_from_the_cache(self, monkeypatch):
        # the same fault as test_kernel_weight_fault_is_caught[c-split], but
        # after a run has filled the weight caches with the true table
        assert all(c.ok for c in run_all_checks(TR8))
        join, split = verify._CROSS["c"]
        monkeypatch.setitem(verify._CROSS, "c", (join, _scaled(split)))
        failed = [c for c in run_all_checks(TR8) if not c.ok]
        assert [c.name for c in failed] == [
            "sym_closed_form_c",
            "u2_series",
            "u3_series",
            "kernel_recombination",
        ]
        assert all(c.witness for c in failed)


def count_fractions(monkeypatch, build):
    """The number of Fractions built while build() runs."""
    count, new = [0], Fraction.__new__

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(Fraction, "__new__", counted)
        build()
    return count[0]


class TestIntegerInputs:
    """The series inputs are built from integer pairs, with no Fraction per weight."""

    def test_inputs_build_no_fraction(self, monkeypatch):
        N, order = 12, 10
        for cache in (closedform.psi, verify._w_power, verify._linear_by, verify._cross_by):
            cache.cache_clear()
        rules, from_part_pairs = [], PSeries.from_part_pairs

        def record(N, coeffs):
            rules.append(from_part_pairs(N, coeffs))
            return rules[-1]

        def build():
            for i in range(-1, 4):
                closedform.psi(i, N)
            for v in (1, 2, 3):
                for e in (1, 2, 3):
                    verify._w_power(v, e, order)
            for m in range(-1, 3):
                verify._direct_psi(m, 1, order)
            monkeypatch.setattr(PSeries, "from_part_pairs", staticmethod(record))
            assert verify.kernel_recombination(N).ok

        assert count_fractions(monkeypatch, build) == 0
        # the rules kernel_recombination builds, a, b, d, c, e, against the
        # Fraction sums
        pairs = [(k, m) for k in range(1, N) for m in range(1, N - k + 1)]
        assert rules == [
            PSeries(N, {(k, ((k, 1),)): _fraction_linear(name, k) for k in range(2, N + 1)})
            for name in "abd"
        ] + [
            PSeries(N, {(k + m, ((k, 1), (m, 1))): _fraction_cross(name, k, m) for k, m in pairs})
            for name in "ce"
        ]


    def test_the_checks_build_no_fraction(self, monkeypatch):
        # every cache emptied, so each series and weight is built in the count
        for module in (closedform, verify):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        checks = []
        assert count_fractions(monkeypatch, lambda: checks.extend(run_all_checks(12))) == 0
        assert checks and all(c.ok for c in checks)


class TestKernelRulesAtS:
    """kernel_recombination combines the rules in x; read at x -> s, each
    combination is the one built from psi_at_s and the kernels read at s."""

    @pytest.mark.parametrize("N", [TR8, 12])
    @pytest.mark.parametrize(
        "name, part", [(None, None), ("a", None), ("c", 1), ("e", 0)],
        ids=["true-table", "a", "c-split", "e-join"],
    )
    def test_rule_combinations_read_at_s(self, monkeypatch, N, name, part):
        # a perturbed weight table puts a nonzero rule into some combination
        if name in verify._LINEAR:
            monkeypatch.setitem(verify._LINEAR, name, _scaled(verify._LINEAR[name]))
        elif name is not None:
            weights = list(verify._CROSS[name])
            weights[part] = _scaled(weights[part])
            monkeypatch.setitem(verify._CROSS, name, tuple(weights))
        pw = closedform.s_powers(N)
        kernels = verify._kernel_rules(N)
        rules = verify._recombined(N, (closedform.psi(i, N) for i in range(3)), kernels)
        at_s = verify._recombined(
            N, (closedform.psi_at_s(i, N) for i in range(3)), [subst_x(k, pw) for k in kernels]
        )
        assert [subst_x(u, pw) for u in rules] == list(at_s)
        assert [u.lead_str() for u in rules] == [u.lead_str() for u in at_s]
        assert any(u.terms for u in rules) == (name is not None)

    @pytest.mark.parametrize("N", [TR8, 12])
    def test_a_perturbed_rule_keeps_its_lead_at_s(self, N):
        pw = closedform.s_powers(N)
        for i in range(-1, 3):
            for bump in (
                PSeries.term(N, Fraction(1, 5), x=4, p=((1, 2), (2, 1))),
                PSeries.term(N, -3, x=N, p=((N, 1),)),
                PSeries.term(N, 2, x=2, p=((1, 2),)) - PSeries.term(N, 7, x=2, p=((2, 1),)),
            ):
                # the perturbed rule read at s, less the true one
                gap = subst_x(closedform.psi(i, N) + bump, pw) - closedform.psi_at_s(i, N)
                assert gap.terms and gap.lead_str() == bump.lead_str()


def _perturbed(name):
    """One kernel scaled slightly off; everything else untouched."""
    scale = lambda f: (lambda *slots: f(*slots) * Fraction(13, 12))
    fields = {name: scale(getattr(DEFAULT_KERNELS, name))}
    return DEFAULT_KERNELS._replace(**fields)


class TestFaultInjection:
    @pytest.mark.parametrize("name", ["a", "b", "c", "d", "e", "psi"])
    def test_single_kernel_fault_is_caught(self, name):
        kernels = _perturbed(name)
        checks = (
            closed_form_series_checks(kernels)
            + [check_u1(kernels), check_u2(kernels), check_u3(kernels)]
        )
        failed = [c for c in checks if not c.ok]
        assert failed, f"fault in {name} went unnoticed"
        assert all(c.witness for c in failed)

    def test_u2_u3_witness_names_the_form(self, monkeypatch):
        kernels = _perturbed("c")
        assert check_u2(kernels).witness == "assembled form: w1*w2^2"
        assert check_u3(kernels).witness == "assembled form: w1*w2^2*w3^3"
        monkeypatch.setattr(verify, "_u2_rearranged", lambda: WExpr(WPoly.var(1)))
        assert check_u2().witness == "rearranged form: w1"

    def test_shared_cross_fault_is_caught(self, monkeypatch):
        # the antisymmetric difference feeds c, e and both rearranged forms;
        # the series route checks c and e against the weights alone
        cross = verify._cross
        monkeypatch.setattr(verify, "_cross", lambda j, a, b: cross(j, a, b) * Fraction(13, 12))
        checks = run_all_checks(TR8)
        assert [(c.name, c.witness) for c in checks if not c.ok] == [
            ("sym_closed_form_c", "x1*x2^2"),
            ("sym_closed_form_e", "x1*x2^2"),
            ("u2_vanishes", "rearranged form: w1*w2^2"),
            ("u3_vanishes", "rearranged form: w1*w2^2*w3^3"),
        ]
        passed = {c.name for c in checks if c.ok}
        assert {"pde_residual", "u1_series", "u2_series", "u3_series"} <= passed
        assert "kernel_recombination" in passed

    @pytest.mark.parametrize(
        "name, part, failing_u",
        [
            ("a", None, ["u1_series", "u2_series", "u3_series"]),
            ("b", None, ["u1_series", "u2_series"]),
            ("d", None, ["u1_series", "u2_series"]),
            ("c", 0, ["u2_series", "u3_series"]),
            ("c", 1, ["u2_series", "u3_series"]),
            ("e", 0, ["u2_series", "u3_series"]),
            ("e", 1, ["u2_series", "u3_series"]),
        ],
        ids=["a", "b", "d", "c-join", "c-split", "e-join", "e-split"],
    )
    def test_kernel_weight_fault_is_caught(self, monkeypatch, name, part, failing_u):
        # one weight of the table scaled by 13/12: every route that reads the
        # table fails against the closed forms, the PDE residual does not move
        if part is None:
            monkeypatch.setitem(verify._LINEAR, name, _scaled(verify._LINEAR[name]))
        else:
            weights = list(verify._CROSS[name])
            weights[part] = _scaled(weights[part])
            monkeypatch.setitem(verify._CROSS, name, tuple(weights))
        checks = run_all_checks(TR8)
        failed = [c for c in checks if not c.ok]
        assert [c.name for c in failed] == [
            f"sym_closed_form_{name}",
            *failing_u,
            "kernel_recombination",
        ]
        assert all(c.witness for c in failed)
        assert (checks[0].name, checks[0].ok) == ("pde_residual", True)

    def test_one_a_weight_fault_is_caught(self, monkeypatch):
        # a_3 scaled by 13/12 in verify's one a_r rule: every check that reads
        # a weight of verify's own fails, the exact route reads none
        a_weight = verify.a_weight
        off = _scaled(a_weight)
        monkeypatch.setattr(verify, "a_weight", lambda r, j=0: (off if r == 3 else a_weight)(r, j))
        caches = (verify._linear_by, verify._cross_by)
        for cache in caches:
            cache.cache_clear()
        try:
            checks = run_all_checks(TR8)
        finally:
            for cache in caches:
                cache.cache_clear()
        failed = [c for c in checks if not c.ok]
        assert [c.name for c in failed] == [
            "pde_residual",
            *(f"sym_closed_form_{name}" for name in "abcde"),
            "psi_image_series",
            "u1_series",
            "u2_series",
            "u3_series",
            "kernel_recombination",
            "s_pdiff_identity",
            "psi_pdiff_identity",
            "g1_pdiff_identity",
        ]
        assert all(c.witness for c in failed)
        passed = {c.name for c in checks if c.ok}
        assert {"u1_vanishes", "u2_vanishes", "u3_vanishes"} <= passed

    def test_genus0_input_fault_is_caught(self, monkeypatch):
        assert f0_pdiff_axiom(TR8).ok
        bad = f0_series(TR8) + PSeries.term(TR8, 1, x=3, p=((1, 1), (2, 1)))
        monkeypatch.setattr(verify, "f0_series", lambda N: bad)
        result = f0_pdiff_axiom(TR8)
        assert not result.ok
        assert result.witness.startswith("k=1: ")

    def test_substitution_series_fault_is_caught(self, monkeypatch):
        bad = s_series(TR8) + PSeries.term(TR8, Fraction(1, 5), x=4, p=((1, 1), (2, 1)))
        monkeypatch.setattr(verify, "s_series", lambda N: bad)
        xdiff, pdiff = s_xdiff_identity(TR8), s_pdiff_identity(TR8)
        assert not xdiff.ok and xdiff.witness
        assert not pdiff.ok and pdiff.witness.startswith("k=1: ")

    def test_psi_image_fault_is_caught(self, monkeypatch):
        psi_at_s = verify.psi_at_s
        bump = PSeries.term(TR8, Fraction(1, 5), x=4, p=((1, 2), (2, 1)))
        monkeypatch.setattr(
            verify,
            "psi_at_s",
            lambda i, N: psi_at_s(i, N) + bump if i == 0 else psi_at_s(i, N),
        )
        result = psi_pdiff_identity(TR8)
        assert not result.ok
        assert result.witness.startswith("j=0, k=1: ")

    def test_psi_rule_fault_is_caught_on_the_right_sides(self, monkeypatch):
        # the pdiff right sides and the kernel combinations read the psi rules
        # in x, not psi_at_s: a bumped psi_2 rule fails the three checks that
        # read it, and nothing else moves (s and psi_at_s read closedform's own)
        rule = verify.psi
        bump = PSeries.term(TR8, Fraction(1, 5), x=4, p=((1, 2), (2, 1)))
        monkeypatch.setattr(
            verify, "psi", lambda i, N: rule(i, N) + bump if i == 2 else rule(i, N)
        )
        psi_result, g1_result = psi_pdiff_identity(TR8), g1_pdiff_identity(TR8)
        assert not psi_result.ok and psi_result.witness == "j=1, k=1: x^5*p1^2*p2"
        assert not g1_result.ok and g1_result.witness == "k=1: x^5*p1^2*p2"
        failed = [c.name for c in run_all_checks(TR8) if not c.ok]
        assert failed == ["kernel_recombination", "psi_pdiff_identity", "g1_pdiff_identity"]

    def test_genus1_forms_fault_is_caught(self, monkeypatch):
        bad = g1_defn(TR8) + PSeries.term(TR8, 1, x=2, p=((2, 1),))
        monkeypatch.setattr(verify, "g1_defn", lambda N: bad)
        failed = [c for c in run_all_checks(TR8) if not c.ok]
        assert [(c.name, c.witness) for c in failed] == [("g1_forms_agree", "x^2*p2")]

    def test_kernel_recombination_fault_is_caught(self, monkeypatch):
        # the combinations read the psi rules: a bumped psi_2 rule leaves u1
        # nonzero, led by the bump
        rule = verify.psi
        bump = PSeries.term(TR8, Fraction(1, 5), x=4, p=((1, 2), (2, 1)))
        monkeypatch.setattr(
            verify, "psi", lambda i, N: rule(i, N) + bump if i == 2 else rule(i, N)
        )
        result = kernel_recombination(TR8)
        assert not result.ok
        assert result.witness == "degree 1: x^4*p1^2*p2"

    def test_elem_sym_fault_is_caught(self, monkeypatch):
        # a wrong right side: e_2 one too large wherever it is defined
        elem_sym = verify.elem_sym
        monkeypatch.setattr(
            verify, "elem_sym", lambda lam: tuple(e + (k == 2) for k, e in enumerate(elem_sym(lam)))
        )
        result = elem_sym_extraction()
        assert not result.ok
        assert result.witness == "k=2: x^2*p1^2"

    def test_elem_sym_product_fault_is_caught(self, monkeypatch):
        # a wrong left side: exp(sum p_i/i) off by x^3 p1 p2 / 5
        exp = verify.exp
        bump = PSeries.term(TR8, Fraction(1, 5), x=3, p=((1, 1), (2, 1)))
        monkeypatch.setattr(verify, "exp", lambda f: exp(f) + bump)
        result = elem_sym_extraction()
        assert not result.ok
        assert result.witness == "k=0: x^3*p1*p2"

    def test_g1_pdiff_fault_is_caught(self, monkeypatch):
        bad = g1_closed(TR8) + PSeries.term(TR8, 1, x=2, p=((2, 1),))
        monkeypatch.setattr(verify, "g1_closed", lambda N: bad)
        result = g1_pdiff_identity(TR8)
        assert not result.ok
        assert result.witness == "k=2: x^2"

    def test_residual_fault_reports_witness(self):
        checks = run_all_checks(TR8, inject_fault=True)
        failed = [c for c in checks if not c.ok]
        assert failed and failed[0].name == "pde_residual"
        assert failed[0].witness


class TestDenominatorBound:
    def test_zero_over_too_large_a_denominator_fails(self):
        zero = WExpr(WPoly(), (6, 0, 0, 0, 0, 0))
        result = verify._first_nonzero("bound", [(None, zero)])
        assert not result.ok
        assert result.witness == "denominator bound exceeded: (6, 0, 0, 0, 0, 0)"

    def test_extra_division_by_the_difference_is_reported(self, monkeypatch):
        cross = verify._cross
        monkeypatch.setattr(verify, "_cross", lambda j, a, b: cross(j, a, b).div_diff(a, b))
        bound = "rearranged form: denominator bound exceeded"
        assert check_u2().witness == f"{bound}: (5, 5, 0, 2, 0, 0)"
        assert check_u3().witness == f"{bound}: (5, 5, 5, 2, 2, 2)"


class TestIdentities:
    def test_substitution_series(self):
        assert s_xdiff_identity(TR8).ok
        assert s_pdiff_identity(TR8).ok
        assert psi_pdiff_identity(TR8).ok

    def test_g1_derivatives(self):
        assert g1_xdiff_identity(TR8).ok
        assert g1_pdiff_identity(TR8).ok

    def test_g1_derivative_check_catches_fault(self, monkeypatch):
        bad = g1_closed(TR8) + PSeries.term(TR8, 1, x=2, p=((2, 1),))
        monkeypatch.setattr(verify, "g1_closed", lambda N: bad)
        result = g1_xdiff_identity(TR8)
        assert not result.ok
        assert result.witness == "x^2*p2"

    def test_elem_sym_extraction(self):
        assert elem_sym_extraction().ok


class TestReport:
    def test_all_pass(self):
        checks = run_all_checks(TR8)
        assert all(c.ok for c in checks)
        assert [c.name for c in checks] == [
            "pde_residual",
            "g1_forms_agree",
            "sym_closed_form_a",
            "sym_closed_form_b",
            "sym_closed_form_c",
            "sym_closed_form_d",
            "sym_closed_form_e",
            "psi_image_series",
            "u1_vanishes",
            "u2_vanishes",
            "u3_vanishes",
            "u1_series",
            "u2_series",
            "u3_series",
            "kernel_recombination",
            "elem_sym_extraction",
            "s_xdiff_identity",
            "s_pdiff_identity",
            "psi_pdiff_identity",
            "g1_xdiff_identity",
            "g1_pdiff_identity",
            "f0_pdiff_axiom",
        ]

    def test_every_check_takes_only_N(self):
        # besides N, only the kernel seam of the vanishing checks and the g1
        # that inject_fault perturbs; every other input is read by name
        extra = {"residual_T": {"g1"}, "closed_form_series_checks": {"kernels"}}
        extra |= {f"check_u{i}": {"kernels"} for i in (1, 2, 3)}
        called = [
            name
            for name in run_all_checks.__code__.co_names
            if not name.startswith("_")
            and inspect.isfunction(f := getattr(verify, name, None))
            and f.__module__ == verify.__name__
        ]
        assert len(called) == 14 and extra.keys() <= set(called)
        for name in called:
            params = set(inspect.signature(getattr(verify, name)).parameters)
            assert params <= {"N"} | extra.get(name, set()), name

    def test_a_failed_check_is_false(self):
        # a CheckResult is a tuple, which is true whatever its fields hold
        assert not CheckResult("x", False)
        assert CheckResult("x", True)

    def test_report_schema(self):
        checks = run_all_checks(TR8, inject_fault=True)
        obj = report_obj(checks, config={"N": 8})
        assert obj["config"] == {"N": 8}
        for entry in obj["checks"]:
            assert entry["status"] in ("pass", "fail")
            if entry["status"] == "fail":
                assert "witness" in entry
