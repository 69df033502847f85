"""The identity checker: PDE residual, polynomial vanishing, series identities."""

from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hurwitz import (
    CheckResult,
    PSeries,
    TruncationMismatch,
    build_ABCDE,
    check_u1,
    check_u2,
    check_u3,
    g1_closed,
    g1_defn,
    residual_T,
    run_all_checks,
    verify,
)
from hurwitz.closedform import f0_series, s_series
from hurwitz.partitions import a_coeff
from hurwitz.series import fraction_view
from hurwitz.verify import (
    DEFAULT_KERNELS,
    WExpr,
    WPoly,
    closed_form_series_checks,
    kernel_recombination,
    elem_sym_extraction,
    f0_pdiff_axiom,
    g1_pdiff_identity,
    g1_xdiff_identity,
    psi_pdiff_identity,
    report_obj,
    s_pdiff_identity,
    s_xdiff_identity,
    series_u_checks,
    sym_psi,
    wd,
)

from conftest import fraction_sum, is_canonical

TR8 = 8


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
        assert (lhs - WExpr(WPoly.var(1))).is_zero

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
        series = WPoly.univariate([1, 1], 1, 8)
        with pytest.raises(TruncationMismatch):
            series + WPoly.var(1)
        with pytest.raises(TruncationMismatch):
            series * WPoly.univariate([1, 1], 2, 10)
        with pytest.raises(TruncationMismatch):
            series == WPoly.univariate([1, 1], 1, 10)

    def test_truncation_is_per_variable(self):
        # (x1 + x1^2) x2 squared, with x1^3 and x1^4 beyond order 2
        f = WPoly.univariate([0, 1, 1], 1, 2) * WPoly.univariate([0, 1], 2, 2)
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

    def test_cancelling_and_overflowing_terms_are_not_stored(self):
        # (1 + w1)(1 - w1) = 1 - w1^2; at order 1 the w1^2 term is dropped too
        for order, want in ((None, {(0, 0, 0): 1, (2, 0, 0): -1}), (1, {(0, 0, 0): 1})):
            f = WPoly({(0, 0, 0): 1, (1, 0, 0): 1}, order)
            g = WPoly({(0, 0, 0): 1, (1, 0, 0): -1}, order)
            assert (f * g).terms == want

    def test_witness_names_the_variables(self):
        assert (WPoly.var(1) * WPoly.var(2) * WPoly.var(2)).lead_str() == "w1*w2^2"
        assert WPoly({(1, 2, 0): 1}, 3).lead_str() == "x1*x2^2"


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

    def test_empty_is_zero(self):
        for order in (None, 3):
            got = WPoly.total(order, [])
            assert got == WPoly(N=order)
            assert is_canonical(got)

    def test_mixed_truncations_rejected(self):
        with pytest.raises(TruncationMismatch):
            WPoly.total(None, [WPoly.var(1), WPoly.univariate([1, 1], 1, 8)])
        with pytest.raises(TruncationMismatch):
            WPoly.total(8, [WPoly.univariate([1, 1], 1, 10)])


class TestVanishing:
    def test_u1(self):
        assert check_u1().ok

    def test_u2(self):
        assert check_u2().ok

    def test_u3(self):
        assert check_u3().ok

    def test_build_forms_are_nonzero(self):
        for expr in build_ABCDE():
            assert not expr.is_zero

    def test_series_routes(self):
        for result in series_u_checks(order=8):
            assert result.ok, result

    def test_kernels_recombine_in_main_ring(self):
        assert kernel_recombination(TR8).ok

    def test_closed_forms_match_series(self):
        for result in closed_form_series_checks(order=10):
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


def _fraction_linear(name, k):
    """[y_k] of a one-slot kernel, summed term by term in Fractions."""
    w = verify._LINEAR[name]
    return sum((a_coeff(i) * a_coeff(k - i) * w(i, k - i) for i in range(1, k)), Fraction(0))


def _fraction_cross(name, k, m):
    """[y_k y_m] of a two-slot kernel, summed term by term in Fractions."""
    join, split = verify._CROSS[name]
    joined = sum(
        (a_coeff(i) * a_coeff(k - i) * join(i, k - i, m) for i in range(1, k)), Fraction(0)
    )
    return a_coeff(m) * joined - a_coeff(k + m) * split(k, m)


class TestKernelWeights:
    def test_integer_sums_equal_fraction_sums(self):
        for name in verify._LINEAR:
            for k in range(14):
                assert verify._linear_coeff(name, k) == _fraction_linear(name, k), (name, k)
        for name in verify._CROSS:
            for k in range(1, 14):
                for m in range(1, 13):
                    got = verify._cross_coeff(name, k, m)
                    assert got == _fraction_cross(name, k, m), (name, k, m)

    def test_a_patched_weight_is_not_served_from_the_cache(self, monkeypatch):
        # the same fault as test_kernel_weight_fault_is_caught[c-split], but
        # after a run has filled the weight caches with the true table
        assert all(c.ok for c in run_all_checks(TR8))
        join, split = verify._CROSS["c"]
        monkeypatch.setitem(
            verify._CROSS, "c", (join, lambda *args: split(*args) * Fraction(13, 12))
        )
        failed = [c for c in run_all_checks(TR8) if not c.ok]
        assert [c.name for c in failed] == [
            "sym_closed_form_c",
            "u2_series",
            "u3_series",
            "kernel_recombination",
        ]
        assert all(c.witness for c in failed)


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
            closed_form_series_checks(kernels, order=8)
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
        def scaled(w):
            return lambda *args: w(*args) * Fraction(13, 12)

        if part is None:
            monkeypatch.setitem(verify._LINEAR, name, scaled(verify._LINEAR[name]))
        else:
            weights = list(verify._CROSS[name])
            weights[part] = scaled(weights[part])
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

    def test_genus0_input_fault_is_caught(self):
        assert f0_pdiff_axiom(TR8, f0_series(TR8)).ok
        bad = f0_series(TR8) + PSeries.term(TR8, 1, x=3, p=((1, 1), (2, 1)))
        result = f0_pdiff_axiom(TR8, bad)
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

    def test_genus1_forms_fault_is_caught(self, monkeypatch):
        bad = g1_defn(TR8) + PSeries.term(TR8, 1, x=2, p=((2, 1),))
        monkeypatch.setattr(verify, "g1_defn", lambda N: bad)
        failed = [c for c in run_all_checks(TR8) if not c.ok]
        assert [(c.name, c.witness) for c in failed] == [("g1_forms_agree", "x^2*p2")]

    def test_kernel_recombination_fault_is_caught(self, monkeypatch):
        psi_at_s = verify.psi_at_s
        bump = PSeries.term(TR8, Fraction(1, 5), x=4, p=((1, 2), (2, 1)))
        monkeypatch.setattr(
            verify,
            "psi_at_s",
            lambda i, N: psi_at_s(i, N) + bump if i == 2 else psi_at_s(i, N),
        )
        result = kernel_recombination(TR8)
        assert not result.ok
        assert result.witness == "degree 1: x^4*p1^2*p2"

    def test_elem_sym_fault_is_caught(self, monkeypatch):
        elem_sym = verify.elem_sym
        monkeypatch.setattr(
            verify, "elem_sym", lambda lam: tuple(e + (k == 2) for k, e in enumerate(elem_sym(lam)))
        )
        result = elem_sym_extraction(max_n=8)
        assert not result.ok
        assert result.witness == "lambda=(1,1), k=2: got 1, want 2"

    def test_g1_pdiff_fault_is_caught(self):
        bad = g1_closed(TR8) + PSeries.term(TR8, 1, x=2, p=((2, 1),))
        result = g1_pdiff_identity(TR8, bad)
        assert not result.ok
        assert result.witness == "k=2: x^2"

    def test_residual_fault_reports_witness(self):
        checks = run_all_checks(inject_fault=True)
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

    def test_g1_derivative_check_catches_fault(self):
        bad = g1_closed(TR8) + PSeries.term(TR8, 1, x=2, p=((2, 1),))
        result = g1_xdiff_identity(TR8, bad)
        assert not result.ok
        assert result.witness == "x^2*p2"

    def test_elem_sym_extraction(self):
        assert elem_sym_extraction(max_n=8).ok


class TestReport:
    def test_all_pass(self):
        checks = run_all_checks()
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

    def test_a_failed_check_is_false(self):
        # a CheckResult is a tuple, which is true whatever its fields hold
        assert not CheckResult("x", False)
        assert CheckResult("x", True)

    def test_report_schema(self):
        checks = run_all_checks(inject_fault=True)
        obj = report_obj(checks, config={"N": 8})
        assert obj["config"] == {"N": 8}
        for entry in obj["checks"]:
            assert entry["status"] in ("pass", "fail")
            if entry["status"] == "fail":
                assert "witness" in entry
