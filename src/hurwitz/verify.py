"""Machine checks for the identity chain behind the genus-1 Hurwitz formula.

Three layers, each exact:

* residual_T -- the genus-1 series must satisfy a linear first-order PDE
  induced by the cut-and-join evolution; the residual of that PDE, applied
  to the closed form of the series, must vanish in the truncated ring.

* the quadratic-kernel checks -- after substituting y_k = p_k s^k, the PDE
  residual splits into homogeneous pieces U_1, U_2, U_3 of degrees 1..3 in
  the y's.  The symmetrization ``y_{a_1}...y_{a_i} -> sum over S_i of
  x_{pi(1)}^{a_1}...x_{pi(i)}^{a_i}`` is injective on homogeneous pieces,
  and the symmetrized images are rational expressions in the tree function
  atoms w_i = w(x_i) and their Euler derivatives.  Substituting the closed
  forms w' = w/(1-w), w'' = w/(1-w)^3, w''' = (w+2w^2)/(1-w)^5 and clearing
  the denominators (1-w_i)^5 and (w_i - w_j) must leave the zero polynomial.
  This module keeps every such expression as an exact fraction of trivariate
  polynomials with the denominator held in factored form, so the final check
  is a literal polynomial zero test.

* series cross-checks -- every symmetrized closed form above, and the
  U-combinations themselves, are independently expanded as truncated series
  using only the weights a_r = r^r/(r-1)! and the explicit tree-function
  coefficients n^(n-1)/n!.  These catch transcription slips in the exact
  route.

Both routes compute in ``WPoly``, the three-variable monomial format of the
package's one exact ring class, ``series.ExactRing`` (``PSeries`` is the
other format): with no cut (N None) it is the exact polynomial ring in
w1, w2, w3; with a cut N it is the series ring in x1, x2, x3 truncated per
variable.  Every check of either ring reports its lead monomial as the
witness through ``ExactRing.lead_str``.  Each U-combination is
written once, over a ``KernelForms``, and evaluated on the exact closed forms
and on the weights-only expansions alike.  The exact route checks U_2 and
U_3 twice more, in a compact rearranged form; a discrepancy would fail one
of them rather than being silently reconciled.

The genus-0 input dF_0/dp_k, taken as given in ``closedform``, is certified
by ``f0_pdiff_axiom`` against the p-derivatives of the genus-0 series built
from the explicit formula.
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import factorial
from typing import Callable, Iterable, Mapping, Sequence

from .closedform import (
    f0_pdiff,
    f0_series,
    g1_closed,
    g1_defn,
    psi_at_s,
    s_powers,
    s_series,
)
from .partitions import a_coeff, elem_sym, partitions_of, theta
from .series import ExactRing, PSeries, _integer_form, _reduce, exp, inv_one_minus

_ZERO = Fraction(0)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification step; witness names the first offender."""

    name: str
    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _zero_check(name: str, f: ExactRing) -> CheckResult:
    """Pass if f is zero, else fail with its lead monomial as the witness."""
    return CheckResult(name, True) if f.is_zero else CheckResult(name, False, f.lead_str())


def _first_nonzero(name: str, labelled: Iterable[tuple[str, ExactRing]]) -> CheckResult:
    """Fail at the first nonzero series, witness "<label>: <lead monomial>".

    labelled is consumed lazily, so nothing after a failure is computed.
    """
    for label, f in labelled:
        if not f.is_zero:
            return CheckResult(name, False, f"{label}: {f.lead_str()}")
    return CheckResult(name, True)


# ---------------------------------------------------------------------------
# The exact ring in three variables, untruncated or truncated
# ---------------------------------------------------------------------------

Mono = tuple[int, int, int]

# The cap of the untruncated ring, so that one multiply loop with inline
# comparisons serves both the exact and the truncated WPoly.
_NO_CAP = sys.maxsize


def _mono(*powers: tuple[int, int]) -> Mono:
    """The exponent triple of prod v^d over the (v, d) pairs given."""
    exps = [0, 0, 0]
    for v, d in powers:
        exps[v - 1] += d
    return tuple(exps)


class WPoly(ExactRing):
    """Sparse exact polynomial in three variables: ``ExactRing`` keyed by exponent triple.

    With N None it is a polynomial in w1, w2, w3.  With an integer N it is a
    series in x1, x2, x3 that drops every monomial of degree above N in some
    variable.
    """

    __slots__ = ()

    def __init__(
        self,
        terms: Mapping[Mono, Fraction | int] | None = None,
        N: int | None = None,
    ):
        self.N = N
        cap = _NO_CAP if N is None else N
        self.den, self.terms = _integer_form(terms or {}, lambda mono: max(mono) <= cap)

    # A code object of its own for the benchmark probe verify.WPoly.mul, as
    # for the probed operations of PSeries.
    def __mul__(self, other: "WPoly | Fraction | int") -> "WPoly":
        return ExactRing.__mul__(self, other)

    __rmul__ = __mul__

    @staticmethod
    def const(c: Fraction | int, N: int | None = None) -> "WPoly":
        return WPoly({(0, 0, 0): c}, N)

    @staticmethod
    def var(v: int) -> "WPoly":
        return WPoly({_mono((v, 1)): 1})

    @staticmethod
    def univariate(coeffs: Sequence[Fraction], v: int, N: int) -> "WPoly":
        """sum_d coeffs[d] x_v^d, cut at N."""
        return WPoly({_mono((v, d)): c for d, c in enumerate(coeffs)}, N)

    def _products(self, other: "WPoly") -> dict[Mono, int]:
        L = _NO_CAP if self.N is None else self.N
        B = other.terms.items()
        acc: dict[Mono, int] = {}
        for (a1, a2, a3), a in self.terms.items():
            for (b1, b2, b3), b in B:
                e1, e2, e3 = a1 + b1, a2 + b2, a3 + b3
                if e1 > L or e2 > L or e3 > L:
                    continue
                key = (e1, e2, e3)
                acc[key] = acc.get(key, 0) + a * b
        return acc

    def _mono_str(self, mono: Mono) -> str:
        name = "w" if self.N is None else "x"
        bits = [f"{name}{v}" + (f"^{e}" if e > 1 else "") for v, e in enumerate(mono, 1) if e]
        return "*".join(bits) if bits else "1"


# ---------------------------------------------------------------------------
# Fractions over the permitted atoms
# ---------------------------------------------------------------------------

# Denominator atoms, in fixed order: (1-w1), (1-w2), (1-w3), then the
# pairwise differences (w1-w2), (w2-w3), (w1-w3).
_ATOMS: tuple[WPoly, ...] = (
    WPoly.const(1) - WPoly.var(1),
    WPoly.const(1) - WPoly.var(2),
    WPoly.const(1) - WPoly.var(3),
    WPoly.var(1) - WPoly.var(2),
    WPoly.var(2) - WPoly.var(3),
    WPoly.var(1) - WPoly.var(3),
)
_DIFF_SLOT = {(1, 2): 3, (2, 3): 4, (1, 3): 5}

# Largest denominator the checks may accumulate: the closed forms carry at
# most (1-w_i)^5 and a first power of each difference.  Anything beyond this
# would mean the clearing prescription is wrong, so it is checked too.
_DEN_BOUND = (5, 5, 5, 1, 1, 1)


# `verify --N 16`: 23 entries.
@lru_cache(maxsize=128)
def _atom_power(idx: int, e: int) -> WPoly:
    if e == 0:
        return WPoly.const(1)
    return _atom_power(idx, e - 1) * _ATOMS[idx]


class WExpr:
    """Fraction num / prod(atom^e) with the denominator kept factored.

    Division is only ever by the atoms above, so expressions stay inside
    the fraction field the closed forms live in and the final zero test
    reduces to the numerator polynomial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: WPoly, den: tuple[int, ...] = (0, 0, 0, 0, 0, 0)):
        self.num = num
        self.den = den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _lift(self, target: tuple[int, ...]) -> WPoly:
        num = self.num
        for idx in range(6):
            gap = target[idx] - self.den[idx]
            if gap:
                num = num * _atom_power(idx, gap)
        return num

    def __add__(self, other: "WExpr") -> "WExpr":
        target = tuple(max(a, b) for a, b in zip(self.den, other.den))
        return WExpr(self._lift(target) + other._lift(target), target)

    def __sub__(self, other: "WExpr") -> "WExpr":
        target = tuple(max(a, b) for a, b in zip(self.den, other.den))
        return WExpr(self._lift(target) - other._lift(target), target)

    def __neg__(self) -> "WExpr":
        return WExpr(-self.num, self.den)

    def __mul__(self, other: "WExpr | Fraction | int") -> "WExpr":
        if isinstance(other, (int, float, Fraction)):
            return WExpr(self.num * other, self.den)
        return WExpr(
            self.num * other.num,
            tuple(a + b for a, b in zip(self.den, other.den)),
        )

    __rmul__ = __mul__

    def div_diff(self, a: int, b: int) -> "WExpr":
        """Divide by (w_a - w_b); swapped indices flip the sign."""
        if a < b:
            slot, num = _DIFF_SLOT[(a, b)], self.num
        else:
            slot, num = _DIFF_SLOT[(b, a)], -self.num
        den = list(self.den)
        den[slot] += 1
        return WExpr(num, tuple(den))


def _wvar(v: int) -> WExpr:
    return WExpr(WPoly.var(v))


def _one_minus_w(v: int) -> WExpr:
    return WExpr(_ATOMS[v - 1])


def wd(v: int, j: int) -> WExpr:
    """The j-th Euler derivative of the tree function at slot v, in closed form."""
    w = WPoly.var(v)
    den = [0, 0, 0, 0, 0, 0]
    if j == 0:
        return WExpr(w)
    if j == 1:
        den[v - 1] = 1
        return WExpr(w, tuple(den))
    if j == 2:
        den[v - 1] = 3
        return WExpr(w, tuple(den))
    if j == 3:
        den[v - 1] = 5
        return WExpr(w + w * w * 2, tuple(den))
    raise ValueError(f"no closed form stored for derivative order {j}")


def sym_psi(m: int, v: int) -> WExpr:
    """Symmetrized image of psi_m at one slot: the (m+1)-st tree derivative."""
    if m < -1:
        raise ValueError("stored images cover m >= -1")
    return wd(v, m + 1)


def sym_a_form(v: int) -> WExpr:
    return (_one_minus_w(v) * wd(v, 3) + _wvar(v) * wd(v, 2) - wd(v, 1)) * Fraction(1, 12)


def sym_b_form(v: int) -> WExpr:
    return wd(v, 3) * _wvar(v)


def sym_c_form(v1: int, v2: int) -> WExpr:
    cross = wd(v1, 3) * wd(v2, 1) - wd(v1, 1) * wd(v2, 3)
    return -(wd(v1, 3) * wd(v2, 1)) - wd(v1, 1) * wd(v2, 3) - cross.div_diff(v1, v2)


def sym_d_form(v: int) -> WExpr:
    return wd(v, 2) * _wvar(v)


def sym_e_form(v1: int, v2: int) -> WExpr:
    cross = wd(v1, 2) * wd(v2, 1) - wd(v1, 1) * wd(v2, 2)
    return -(wd(v1, 2) * wd(v2, 1)) - wd(v1, 1) * wd(v2, 2) - cross.div_diff(v1, v2)


# A symmetrized image: an exact closed form or a truncated expansion.
Image = WExpr | WPoly


@dataclass(frozen=True)
class KernelForms:
    """The symmetrized images the U-combinations are built from, by slot.

    a, b, d take one slot, c and e two, and psi(m, v) is the image of psi_m.
    DEFAULT_KERNELS holds the exact closed forms (WExpr); the series route
    fills the same fields with truncated weights-only expansions (WPoly).
    """

    a: Callable[[int], Image]
    b: Callable[[int], Image]
    c: Callable[[int, int], Image]
    d: Callable[[int], Image]
    e: Callable[[int, int], Image]
    psi: Callable[[int, int], Image] = sym_psi


DEFAULT_KERNELS = KernelForms(sym_a_form, sym_b_form, sym_c_form, sym_d_form, sym_e_form)


def build_ABCDE(kernels: KernelForms = DEFAULT_KERNELS) -> tuple[Image, ...]:
    """The five kernel images at the canonical slots (1) and (1, 2)."""
    return (
        kernels.a(1),
        kernels.b(1),
        kernels.c(1, 2),
        kernels.d(1),
        kernels.e(1, 2),
    )


# -- the degree-1..3 vanishing combinations, for either route ---------------


def _u1_expr(k: KernelForms) -> Image:
    return k.psi(2, 1) - k.psi(0, 1) - k.a(1) * 12 - k.b(1) + k.d(1)


def _pair(f: Callable[[int], Image], g: Callable[[int], Image]) -> Image:
    """Two-slot symmetrization of a product of two degree-1 series."""
    return f(1) * g(2) + f(2) * g(1)


def _u2_assembled(k: KernelForms) -> Image:
    psi0, psi1, psi2 = (partial(k.psi, m) for m in range(3))
    return (
        _pair(psi0, psi1)
        + _pair(psi0, psi2)
        + _pair(psi1, k.a) * 24
        + _pair(psi1, k.b)
        + k.c(1, 2)
        - _pair(psi1, k.d)
        - _pair(psi2, k.d)
        - k.e(1, 2)
    )


def _u3_assembled(k: KernelForms) -> Image:
    terms = [
        k.psi(1, p1) * k.psi(1, p2) * k.a(p3) * -12
        for p1, p2, p3 in itertools.permutations((1, 2, 3))
    ]
    for t, (va, vb) in ((1, (2, 3)), (2, (1, 3)), (3, (1, 2))):
        terms.append(-(k.psi(1, t) * k.c(va, vb)))
        terms.append((k.psi(1, t) + k.psi(2, t)) * k.e(va, vb))
    return reduce(operator.add, terms)


# -- the exact route ----------------------------------------------------------


def _u2_rearranged() -> WExpr:
    two_minus = WExpr(WPoly.const(2) - WPoly.var(1) - WPoly.var(2))
    w_sum = WExpr(WPoly.var(1) + WPoly.var(2))
    cross31 = wd(1, 3) * wd(2, 1) - wd(1, 1) * wd(2, 3)
    cross21 = wd(1, 2) * wd(2, 1) - wd(1, 1) * wd(2, 2)
    return (
        (wd(1, 2) * wd(2, 3) + wd(1, 3) * wd(2, 2)) * two_minus
        + wd(1, 2) * wd(2, 2) * w_sum
        - cross31.div_diff(1, 2)
        + cross21.div_diff(1, 2)
    )


def _u3_rearranged() -> WExpr:
    line1 = (
        wd(1, 2) * (wd(2, 3) * wd(3, 1) - wd(2, 1) * wd(3, 3))
        - (wd(1, 2) + wd(1, 3)) * (wd(2, 2) * wd(3, 1) - wd(2, 1) * wd(3, 2))
    ).div_diff(2, 3)
    line2 = (
        wd(2, 2) * (wd(1, 3) * wd(3, 1) - wd(1, 1) * wd(3, 3))
        - (wd(2, 2) + wd(2, 3)) * (wd(1, 2) * wd(3, 1) - wd(1, 1) * wd(3, 2))
    ).div_diff(1, 3)
    line3 = (
        wd(3, 2) * (wd(1, 3) * wd(2, 1) - wd(1, 1) * wd(2, 3))
        - (wd(3, 2) + wd(3, 3)) * (wd(1, 2) * wd(2, 1) - wd(1, 1) * wd(2, 2))
    ).div_diff(1, 2)
    line4 = (
        wd(1, 2) * wd(2, 2) * wd(3, 3) * _one_minus_w(3)
        + wd(1, 2) * wd(3, 2) * wd(2, 3) * _one_minus_w(2)
        + wd(2, 2) * wd(3, 2) * wd(1, 3) * _one_minus_w(1)
    ) * (-2)
    line5 = wd(1, 2) * wd(2, 2) * wd(3, 2) * WExpr(
        WPoly.var(1) + WPoly.var(2) + WPoly.var(3)
    ) * (-2)
    return line1 + line2 + line3 + line4 + line5


def _wexpr_zero_check(name: str, expr: WExpr) -> CheckResult:
    if any(e > bound for e, bound in zip(expr.den, _DEN_BOUND)):
        return CheckResult(name, False, f"denominator bound exceeded: {expr.den}")
    return _zero_check(name, expr.num)


def check_u1(kernels: KernelForms = DEFAULT_KERNELS) -> CheckResult:
    """Degree-1 vanishing, exactly as a polynomial after clearing."""
    return _wexpr_zero_check("u1_vanishes", _u1_expr(kernels))


def _both_forms_vanish(name: str, rearranged: WExpr, assembled: WExpr) -> CheckResult:
    """The witness names the first form, rearranged or assembled, that is nonzero."""
    for label, expr in (("rearranged form", rearranged), ("assembled form", assembled)):
        res = _wexpr_zero_check(name, expr)
        if not res.ok:
            return CheckResult(name, False, f"{label}: {res.witness}")
    return CheckResult(name, True)


def check_u2(kernels: KernelForms = DEFAULT_KERNELS) -> CheckResult:
    """Degree-2 vanishing: rearranged form and direct assembly, both exact."""
    return _both_forms_vanish("u2_vanishes", _u2_rearranged(), _u2_assembled(kernels))


def check_u3(kernels: KernelForms = DEFAULT_KERNELS) -> CheckResult:
    """Degree-3 vanishing: rearranged form and direct assembly, both exact."""
    return _both_forms_vanish("u3_vanishes", _u3_rearranged(), _u3_assembled(kernels))


# ---------------------------------------------------------------------------
# The series route: truncated expansions in x1, x2, x3
# ---------------------------------------------------------------------------


# One entry per order (`verify --N 16`: 1).
@lru_cache(maxsize=16)
def _tree_coeffs(order: int) -> tuple[Fraction, ...]:
    """[x^n] of the tree function, from the explicit formula n^(n-1)/n!."""
    return (_ZERO,) + tuple(
        Fraction(n ** (n - 1), factorial(n)) for n in range(1, order + 1)
    )


# `verify --N 16`: 2 entries.
@lru_cache(maxsize=64)
def _w_series(v: int, j: int, order: int) -> WPoly:
    """j-th Euler derivative of the tree function at slot v, as a series."""
    base = _tree_coeffs(order)
    coeffs = [c * Fraction(n) ** j if n else _ZERO for n, c in enumerate(base)]
    return WPoly.univariate(coeffs, v, order)


def _at_tree(p: WPoly, order: int) -> WPoly:
    """The polynomial p(w1, w2, w3) with each w_v set to the tree series in x_v."""
    total = WPoly(N=order)
    for mono, c in p.terms.items():
        term = WPoly.const(c, order)
        for v, e in enumerate(mono, 1):
            for _ in range(e):
                term = term * _w_series(v, 0, order)
        total = total + term
    # the loop summed p's numerators; divide by its denominator once
    return WPoly._of(order, *_reduce(total.den * p.den, total.terms))


# `verify --N 16`: 6 entries.
@lru_cache(maxsize=64)
def _wexpr_den_series(den: tuple[int, ...], order: int) -> WPoly:
    out = WPoly.const(1, order)
    for idx, e in enumerate(den):
        if e:
            out = out * _at_tree(_atom_power(idx, e), order)
    return out


def _wexpr_matches_series(name: str, expr: WExpr, direct: WPoly) -> CheckResult:
    """Closed form equals independent expansion: num = direct * den as series."""
    order = direct.N
    lhs = _at_tree(expr.num, order)
    rhs = direct * _wexpr_den_series(expr.den, order)
    return _zero_check(name, lhs - rhs)


# -- direct (weights-only) expansions of the symmetrized images -------------


def _direct_psi(m: int, v: int, order: int) -> WPoly:
    coeffs = [_ZERO] + [Fraction(r) ** (m - 1) * a_coeff(r) for r in range(1, order + 1)]
    return WPoly.univariate(coeffs, v, order)


def _direct_linear(
    v: int, order: int, weight: Callable[[int, int], Fraction]
) -> WPoly:
    """A one-slot kernel: sum over k of x_v^k sum_{i+j=k} a_i a_j weight(i, j)."""
    coeffs = [_ZERO, _ZERO] + [
        sum(a_coeff(i) * a_coeff(k - i) * weight(i, k - i) for i in range(1, k))
        for k in range(2, order + 1)
    ]
    return WPoly.univariate(coeffs, v, order)


def _direct_a(v: int, order: int) -> WPoly:
    return _direct_linear(v, order, lambda i, j: Fraction(1, i + j))


def _direct_b(v: int, order: int) -> WPoly:
    return _direct_linear(v, order, lambda i, j: Fraction(i, j * j))


def _direct_d(v: int, order: int) -> WPoly:
    return _direct_linear(v, order, lambda i, j: Fraction(1, j * j))


def _direct_cross(
    v1: int,
    v2: int,
    order: int,
    join: Callable[[int, int, int], Fraction],
    split: Callable[[int, int], Fraction],
) -> WPoly:
    """A two-slot kernel, summed over both assignments (s, t) of its slots.

    Each assignment contributes a_i a_j a_m join(i, j, m) x_s^(i+j) x_t^m
    and -a_(i+j) split(i, j) x_s^i x_t^j.
    """
    terms: dict[Mono, Fraction] = {}
    for s, t in ((v1, v2), (v2, v1)):
        for k in range(2, order + 1):  # k = i + j on slot s
            for i in range(1, k):
                j = k - i
                for m in range(1, order + 1):
                    mono = _mono((s, k), (t, m))
                    c = a_coeff(i) * a_coeff(j) * a_coeff(m) * join(i, j, m)
                    terms[mono] = terms.get(mono, _ZERO) + c
        for i in range(1, order + 1):
            for j in range(1, order + 1):
                mono = _mono((s, i), (t, j))
                terms[mono] = terms.get(mono, _ZERO) - split(i, j) * a_coeff(i + j)
    return WPoly(terms, order)


def _direct_c(v1: int, v2: int, order: int) -> WPoly:
    join = lambda i, j, m: Fraction(i, j * (j + m))
    return _direct_cross(v1, v2, order, join, lambda i, j: Fraction(i + j, 2))


def _direct_e(v1: int, v2: int, order: int) -> WPoly:
    join = lambda i, j, m: Fraction(1, j * (j + m))
    return _direct_cross(v1, v2, order, join, lambda i, j: Fraction(1, 2))


def _renamed(p: WPoly, *slots: int) -> WPoly:
    """p in the variables 1, 2, ... only, with variable k renamed to slots[k-1]."""
    return WPoly._of(p.N, p.den, {_mono(*zip(slots, mono)): c for mono, c in p.terms.items()})


def _series_kernels(order: int) -> KernelForms:
    """The weights-only expansions, truncated at order, as kernel forms.

    Each form is expanded once, at slot 1 or at slots (1, 2); every other
    slot renames the variables of that expansion.
    """
    a, b, d = (f(1, order) for f in (_direct_a, _direct_b, _direct_d))
    c, e = (f(1, 2, order) for f in (_direct_c, _direct_e))
    psi = {m: _direct_psi(m, 1, order) for m in range(-1, 3)}
    return KernelForms(
        *(partial(_renamed, p) for p in (a, b, c, d, e)), lambda m, v: _renamed(psi[m], v)
    )


def closed_form_series_checks(
    kernels: KernelForms = DEFAULT_KERNELS, order: int = 10
) -> list[CheckResult]:
    """Each symmetrized closed form against its weights-only expansion."""
    direct = _series_kernels(order)
    checks = [
        _wexpr_matches_series(f"sym_closed_form_{name}", expr, series)
        for name, expr, series in zip("abcde", build_ABCDE(kernels), build_ABCDE(direct))
    ]
    for m in range(-1, 3):
        res = _wexpr_matches_series("psi_image_series", kernels.psi(m, 1), direct.psi(m, 1))
        if not res.ok:
            psi = CheckResult("psi_image_series", False, f"index {m}: {res.witness}")
            break
    else:
        psi = CheckResult("psi_image_series", True)
    return checks + [psi]


def series_u_checks(order: int = 8) -> list[CheckResult]:
    """The three vanishing combinations, evaluated on the weights-only expansions."""
    direct = _series_kernels(order)
    return [
        _zero_check("u1_series", _u1_expr(direct)),
        _zero_check("u2_series", _u2_assembled(direct)),
        _zero_check("u3_series", _u3_assembled(direct)),
    ]


# ---------------------------------------------------------------------------
# The PDE residual and the supporting series identities
# ---------------------------------------------------------------------------


def residual_T(N: int, g1: PSeries | None = None) -> PSeries:
    """Residual of the genus-1 PDE applied to g1 (closed form by default).

    The operator is the Euler part x d/dx + sum p_i d/dp_i minus the join
    transfer through the genus-0 derivatives minus half the cut operator,
    and the inhomogeneity is half the join of the genus-0 second derivatives.
    Identically zero when g1 is the genus-1 series.
    """
    if g1 is None:
        g1 = g1_closed(N)
    dg = {j: g1.pdiff(j) for j in range(1, N + 1)}
    acc = g1.xdiff()
    for i in range(1, N + 1):
        if not dg[i].is_zero:
            acc = acc + dg[i].shift(1, p=((i, 1),))
    df0 = {i: f0_pdiff(i, N) for i in range(1, N + 1)}
    for k in range(2, N + 1):
        for i in range(1, k):
            j = k - i
            if df0[i].is_zero or dg[j].is_zero:
                continue
            acc = acc - (df0[i] * dg[j]).shift(i * j, p=((k, 1),))
    for k in range(2, N + 1):
        if dg[k].is_zero:
            continue
        for i in range(1, k):
            acc = acc - dg[k].shift(Fraction(k, 2), p=((i, 1), (k - i, 1)))
    pw = s_powers(N)
    for k in range(2, N + 1):
        coef = sum((a_coeff(i) * a_coeff(k - i) for i in range(1, k)), _ZERO)
        acc = acc - pw[k].shift(coef / (2 * k), p=((k, 1),))
    return acc


def kernel_recombination(N: int) -> CheckResult:
    """The three kernel combinations vanish when rebuilt in the main ring.

    Each quadratic kernel is re-expanded with y_k = p_k s^k as an honest
    series in x and p and combined exactly as in the degree-split of the
    PDE residual; all three combinations must be the zero series.  A third
    route through the kernel definitions, independent of both the exact
    polynomial route and the symmetrized expansions.
    """
    pw = s_powers(N)
    zero = PSeries.zero(N)

    def linear_kernel(weight: Callable[[int], Fraction]) -> PSeries:
        acc = zero
        for k in range(2, N + 1):
            acc = acc + pw[k].shift(weight(k), p=((k, 1),))
        return acc

    a_ser = linear_kernel(
        lambda k: sum(a_coeff(i) * a_coeff(k - i) for i in range(1, k)) / k
    )
    b_ser = linear_kernel(
        lambda k: sum(
            a_coeff(i) * a_coeff(k - i) * Fraction(i, (k - i) ** 2)
            for i in range(1, k)
        )
    )
    d_ser = linear_kernel(
        lambda k: sum(a_coeff(i) * a_coeff(k - i) / (k - i) ** 2 for i in range(1, k))
    )

    def quadratic_kernel(
        joined: Callable[[int, int], Fraction], split: Callable[[int, int], Fraction]
    ) -> PSeries:
        # sum over ordered pairs: joined(k, m) p_k p_m s^(k+m), k from a join,
        # minus half of split(i, j) p_i p_j s^(i+j)
        acc = zero
        for k in range(2, N + 1):
            for m in range(1, N - k + 1):
                acc = acc + pw[k + m].shift(joined(k, m), p=((k, 1), (m, 1)))
        for i in range(1, N):
            for j in range(1, N - i + 1):
                acc = acc - pw[i + j].shift(split(i, j) / 2, p=((i, 1), (j, 1)))
        return acc

    c_ser = quadratic_kernel(
        lambda k, m: a_coeff(m)
        * sum(
            a_coeff(i) * a_coeff(k - i) * Fraction(i, (k - i) * (k - i + m))
            for i in range(1, k)
        ),
        lambda i, j: (i + j) * a_coeff(i + j),
    )
    e_ser = quadratic_kernel(
        lambda k, m: a_coeff(m)
        * sum(
            a_coeff(i) * a_coeff(k - i) / ((k - i) * (k - i + m))
            for i in range(1, k)
        ),
        lambda i, j: a_coeff(i + j),
    )

    psi0 = psi_at_s(0, N)
    psi1 = psi_at_s(1, N)
    psi2 = psi_at_s(2, N)
    u1 = psi2 - psi0 - a_ser * 12 - b_ser + d_ser
    u2 = (
        psi0 * (psi1 + psi2)
        + psi1 * a_ser * 24
        + psi1 * b_ser
        + c_ser
        - (psi1 + psi2) * d_ser
        - e_ser
    )
    u3 = psi1 * psi1 * a_ser * (-12) - psi1 * c_ser + (psi1 + psi2) * e_ser
    return _first_nonzero(
        "kernel_recombination", (("degree 1", u1), ("degree 2", u2), ("degree 3", u3))
    )


def _one_minus_psi1(N: int) -> PSeries:
    return PSeries.one(N) - psi_at_s(1, N)


def s_xdiff_identity(N: int) -> CheckResult:
    """x ds/dx * (1 - psi_1) = s."""
    s = s_series(N)
    return _zero_check("s_xdiff_identity", s.xdiff() * _one_minus_psi1(N) - s)


def s_pdiff_identity(N: int) -> CheckResult:
    """k ds/dp_k * (1 - psi_1) = a_k s^(k+1) for every k <= N."""
    s = s_series(N)
    pw = s_powers(N)
    omp = _one_minus_psi1(N)

    def differences():
        for k in range(1, N + 1):
            lhs = s.pdiff(k) * omp * k
            rhs = pw[k + 1] * a_coeff(k) if k + 1 <= N else PSeries.zero(N)
            yield f"k={k}", lhs - rhs

    return _first_nonzero("s_pdiff_identity", differences())


def psi_pdiff_identity(N: int, max_k: int = 4) -> CheckResult:
    """k dpsi_j/dp_k (1-psi_1) = k^j a_k s^k (1-psi_1) + a_k psi_{j+1} s^k."""
    pw = s_powers(N)
    omp = _one_minus_psi1(N)

    def differences():
        for j in range(0, 3):
            pj = psi_at_s(j, N)
            pj1 = psi_at_s(j + 1, N)
            for k in range(1, min(max_k, N) + 1):
                ak = a_coeff(k)
                lhs = pj.pdiff(k) * omp * k
                rhs = pw[k] * omp * (Fraction(k) ** j * ak) + pj1 * pw[k] * ak
                yield f"j={j}, k={k}", lhs - rhs

    return _first_nonzero("psi_pdiff_identity", differences())


def g1_xdiff_identity(N: int, g1: PSeries | None = None) -> CheckResult:
    """24 x dG1/dx = psi_2/(1-psi_1)^2 - psi_1/(1-psi_1)."""
    if g1 is None:
        g1 = g1_closed(N)
    inv = inv_one_minus(psi_at_s(1, N))
    rhs = psi_at_s(2, N) * inv * inv - psi_at_s(1, N) * inv
    return _zero_check("g1_xdiff_identity", g1.xdiff() * 24 - rhs)


def g1_pdiff_identity(
    N: int, g1: PSeries | None = None, max_k: int = 4
) -> CheckResult:
    """24 dG1/dp_k = a_k s^k/(1-psi_1) + (a_k/k) s^k (psi_2/(1-psi_1)^2 - 1/(1-psi_1))."""
    if g1 is None:
        g1 = g1_closed(N)
    pw = s_powers(N)
    inv = inv_one_minus(psi_at_s(1, N))
    bracket = psi_at_s(2, N) * inv * inv - inv

    def differences():
        for k in range(1, min(max_k, N) + 1):
            ak = a_coeff(k)
            rhs = pw[k] * inv * ak + pw[k] * bracket * (ak / k)
            yield f"k={k}", g1.pdiff(k) * 24 - rhs

    return _first_nonzero("g1_pdiff_identity", differences())


def f0_pdiff_axiom(N: int, f0: PSeries) -> CheckResult:
    """The axiomatic input dF_0/dp_k equals the p-derivative of f0, for each k <= N.

    f0 is the genus-0 series assembled from the explicit formula
    (``closedform.f0_series``); ``closedform.f0_pdiff`` writes the same
    derivatives through the substitution series instead.
    """
    return _first_nonzero(
        "f0_pdiff_axiom",
        ((f"k={k}", f0_pdiff(k, N) - f0.pdiff(k)) for k in range(1, N + 1)),
    )


def elem_sym_extraction(max_n: int = 8) -> CheckResult:
    """Coefficient-extraction rule for elementary symmetric functions.

    e_k(lambda) = theta(lambda)/k! * [p_lambda] (p_1+p_2+...)^k exp(sum p_i/i),
    evaluated in the series ring with each p_i carrying x^i so the truncation
    bound applies; checked for every lambda of size <= max_n and 0 <= k <= m.
    """
    lin = PSeries.from_parts(max_n, {(i,): 1 for i in range(1, max_n + 1)})
    ex = exp(PSeries.from_parts(max_n, {(i,): Fraction(1, i) for i in range(1, max_n + 1)}))
    power = PSeries.one(max_n)
    for k in range(0, max_n + 1):
        mixed = power * ex
        for n in range(0, max_n + 1):
            for lam in partitions_of(n):
                if k > lam.m:
                    continue
                got = Fraction(theta(lam), factorial(k)) * mixed.coeff(n, lam)
                if got != elem_sym(lam, k):
                    return CheckResult(
                        "elem_sym_extraction",
                        False,
                        f"lambda={lam}, k={k}: got {got}, want {elem_sym(lam, k)}",
                    )
        power = power * lin
    return CheckResult("elem_sym_extraction", True)


# ---------------------------------------------------------------------------
# Top-level report
# ---------------------------------------------------------------------------


def run_all_checks(N: int = 8, *, inject_fault: bool = False) -> list[CheckResult]:
    """Every verification step, in a fixed order, as CheckResults.

    inject_fault perturbs the genus-1 series fed to the PDE residual by
    +x^2 p_2, demonstrating that the checker can fail and report a witness.
    """
    g1 = g1_closed(N)
    if inject_fault:
        g1 = g1 + PSeries.term(N, 1, x=2, p=((2, 1),))
    checks = [
        _zero_check("pde_residual", residual_T(N, g1)),
        _zero_check("g1_forms_agree", g1_closed(N) - g1_defn(N)),
    ]
    checks += closed_form_series_checks(order=10)
    checks += [check_u1(), check_u2(), check_u3()]
    checks += series_u_checks(order=8)
    checks.append(kernel_recombination(N))
    checks.append(elem_sym_extraction())
    checks += [
        s_xdiff_identity(N),
        s_pdiff_identity(N),
        psi_pdiff_identity(N),
        g1_xdiff_identity(N),
        g1_pdiff_identity(N),
        f0_pdiff_axiom(N, f0_series(N)),
    ]
    return checks


def report_obj(checks: Iterable[CheckResult], config: Mapping | None = None) -> dict:
    """JSON-ready report, matching the CLI schema."""
    out = {
        "checks": [
            {"name": c.name, "status": "pass" if c.ok else "fail"}
            | ({"witness": c.witness} if c.witness else {})
            for c in checks
        ]
    }
    if config is not None:
        out["config"] = dict(config)
    return out
