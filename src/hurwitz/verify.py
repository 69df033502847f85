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
  route.  Each kernel weight is written once, in ``_LINEAR`` and
  ``_CROSS``; the symmetrized expansions and ``kernel_recombination``'s
  main-ring rebuild share those weights but expand them independently.
  Each coefficient sum_{i+j=k} a_i a_j w(i, j) is summed in integers
  (``_joined``), and cached by the weight function, not by kernel name, so
  a table entry replaced at run time is summed afresh.

Both routes compute in ``WPoly``, the three-variable monomial format of
``series.ExactRing``: exact in w1, w2, w3, or cut per variable in x1, x2,
x3.  Every check reports through ``_first_nonzero``: the first
nonzero difference names its lead monomial (``ExactRing.lead_str``) as the
witness, after its label when the check has several.  Each U-combination is
written once, over a ``KernelForms``, and evaluated on the exact closed forms
and on the weights-only expansions alike.  The exact route checks U_2 and
U_3 twice more, in a compact rearranged form; a discrepancy would fail one
of them rather than being silently reconciled.

The exact route writes the antisymmetric difference w_a^(j) w_b' - w_a' w_b^(j)
once, in ``_cross``.  The kernels pair up by derivative order: b and c are
``_one_slot`` and ``_two_slot`` at j = 3, d and e the same builders at j = 2,
and the rearranged U_2 and U_3 read ``_cross`` too.  Sharing it leaves no
blind spot: the series route checks c and e against the weights alone, so a
slip in ``_cross`` fails those checks as well as both rearranged forms.

The genus-0 input dF_0/dp_k, taken as given in ``closedform``, is certified
by ``f0_pdiff_axiom`` against the p-derivatives of the genus-0 series built
from the explicit formula.
"""

from __future__ import annotations

import itertools
import operator
import sys
from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import comb, factorial, lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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
from .series import ExactRing, PSeries, _integer_form, exp

_ZERO = Fraction(0)


class CheckResult(NamedTuple):
    """Outcome of one verification step; witness names the first offender."""

    name: str
    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        # a tuple of three fields is always true
        return self.ok


def _witness(f: ExactRing | WExpr) -> str | None:
    """None if f is zero, else its lead monomial (a WExpr's numerator's).

    A WExpr whose denominator outgrows _DEN_BOUND is named by that
    denominator instead, zero or not.
    """
    if isinstance(f, WExpr):
        if any(e > bound for e, bound in zip(f.den, _DEN_BOUND)):
            return f"denominator bound exceeded: {f.den}"
        f = f.num
    return None if f.is_zero else f.lead_str()


def _first_nonzero(
    name: str, labelled: Iterable[tuple[str | None, ExactRing | WExpr]]
) -> CheckResult:
    """Pass if every difference vanishes, else fail at the first that does not.

    The witness is "<label>: <witness>", or the bare witness for label None.
    labelled is consumed lazily, so nothing after a failure is computed.
    """
    for label, f in labelled:
        witness = _witness(f)
        if witness is not None:
            return CheckResult(name, False, witness if label is None else f"{label}: {witness}")
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
        return self + -other

    def __neg__(self) -> "WExpr":
        return WExpr(-self.num, self.den)

    def __mul__(self, other: "WExpr | Fraction | int") -> "WExpr":
        if not isinstance(other, WExpr):
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
    return (_one_minus_w(v) * wd(v, 3) + wd(v, 0) * wd(v, 2) - wd(v, 1)) * Fraction(1, 12)


def _cross(j: int, a: int, b: int) -> WExpr:
    """The antisymmetric difference w_a^(j) w_b' - w_a' w_b^(j)."""
    return wd(a, j) * wd(b, 1) - wd(a, 1) * wd(b, j)


def _one_slot(j: int, v: int) -> WExpr:
    """Kernel b at j = 3, kernel d at j = 2."""
    return wd(v, j) * wd(v, 0)


def _two_slot(j: int, v1: int, v2: int) -> WExpr:
    """Kernel c at j = 3, kernel e at j = 2."""
    return -(wd(v1, j) * wd(v2, 1)) - wd(v1, 1) * wd(v2, j) - _cross(j, v1, v2).div_diff(v1, v2)


# A symmetrized image: an exact closed form or a truncated expansion.
Image = WExpr | WPoly


class KernelForms(NamedTuple):
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


DEFAULT_KERNELS = KernelForms(
    sym_a_form,
    partial(_one_slot, 3),
    partial(_two_slot, 3),
    partial(_one_slot, 2),
    partial(_two_slot, 2),
)


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


# Each slot t of three with the other two, in order.
_ROTATIONS = ((1, (2, 3)), (2, (1, 3)), (3, (1, 2)))


def _u3_assembled(k: KernelForms) -> Image:
    def terms():
        for p1, p2, p3 in itertools.permutations((1, 2, 3)):
            yield k.psi(1, p1) * k.psi(1, p2) * k.a(p3) * -12
        for t, (va, vb) in _ROTATIONS:
            yield -(k.psi(1, t) * k.c(va, vb))
            yield (k.psi(1, t) + k.psi(2, t)) * k.e(va, vb)

    return reduce(operator.add, terms())


# -- the exact route ----------------------------------------------------------


def _u2_rearranged() -> WExpr:
    two_minus = WExpr(WPoly.const(2) - WPoly.var(1) - WPoly.var(2))
    w_sum = WExpr(WPoly.var(1) + WPoly.var(2))
    return (
        (wd(1, 2) * wd(2, 3) + wd(1, 3) * wd(2, 2)) * two_minus
        + wd(1, 2) * wd(2, 2) * w_sum
        - _cross(3, 1, 2).div_diff(1, 2)
        + _cross(2, 1, 2).div_diff(1, 2)
    )


def _u3_rearranged() -> WExpr:
    terms = []
    for t, (va, vb) in _ROTATIONS:
        crossed = wd(t, 2) * _cross(3, va, vb) - (wd(t, 2) + wd(t, 3)) * _cross(2, va, vb)
        tail = wd(t, 3) * _one_minus_w(t) + wd(t, 2) * wd(t, 0)
        terms.append(crossed.div_diff(va, vb) + wd(va, 2) * wd(vb, 2) * tail * -2)
    return reduce(operator.add, terms)


def check_u1(kernels: KernelForms = DEFAULT_KERNELS) -> CheckResult:
    """Degree-1 vanishing, exactly as a polynomial after clearing."""
    return _first_nonzero("u1_vanishes", [(None, _u1_expr(kernels))])


def check_u2(kernels: KernelForms = DEFAULT_KERNELS) -> CheckResult:
    """Degree-2 vanishing: rearranged form and direct assembly, both exact."""
    return _first_nonzero(
        "u2_vanishes",
        [("rearranged form", _u2_rearranged()), ("assembled form", _u2_assembled(kernels))],
    )


def check_u3(kernels: KernelForms = DEFAULT_KERNELS) -> CheckResult:
    """Degree-3 vanishing: rearranged form and direct assembly, both exact."""
    return _first_nonzero(
        "u3_vanishes",
        [("rearranged form", _u3_rearranged()), ("assembled form", _u3_assembled(kernels))],
    )


# ---------------------------------------------------------------------------
# The series route: truncated expansions in x1, x2, x3
# ---------------------------------------------------------------------------


def _tree_coeffs(order: int) -> tuple[Fraction, ...]:
    """[x^n] of the tree function, from the explicit formula n^(n-1)/n!."""
    return (_ZERO,) + tuple(
        Fraction(n ** (n - 1), factorial(n)) for n in range(1, order + 1)
    )


# `verify --N 16`: 12 entries.
@lru_cache(maxsize=64)
def _w_power(v: int, e: int, order: int) -> WPoly:
    """The tree function at slot v to the power e >= 1, as a series."""
    if e > 1:
        return _w_power(v, e - 1, order) * _w_power(v, 1, order)
    return WPoly.univariate(_tree_coeffs(order), v, order)


def _at_tree(p: WPoly, order: int) -> WPoly:
    """The polynomial p(w1, w2, w3) with each w_v set to the tree series in x_v."""

    def terms():
        for mono, c in p.terms.items():
            term = WPoly.const(c, order)
            for v, e in enumerate(mono, 1):
                if e:
                    term = term * _w_power(v, e, order)
            yield term

    # the sum runs over p's numerators; divide by its denominator once
    return WPoly.total(order, terms()) * Fraction(1, p.den)


def _series_gap(expr: WExpr, direct: WPoly) -> WPoly:
    """num - direct * den as series: zero iff the closed form equals the expansion."""
    order = direct.N
    den = WExpr(WPoly.const(1))._lift(expr.den)
    return _at_tree(expr.num, order) - direct * _at_tree(den, order)


# -- the kernel weights -------------------------------------------------------

# Each quadratic kernel weight is written here once.  The weights-only
# expansions below and the main-ring rebuild in kernel_recombination both
# read this table, each expanding it on its own; the closed forms they are
# checked against and the PDE residual never read it.  A one-slot kernel
# (a, b, d) is
#     sum_k y_k sum_{i+j=k} a_i a_j w(i, j),
# and a two-slot kernel (c, e), summed over ordered pairs (k, m), is
#     sum_{k,m} y_k y_m (a_m sum_{i+j=k} a_i a_j join(i, j, m) - a_(k+m) split(k, m)):
# y_k joins y_i y_j while y_m is kept, and y_(k+m) splits into y_k y_m.
Weight = Callable[..., Fraction]
_LINEAR: dict[str, Weight] = {
    "a": lambda i, j: Fraction(1, i + j),
    "b": lambda i, j: Fraction(i, j * j),
    "d": lambda i, j: Fraction(1, j * j),
}
_CROSS: dict[str, tuple[Weight, Weight]] = {
    "c": (lambda i, j, m: Fraction(i, j * (j + m)), lambda i, j: Fraction(i + j, 2)),
    "e": (lambda i, j, m: Fraction(1, j * (j + m)), lambda i, j: Fraction(1, 2)),
}


def _joined(w: Weight, k: int, *rest: int) -> Fraction:
    """sum_{i+j=k} a_i a_j w(i, j, *rest), summed in integers.

    a_i a_j = i^i j^j C(k-2, i-1) / (k-2)!, so each summand is an integer
    times a weight; the weights are brought to a running lcm of their
    denominators and one Fraction is built at the end.
    """
    if k < 2:
        return _ZERO
    num, den = 0, 1
    for i in range(1, k):
        j = k - i
        c = w(i, j, *rest)
        if den % c.denominator:
            grown = lcm(den, c.denominator)
            num, den = num * (grown // den), grown
        num += i**i * j**j * comb(k - 2, i - 1) * c.numerator * (den // c.denominator)
    return Fraction(num, den * factorial(k - 2))


# Keyed by the weight function, so a replaced table entry is a cache miss.
# `verify --N 16`: 51 entries (a, b, d at k = 0..16).
@lru_cache(maxsize=128)
def _linear_by(w: Weight, k: int) -> Fraction:
    return _joined(w, k)


# `verify --N 16`: 260 entries (c and e at the pairs k, m <= 10 or k + m <= 16).
@lru_cache(maxsize=512)
def _cross_by(join: Weight, split: Weight, k: int, m: int) -> Fraction:
    return a_coeff(m) * _joined(join, k, m) - a_coeff(k + m) * split(k, m)


def _linear_coeff(name: str, k: int) -> Fraction:
    """[y_k] of the one-slot kernel name."""
    return _linear_by(_LINEAR[name], k)


def _cross_coeff(name: str, k: int, m: int) -> Fraction:
    """The ordered pair (k, m)'s coefficient of y_k y_m in the two-slot kernel name."""
    return _cross_by(*_CROSS[name], k, m)


# -- direct (weights-only) expansions of the symmetrized images -------------


def _direct_psi(m: int, v: int, order: int) -> WPoly:
    coeffs = [_ZERO] + [Fraction(r) ** (m - 1) * a_coeff(r) for r in range(1, order + 1)]
    return WPoly.univariate(coeffs, v, order)


def _direct_linear(name: str, v: int, order: int) -> WPoly:
    """The one-slot kernel name symmetrized at slot v: y_k -> x_v^k."""
    coeffs = [_linear_coeff(name, k) for k in range(order + 1)]
    return WPoly.univariate(coeffs, v, order)


def _direct_cross(name: str, v1: int, v2: int, order: int) -> WPoly:
    """The two-slot kernel name symmetrized at slots (v1, v2).

    y_k y_m -> x_v1^k x_v2^m + x_v2^k x_v1^m, summed over ordered pairs.
    """
    coeff = {
        (k, m): _cross_coeff(name, k, m)
        for k in range(1, order + 1)
        for m in range(1, order + 1)
    }
    return WPoly(
        {_mono((v1, k), (v2, m)): c + coeff[m, k] for (k, m), c in coeff.items()}, order
    )


def _renamed(p: WPoly, *slots: int) -> WPoly:
    """p in the variables 1, 2, ... only, with variable k renamed to slots[k-1]."""
    return WPoly._of(p.N, p.den, {_mono(*zip(slots, mono)): c for mono, c in p.terms.items()})


def _series_kernels(order: int) -> KernelForms:
    """The weights-only expansions, truncated at order, as kernel forms.

    Each form is expanded once, at slot 1 or at slots (1, 2); every other
    slot renames the variables of that expansion.
    """
    a, b, d = (_direct_linear(name, 1, order) for name in "abd")
    c, e = (_direct_cross(name, 1, 2, order) for name in "ce")
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
        _first_nonzero(f"sym_closed_form_{name}", [(None, _series_gap(expr, series))])
        for name, expr, series in zip("abcde", build_ABCDE(kernels), build_ABCDE(direct))
    ]
    psi_gaps = (
        (f"index {m}", _series_gap(kernels.psi(m, 1), direct.psi(m, 1))) for m in range(-1, 3)
    )
    return checks + [_first_nonzero("psi_image_series", psi_gaps)]


def series_u_checks(order: int = 8) -> list[CheckResult]:
    """The three vanishing combinations, evaluated on the weights-only expansions."""
    direct = _series_kernels(order)
    return [
        _first_nonzero("u1_series", [(None, _u1_expr(direct))]),
        _first_nonzero("u2_series", [(None, _u2_assembled(direct))]),
        _first_nonzero("u3_series", [(None, _u3_assembled(direct))]),
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
    df0 = {i: f0_pdiff(i, N) for i in range(1, N + 1)}
    pw = s_powers(N)

    def summands():
        yield g1.xdiff()
        for i in range(1, N + 1):
            if not dg[i].is_zero:
                yield dg[i].shift(1, p=((i, 1),))
        for k in range(2, N + 1):
            for i in range(1, k):
                j = k - i
                if df0[i].is_zero or dg[j].is_zero:
                    continue
                yield (df0[i] * dg[j]).shift(-i * j, p=((k, 1),))
        for k in range(2, N + 1):
            if dg[k].is_zero:
                continue
            for i in range(1, k):
                yield dg[k].shift(Fraction(-k, 2), p=((i, 1), (k - i, 1)))
        for k in range(2, N + 1):
            coef = sum((a_coeff(i) * a_coeff(k - i) for i in range(1, k)), _ZERO)
            yield pw[k].shift(-coef / (2 * k), p=((k, 1),))

    return PSeries.total(N, summands())


def kernel_recombination(N: int) -> CheckResult:
    """The three kernel combinations vanish when rebuilt in the main ring.

    Each quadratic kernel is re-expanded from the weight table with
    y_k = p_k s^k as an honest series in x and p and combined exactly as in
    the degree-split of the PDE residual; all three combinations must be the
    zero series.  The weights are shared with the symmetrized expansions,
    but the expansion is not: this is a third route, independent of both the
    exact polynomial route and the symmetrized series.
    """
    pw = s_powers(N)

    def one_slot(name: str) -> PSeries:
        # sum_k [y_k] p_k s^k
        terms = (pw[k].shift(_linear_coeff(name, k), p=((k, 1),)) for k in range(2, N + 1))
        return PSeries.total(N, terms)

    def two_slot(name: str) -> PSeries:
        # sum over ordered pairs (k, m) of [y_k y_m] p_k p_m s^(k+m)
        terms = (
            pw[k + m].shift(_cross_coeff(name, k, m), p=((k, 1), (m, 1)))
            for k in range(1, N)
            for m in range(1, N - k + 1)
        )
        return PSeries.total(N, terms)

    a_ser, b_ser, d_ser = map(one_slot, "abd")
    c_ser, e_ser = map(two_slot, "ce")
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


# psi_pdiff_identity and g1_pdiff_identity stop at k = 4 (or N).  Both are
# derived for every k at once, and k = 1..4 already moves each k-dependent
# factor (k^j, a_k, 1/k, s^k); every further k costs eight more full
# products (six and two).  s_pdiff_identity, one product per k, runs to N.
PDIFF_MAX_K = 4


def _one_minus_psi1(N: int) -> PSeries:
    return PSeries.one(N) - psi_at_s(1, N)


def s_xdiff_identity(N: int) -> CheckResult:
    """x ds/dx * (1 - psi_1) = s."""
    s = s_series(N)
    return _first_nonzero("s_xdiff_identity", [(None, s.xdiff() * _one_minus_psi1(N) - s)])


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


def psi_pdiff_identity(N: int) -> CheckResult:
    """k dpsi_j/dp_k (1-psi_1) = k^j a_k s^k (1-psi_1) + a_k psi_{j+1} s^k."""
    pw = s_powers(N)
    omp = _one_minus_psi1(N)

    def differences():
        for j in range(0, 3):
            pj = psi_at_s(j, N)
            pj1 = psi_at_s(j + 1, N)
            for k in range(1, min(PDIFF_MAX_K, N) + 1):
                ak = a_coeff(k)
                lhs = pj.pdiff(k) * omp * k
                rhs = pw[k] * (omp * (Fraction(k) ** j * ak) + pj1 * ak)
                yield f"j={j}, k={k}", lhs - rhs

    return _first_nonzero("psi_pdiff_identity", differences())


def g1_xdiff_identity(N: int, g1: PSeries | None = None) -> CheckResult:
    """24 x dG1/dx (1-psi_1)^2 = psi_2 - psi_1 (1-psi_1)."""
    if g1 is None:
        g1 = g1_closed(N)
    omp = _one_minus_psi1(N)
    rhs = psi_at_s(2, N) - psi_at_s(1, N) * omp
    return _first_nonzero("g1_xdiff_identity", [(None, g1.xdiff() * omp * omp * 24 - rhs)])


def g1_pdiff_identity(N: int, g1: PSeries | None = None) -> CheckResult:
    """24 dG1/dp_k (1-psi_1)^2 = a_k s^k (1-psi_1) + (a_k/k) s^k (psi_2 - (1-psi_1))."""
    if g1 is None:
        g1 = g1_closed(N)
    pw = s_powers(N)
    omp = _one_minus_psi1(N)
    omp2 = omp * omp
    bracket = psi_at_s(2, N) - omp

    def differences():
        for k in range(1, min(PDIFF_MAX_K, N) + 1):
            ak = a_coeff(k)
            rhs = pw[k] * (omp * ak + bracket * (ak / k))
            yield f"k={k}", g1.pdiff(k) * omp2 * 24 - rhs

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
                if got != (want := elem_sym(lam)[k]):
                    return CheckResult(
                        "elem_sym_extraction",
                        False,
                        f"lambda={lam}, k={k}: got {got}, want {want}",
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
        _first_nonzero("pde_residual", [(None, residual_T(N, g1))]),
        _first_nonzero("g1_forms_agree", [(None, g1_closed(N) - g1_defn(N))]),
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
