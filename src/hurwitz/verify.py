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
  A weight gives an integer pair (num, den).  Each coefficient
  sum_{i+j=k} a_i a_j w(i, j) is summed in integers (``_joined``) from the
  pairs of ``partitions.a_weight``, the one statement of r^j a_r, and
  cached as a pair by the weight function, not by kernel name, so a table
  entry replaced at run time is summed afresh; the expansions enter
  ``WPoly`` as integer numerators over one denominator.

Both routes compute in ``WPoly``, the three-variable monomial format of
``series.ExactRing``: exact in w1, w2, w3, or cut per variable in x1, x2,
x3.  Every check reports through ``_first_nonzero``: the first nonzero
difference names its lead monomial (``ExactRing.lead_str``) as the witness,
after its label when the check has several.  Each U-combination is
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
from the explicit formula.  The right sides of the psi and G_1 pdiff
identities are rules in x, built from ``closedform.psi``, read at x -> s
(``_rule_at_s``); only the left sides differentiate.  ``kernel_recombination``
checks its combinations in the main ring on the rules themselves, with no
x -> s: reading a series cut at x^N at s = x + O(x^2) is injective and keeps
its lowest x-degree part, so pass/fail and the witness are those at s.
Every weight here is an int or an integer pair, so no check builds a
Fraction and the module loads no ``fractions``.
"""

from __future__ import annotations

import operator
import sys
from functools import lru_cache, partial, reduce
from math import factorial, lcm
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple

from .closedform import (
    f0_pdiff,
    f0_series,
    g1_closed,
    g1_defn,
    psi,
    psi_at_s,
    s_powers,
    s_series,
)
from .partitions import a_weight, elem_sym, partitions_of, theta
from .series import ExactRing, PSeries, exp, subst_x

if TYPE_CHECKING:
    from fractions import Fraction


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
        cap = _NO_CAP if N is None else N
        self._set_pairs(N, self._exact_pairs((terms or {}).items(), lambda m: max(m) <= cap))

    # A code object of its own for the benchmark probe verify.WPoly.mul, as
    # for the probed operations of PSeries.
    def __mul__(self, other: "WPoly | Fraction | int | tuple[int, int]") -> "WPoly":
        return ExactRing.__mul__(self, other)

    __rmul__ = __mul__

    @staticmethod
    def const(c: Fraction | int, N: int | None = None) -> "WPoly":
        return WPoly({(0, 0, 0): c}, N)

    @staticmethod
    def var(v: int) -> "WPoly":
        return WPoly({_mono((v, 1)): 1})

    _cut_degree = operator.itemgetter(0)  # partner lists are cut in x1

    def _pairs_into(self, other: "WPoly", acc: dict[Mono, int], up: int, m: int) -> None:
        """acc[key] += up * a * b for each pair inside the cut (WPoly has no p, m is 1)."""
        L = self.N
        if L is None:
            L, B = _NO_CAP, other.terms.items()
        else:  # only partners inside the cut in x1, so only x2 and x3 are tested
            partners = other._partner_lists()
        for (a1, a2, a3), a in self.terms.items():
            a *= up
            for (b1, b2, b3), b in B if L is _NO_CAP else partners[L - a1]:
                e2, e3 = a2 + b2, a3 + b3
                if e2 > L or e3 > L:
                    continue
                key = (a1 + b1, e2, e3)
                acc[key] = acc.get(key, 0) + a * b

    def _mono_str(self, mono: Mono) -> str:
        name = "w" if self.N is None else "x"
        bits = [f"{name}{v}" + (f"^{e}" if e > 1 else "") for v, e in enumerate(mono, 1) if e]
        return "*".join(bits) if bits else "1"


# ---------------------------------------------------------------------------
# Fractions over the permitted atoms
# ---------------------------------------------------------------------------

# Denominator atoms, in fixed order: (1-w1), (1-w2), (1-w3), then the
# pairwise differences (w1-w2), (w2-w3), (w1-w3).
_DIFF_SLOT = {(1, 2): 3, (2, 3): 4, (1, 3): 5}
_ATOMS: tuple[WPoly, ...] = tuple(WPoly.const(1) - WPoly.var(v) for v in (1, 2, 3)) + tuple(
    WPoly.var(a) - WPoly.var(b) for a, b in _DIFF_SLOT
)

# Largest denominator the checks may accumulate: the closed forms carry at
# most (1-w_i)^5 and a first power of each difference.  Anything beyond this
# would mean the clearing prescription is wrong, so it is checked too.
_DEN_BOUND = (5, 5, 5, 1, 1, 1)


# `verify --N 16`: 26 entries, 11 of them at the tree series.
@lru_cache(maxsize=128)
def _atom_power(idx: int, e: int, order: int | None) -> WPoly:
    """Atom idx to the power e >= 1: exact for order None, else at the tree series cut at order."""
    if e > 1:
        return _atom_power(idx, e - 1, order) * _atom_power(idx, 1, order)
    return _ATOMS[idx] if order is None else _at_tree(_ATOMS[idx], order)


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

    def _lift(self, target: tuple[int, ...]) -> WPoly:
        num = self.num
        for idx in range(6):
            gap = target[idx] - self.den[idx]
            if gap:
                num = num * _atom_power(idx, gap, None)
        return num

    def __add__(self, other: "WExpr") -> "WExpr":
        target = tuple(max(a, b) for a, b in zip(self.den, other.den))
        return WExpr(self._lift(target) + other._lift(target), target)

    def __sub__(self, other: "WExpr") -> "WExpr":
        # one weighted total with weights 1 and -1 (ExactRing.__sub__), no negation pass
        target = tuple(max(a, b) for a, b in zip(self.den, other.den))
        return WExpr(self._lift(target) - other._lift(target), target)

    def __neg__(self) -> "WExpr":
        return WExpr(-self.num, self.den)

    def __mul__(self, other: "WExpr | Fraction | int | tuple[int, int]") -> "WExpr":
        if not isinstance(other, WExpr):
            return WExpr(self.num * other, self.den)
        return WExpr(
            self.num * other.num,
            tuple(a + b for a, b in zip(self.den, other.den)),
        )

    __rmul__ = __mul__

    def div_diff(self, a: int, b: int) -> "WExpr":
        """Divide by (w_a - w_b); swapped indices flip the sign."""
        den = list(self.den)
        den[_DIFF_SLOT[min(a, b), max(a, b)]] += 1
        return WExpr(self.num if a < b else -self.num, tuple(den))


def _one_minus_w(v: int) -> WExpr:
    return WExpr(_ATOMS[v - 1])


def wd(v: int, j: int) -> WExpr:
    """The j-th Euler derivative of the tree function at slot v, in closed form."""
    if j not in (0, 1, 2, 3):
        raise ValueError(f"no closed form stored for derivative order {j}")
    w = WPoly.var(v)
    den = [0, 0, 0, 0, 0, 0]
    den[v - 1] = (0, 1, 3, 5)[j]  # w, w/(1-w), w/(1-w)^3, (w+2w^2)/(1-w)^5
    return WExpr(w + w * w * 2 if j == 3 else w, tuple(den))


def sym_psi(m: int, v: int) -> WExpr:
    """Symmetrized image of psi_m at one slot: the (m+1)-st tree derivative."""
    if m < -1:
        raise ValueError("stored images cover m >= -1")
    return wd(v, m + 1)


def sym_a_form(v: int) -> WExpr:
    return (_one_minus_w(v) * wd(v, 3) + wd(v, 0) * wd(v, 2) - wd(v, 1)) * (1, 12)


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
# Each is a lazy sequence of summands (f, c) and (f, c, g), c * f or c * f * g:
# the series route sums it with WPoly.weighted_total, the exact route with _fold.


def _fold(weighted: Iterable[tuple]) -> WExpr:
    """sum c * f (* g) over the summands of closed forms, added two at a time."""
    return reduce(operator.add, (reduce(operator.mul, (f, *g)) * c for f, c, *g in weighted))


def _u1_terms(k: KernelForms) -> Iterable[tuple[Image, int]]:
    return ((k.psi(2, 1), 1), (k.psi(0, 1), -1), (k.a(1), -12), (k.b(1), -1), (k.d(1), 1))


def _u2_terms(k: KernelForms) -> Iterator[tuple[Image, int]]:
    psi0, psi1, psi2 = (partial(k.psi, m) for m in range(3))
    yield k.c(1, 2), 1
    yield k.e(1, 2), -1
    pairs = ((psi0, psi1, 1), (psi0, psi2, 1), (psi1, k.a, 24), (psi1, k.b, 1))
    for f, g, c in pairs + ((psi1, k.d, -1), (psi2, k.d, -1)):
        yield f(1), c, g(2)  # symmetrized over the two slots
        yield f(2), c, g(1)


# Each slot t of three with the other two, in order.
_ROTATIONS = ((1, (2, 3)), (2, (1, 3)), (3, (1, 2)))


def _u3_terms(k: KernelForms) -> Iterator[tuple[Image, int]]:
    for t, (va, vb) in _ROTATIONS:
        psi1 = k.psi(1, t)
        # -12 psi1(a) psi1(b) a(t) over the six orders of (a, b, t) is
        # symmetric in a and b: three rotations with weight -24
        yield k.psi(1, va) * k.psi(1, vb), -24, k.a(t)
        yield psi1, -1, k.c(va, vb)
        yield psi1 + k.psi(2, t), 1, k.e(va, vb)


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
    return _first_nonzero("u1_vanishes", [(None, _fold(_u1_terms(kernels)))])


def check_u2(kernels: KernelForms = DEFAULT_KERNELS) -> CheckResult:
    """Degree-2 vanishing: rearranged form and direct assembly, both exact."""
    return _first_nonzero(
        "u2_vanishes",
        [("rearranged form", _u2_rearranged()), ("assembled form", _fold(_u2_terms(kernels)))],
    )


def check_u3(kernels: KernelForms = DEFAULT_KERNELS) -> CheckResult:
    """Degree-3 vanishing: rearranged form and direct assembly, both exact."""
    return _first_nonzero(
        "u3_vanishes",
        [("rearranged form", _u3_rearranged()), ("assembled form", _fold(_u3_terms(kernels)))],
    )


# ---------------------------------------------------------------------------
# The series route: truncated expansions in x1, x2, x3
# ---------------------------------------------------------------------------


def _tree_coeffs(order: int) -> tuple[tuple[int, int], ...]:
    """[x^n] of the tree function as pairs (num, den), from the explicit formula n^(n-1)/n!."""
    return ((0, 1),) + tuple((n ** (n - 1), factorial(n)) for n in range(1, order + 1))


# `verify --N 16`: 12 entries.
@lru_cache(maxsize=64)
def _w_power(v: int, e: int, order: int) -> WPoly:
    """The tree function at slot v to the power e >= 1, as a series."""
    if e > 1:
        return _w_power(v, e - 1, order) * _w_power(v, 1, order)
    return WPoly._of_pairs(order, ((_mono((v, n)), *c) for n, c in enumerate(_tree_coeffs(order))))


def _at_tree(p: WPoly, order: int) -> WPoly:
    """The polynomial p(w1, w2, w3) with each w_v set to the tree series in x_v.

    Horner-style by variable: p's monomials are grouped by (e1, e2), each
    group's w3-polynomial is one weighted total of tree powers, and it enters
    its e1 group's sum times w2^e2; each e1 group enters the result times w1^e1.
    """
    rows: dict[int, dict[int, list[tuple[WPoly, int]]]] = {}
    one = WPoly.const(1, order)
    for (e1, e2, e3), c in p.terms.items():
        w3 = _w_power(3, e3, order) if e3 else one
        rows.setdefault(e1, {}).setdefault(e2, []).append((w3, c))

    def power(v: int, e: int) -> WPoly | None:
        return _w_power(v, e, order) if e else None

    def e1_sums() -> Iterator[tuple]:
        for e1, by_e2 in rows.items():
            e2_sums = (
                (WPoly.weighted_total(order, row), 1, power(2, e2)) for e2, row in by_e2.items()
            )
            yield WPoly.weighted_total(order, e2_sums), (1, p.den), power(1, e1)

    # the sum runs over p's numerators; divide by its denominator in the same pass
    return WPoly.weighted_total(order, e1_sums())


def _series_gap(expr: WExpr, direct: WPoly) -> WPoly:
    """num - direct * den as series: zero iff the closed form equals the expansion;
    direct is multiplied by each atom of den at the tree series, never by den expanded."""
    order = direct.N
    for idx, e in enumerate(expr.den):
        if e:
            direct = direct * _atom_power(idx, e, order)
    return _at_tree(expr.num, order) - direct


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
# A weight gives its value as an integer pair (numerator, denominator).
Weight = Callable[..., tuple[int, int]]
_LINEAR: dict[str, Weight] = {
    "a": lambda i, j: (1, i + j),
    "b": lambda i, j: (i, j * j),
    "d": lambda i, j: (1, j * j),
}
_CROSS: dict[str, tuple[Weight, Weight]] = {
    "c": (lambda i, j, m: (i, j * (j + m)), lambda i, j: (i + j, 2)),
    "e": (lambda i, j, m: (1, j * (j + m)), lambda i, j: (1, 2)),
}


def _pair_sum(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The sum of num/den over integer pairs, as one pair over the running lcm
    of the denominators; no Fraction is built."""
    num, den = 0, 1
    for a, b in pairs:
        if den % b:
            grown = lcm(den, b)
            num, den = num * (grown // den), grown
        num += a * (den // b)
    return num, den


def _joined(w: Weight, k: int, *rest: int) -> tuple[int, int]:
    """sum_{i+j=k} a_i a_j w(i, j, *rest) as a pair (num, den), summed in integers."""
    pairs = ((a_weight(i), a_weight(k - i), w(i, k - i, *rest)) for i in range(1, k))
    return _pair_sum((an * bn * c, ad * bd * d) for (an, ad), (bn, bd), (c, d) in pairs)


# Pairs keyed by the weight function, so a replaced table entry is a cache
# miss; a patched ``a_weight`` is not, so clear both caches after one.
# `verify --N 16`: 51 pairs (a, b, d at k = 0..16).
@lru_cache(maxsize=128)
def _linear_by(w: Weight, k: int) -> tuple[int, int]:
    return _joined(w, k)


# `verify --N 16`: 260 pairs (c and e at k, m <= 10 or k + m <= 16).
@lru_cache(maxsize=512)
def _cross_by(join: Weight, split: Weight, k: int, m: int) -> tuple[int, int]:
    """a_m joined - a_(k+m) split(k, m) as a pair."""
    (jn, jd), (sn, sd) = _joined(join, k, m), split(k, m)
    (an, ad), (bn, bd) = a_weight(m), a_weight(k + m)
    left, right = ad * jd, bd * sd
    return an * jn * right - bn * sn * left, left * right


# -- direct (weights-only) expansions of the symmetrized images -------------


def _direct_psi(m: int, v: int, order: int) -> WPoly:
    """psi_m at slot v: sum_r r^(m-1) a_r x_v^r."""
    pairs = ((_mono((v, r)), *a_weight(r, m - 1)) for r in range(1, order + 1))
    return WPoly._of_pairs(order, pairs)


def _direct_linear(name: str, v: int, order: int) -> WPoly:
    """The one-slot kernel name symmetrized at slot v: y_k -> x_v^k."""
    w = _LINEAR[name]
    return WPoly._of_pairs(order, ((_mono((v, k)), *_linear_by(w, k)) for k in range(order + 1)))


def _direct_cross(name: str, v1: int, v2: int, order: int) -> WPoly:
    """The two-slot kernel name symmetrized at slots (v1, v2).

    y_k y_m -> x_v1^k x_v2^m + x_v2^k x_v1^m, summed over ordered pairs.
    """
    weights, ks = _CROSS[name], range(1, order + 1)
    coeffs = ((k, m, _cross_by(*weights, k, m)) for k in ks for m in ks)
    return WPoly._of_pairs(
        order, ((_mono((a, k), (b, m)), *c) for k, m, c in coeffs for a, b in ((v1, v2), (v2, v1)))
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


def closed_form_series_checks(kernels: KernelForms = DEFAULT_KERNELS) -> list[CheckResult]:
    """Each symmetrized closed form against its weights-only expansion, through order 10."""
    direct = _series_kernels(10)
    checks = [
        _first_nonzero(f"sym_closed_form_{name}", [(None, _series_gap(expr, series))])
        for name, expr, series in zip("abcde", build_ABCDE(kernels), build_ABCDE(direct))
    ]
    psi_gaps = (
        (f"index {m}", _series_gap(kernels.psi(m, 1), direct.psi(m, 1))) for m in range(-1, 3)
    )
    return checks + [_first_nonzero("psi_image_series", psi_gaps)]


def series_u_checks() -> list[CheckResult]:
    """The three vanishing combinations, evaluated on the weights-only expansions."""
    # order 8, below the closed-form checks' 10: at order 10 these expansions
    # raised the tracemalloc peak of run_all_checks(12) from 1.38 to 2.28 MB
    order = 8
    direct = _series_kernels(order)
    return [
        _first_nonzero(f"u{i}_series", [(None, WPoly.weighted_total(order, terms(direct)))])
        for i, terms in enumerate((_u1_terms, _u2_terms, _u3_terms), 1)
    ]


# ---------------------------------------------------------------------------
# The PDE residual and the supporting series identities
# ---------------------------------------------------------------------------


def residual_T(N: int, g1: PSeries | None = None) -> PSeries:
    """Residual of the genus-1 PDE applied to g1 (closed form by default).

    The operator is the Euler part x d/dx + sum p_i d/dp_i minus the join
    transfer through the genus-0 derivatives minus half the cut operator,
    and the inhomogeneity is half the join of the genus-0 second derivatives.
    Identically zero when g1 is the genus-1 series.  Every weight is an int
    or an integer pair; the inhomogeneity sums a_i a_(k-i) from ``a_weight``
    alone, so the residual reads no kernel weight.
    """
    if g1 is None:
        g1 = g1_closed(N)
    dg = {j: g1.pdiff(j) for j in range(1, N + 1)}
    df0 = {i: f0_pdiff(i, N) for i in range(1, N + 1)}
    pw = s_powers(N)

    def summands():
        # products and p-multiples enter the sum directly; empty factors are skipped
        yield g1.xdiff(), 1
        for i in range(1, N + 1):
            yield dg[i], 1, None, ((i, 1),)
        for k in range(2, N + 1):
            for i in range(1, k):
                yield df0[i], -i * (k - i), dg[k - i], ((k, 1),)
        for k in range(2, N + 1):
            for i in range(1, k):
                yield dg[k], (-k, 2), None, ((i, 1), (k - i, 1))
        for k in range(2, N + 1):
            # a_i a_(k-i) as a pair: the two pairs multiplied entry by entry
            joins = (map(operator.mul, a_weight(i), a_weight(k - i)) for i in range(1, k))
            num, den = _pair_sum(joins)
            yield pw[k], (-num, 2 * k * den), None, ((k, 1),)

    return PSeries.weighted_total(N, summands())


def _kernel_rules(N: int) -> tuple[PSeries, ...]:
    """The kernels a, b, c, d, e as rules in x and p, from the weight table.

    A one-slot kernel is sum_k [y_k] p_k x^k, a two-slot one the sum over
    ordered pairs (k, m) of [y_k y_m] p_k p_m x^(k+m).
    """
    pairs = [(k, m) for k in range(1, N) for m in range(1, N - k + 1)]
    a, b, d = (
        PSeries.from_part_pairs(N, {(k,): _linear_by(_LINEAR[name], k) for k in range(2, N + 1)})
        for name in "abd"
    )
    c, e = (
        PSeries.from_part_pairs(N, {km: _cross_by(*_CROSS[name], *km) for km in pairs})
        for name in "ce"
    )
    return a, b, c, d, e


def _recombined(
    N: int, psis: Iterable[PSeries], kernels: Iterable[PSeries]
) -> tuple[PSeries, PSeries, PSeries]:
    """u1, u2, u3 from psi_0..psi_2 and the kernels a..e, combined as in the
    degree split of the PDE residual."""
    (psi0, psi1, psi2), (a, b, c, d, e) = psis, kernels
    total = partial(PSeries.weighted_total, N)
    psi12, psi1_a = psi1 + psi2, psi1 * a
    # summands (f, c) and (f, c, g): each product enters its sum as it is read
    u1 = total(((psi2, 1), (psi0, -1), (a, -12), (b, -1), (d, 1)))
    u2 = total(((psi0, 1, psi12), (psi1_a, 24), (psi1, 1, b), (c, 1), (psi12, -1, d), (e, -1)))
    u3 = total(((psi1, -12, psi1_a), (psi1, -1, c), (psi12, 1, e)))
    return u1, u2, u3


def kernel_recombination(N: int) -> CheckResult:
    """The three kernel combinations vanish in the main ring.

    Each quadratic kernel is its weight-table rule in x and p (y_k = p_k x^k),
    and psi_i its rule ``closedform.psi``; they are combined exactly as in
    the degree split of the PDE residual, and all three combinations must be
    the zero series.  The residual reads each of them at x -> s, but the
    check needs no s: since s = x + O(x^2), reading a series cut at x^N at
    x -> s is an injective ring map that keeps its lowest x-degree part, so
    a combination vanishes at s exactly when it vanishes as a rule, and a
    nonzero one keeps its lead monomial, the witness.  The weights are
    shared with the symmetrized expansions, but the expansion is not: this
    is a third route, independent of both the exact polynomial route and
    the symmetrized series.
    """
    u1, u2, u3 = _recombined(N, (psi(i, N) for i in range(3)), _kernel_rules(N))
    return _first_nonzero(
        "kernel_recombination", (("degree 1", u1), ("degree 2", u2), ("degree 3", u3))
    )


# psi_pdiff_identity and g1_pdiff_identity stop at k = 4 (or N).  Both are
# derived for every k at once, and k = 1..4 already moves each k-dependent
# factor (k^j, a_k, 1/k, s^k); every further k costs four more full
# products (three and one) and four rule reads.  s_pdiff_identity, one
# product per k, runs to N.
PDIFF_MAX_K = 4


# 1 - psi_1 and its square.  `verify --N 16`: 1 entry.
@lru_cache(maxsize=4)
def _one_minus_psi1(N: int) -> tuple[PSeries, PSeries]:
    omp = PSeries.one(N) - psi_at_s(1, N)
    return omp, omp * omp


def _rule_at_s(k: int, N: int, c: tuple[int, int], b: tuple[int, int], i: int) -> PSeries:
    """x^k (c (1 - psi_1) + b psi_i) read at x -> s, the right side of a pdiff
    identity: a rule in x, read once through ``s_powers(N)``; c and b are
    integer pairs (num, den)."""
    omp = PSeries.one(N) - psi(1, N)
    rule = PSeries.weighted_total(N, ((omp, c), (psi(i, N), b)))
    return subst_x(rule.shift(x=k), s_powers(N))


def s_xdiff_identity(N: int) -> CheckResult:
    """x ds/dx * (1 - psi_1) = s."""
    s = s_series(N)
    omp = _one_minus_psi1(N)[0]
    diff = PSeries.weighted_total(N, ((s.xdiff(), 1, omp), (s, -1)))
    return _first_nonzero("s_xdiff_identity", [(None, diff)])


def s_pdiff_identity(N: int) -> CheckResult:
    """k ds/dp_k * (1 - psi_1) = a_k s^(k+1) for every k <= N."""
    s = s_series(N)
    pw = s_powers(N)
    omp = _one_minus_psi1(N)[0]

    def differences():
        for k in range(1, N + 1):
            rhs = pw[k + 1] if k + 1 <= N else PSeries.zero(N)
            num, den = a_weight(k)
            yield f"k={k}", PSeries.weighted_total(N, ((s.pdiff(k), k, omp), (rhs, (-num, den))))

    return _first_nonzero("s_pdiff_identity", differences())


def psi_pdiff_identity(N: int) -> CheckResult:
    """k dpsi_j/dp_k (1-psi_1) = k^j a_k s^k (1-psi_1) + a_k psi_{j+1} s^k."""
    omp = _one_minus_psi1(N)[0]
    total = partial(PSeries.weighted_total, N)

    def differences():
        for j in range(0, 3):
            pj = psi_at_s(j, N)
            for k in range(1, min(PDIFF_MAX_K, N) + 1):
                rhs = _rule_at_s(k, N, a_weight(k, j), a_weight(k), j + 1)
                yield f"j={j}, k={k}", total(((pj.pdiff(k), k, omp), (rhs, -1)))

    return _first_nonzero("psi_pdiff_identity", differences())


def g1_xdiff_identity(N: int) -> CheckResult:
    """24 x dG1/dx (1-psi_1)^2 = psi_2 - psi_1 (1-psi_1)."""
    omp, omp2 = _one_minus_psi1(N)
    summands = ((g1_closed(N).xdiff(), 24, omp2), (psi_at_s(2, N), -1), (psi_at_s(1, N), 1, omp))
    diff = PSeries.weighted_total(N, summands)
    return _first_nonzero("g1_xdiff_identity", [(None, diff)])


def g1_pdiff_identity(N: int) -> CheckResult:
    """24 dG1/dp_k (1-psi_1)^2 = a_k s^k (1-psi_1) + (a_k/k) s^k (psi_2 - (1-psi_1))."""
    g1 = g1_closed(N)
    omp2 = _one_minus_psi1(N)[1]
    total = partial(PSeries.weighted_total, N)

    def differences():
        for k in range(1, min(PDIFF_MAX_K, N) + 1):
            num, den = a_weight(k, -1)  # a_k/k
            # the right side regrouped as (a_k - a_k/k)(1 - psi_1) + (a_k/k) psi_2
            rhs = _rule_at_s(k, N, ((k - 1) * num, den), (num, den), 2)
            yield f"k={k}", total(((g1.pdiff(k), 24, omp2), (rhs, -1)))

    return _first_nonzero("g1_pdiff_identity", differences())


def f0_pdiff_axiom(N: int) -> CheckResult:
    """The axiomatic input dF_0/dp_k equals the p-derivative of f0, for each k <= N.

    f0 is the genus-0 series assembled from the explicit formula
    (``closedform.f0_series``); ``closedform.f0_pdiff`` writes the same
    derivatives through the substitution series instead.
    """
    f0 = f0_series(N)
    return _first_nonzero(
        "f0_pdiff_axiom",
        ((f"k={k}", f0_pdiff(k, N) - f0.pdiff(k)) for k in range(1, N + 1)),
    )


def elem_sym_extraction() -> CheckResult:
    """Coefficient-extraction rule for elementary symmetric functions, through x^8.

    (p_1+p_2+...)^k exp(sum p_i/i) = sum_lambda k! e_k(lambda)/theta(lambda) p_lambda
    for 0 <= k <= 8, in the series ring with each p_i carrying x^i so the
    truncation bound applies.  The right side has a term for each lambda with
    at least k parts, so every other coefficient on the left must vanish.
    """
    lin = PSeries.from_part_pairs(8, {(i,): (1, 1) for i in range(1, 9)})
    ex = exp(PSeries.from_part_pairs(8, {(i,): (1, i) for i in range(1, 9)}))
    lams = [(lam, theta(lam), elem_sym(lam)) for n in range(9) for lam in partitions_of(n)]

    def differences():
        power = PSeries.one(8)
        for k in range(9):
            want = {lam: (factorial(k) * e[k], th) for lam, th, e in lams if k <= lam.m}
            yield f"k={k}", power * ex - PSeries.from_part_pairs(8, want)
            power = power * lin

    return _first_nonzero("elem_sym_extraction", differences())


# ---------------------------------------------------------------------------
# Top-level report
# ---------------------------------------------------------------------------


def run_all_checks(N: int, *, inject_fault: bool = False) -> list[CheckResult]:
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
    checks += closed_form_series_checks()
    checks += [check_u1(), check_u2(), check_u3()]
    checks += series_u_checks()
    checks.append(kernel_recombination(N))
    checks.append(elem_sym_extraction())
    checks += [
        s_xdiff_identity(N),
        s_pdiff_identity(N),
        psi_pdiff_identity(N),
        g1_xdiff_identity(N),
        g1_pdiff_identity(N),
        f0_pdiff_axiom(N),
    ]
    return checks


def report_obj(checks: Iterable[CheckResult], config: Mapping) -> dict:
    """JSON-ready report, matching the CLI schema."""
    return {
        "checks": [
            {"name": c.name, "status": "pass" if c.ok else "fail"}
            | ({"witness": c.witness} if c.witness else {})
            for c in checks
        ],
        "config": dict(config),
    }
