"""Closed formulas for genus 0 and genus 1 Hurwitz numbers.

The genus-0 count of almost-simple coverings with ramification type alpha is

    mu_0(alpha) = |C_alpha|/n! * (n+m-2)! * n^(m-3) * prod_i a_{alpha_i}

with a_r = r^r/(r-1)!, and the genus-1 count is

    mu_1(alpha) = |C_alpha|/(24 n!) * (n+m)! * prod_i a_{alpha_i}
                  * (n^m - n^(m-1) - sum_{i=2}^m (i-2)! e_i n^(m-i)).

The genus-1 generating series G_1 is assembled here both termwise from that
bracket and in closed form through the substitution series s = s(x, p), the
unique solution of s = x exp(psi_0(s, p)):

    G_1 = -(1/24) log(1 - psi_1(s, p)) - (1/24) psi_0(s, p).

s is computed by Lagrange inversion, [x^n] s = (1/n) [t^(n-1)] exp(n psi_0),
the way Goulden and Jackson obtain the genus-0 counts.  ``s_powers`` is the
one place that builds s: it builds the power table s^0 .. s^N once and
certifies s exactly against it (x exp(psi_0(s, p)) must give back s,
otherwise FixedPointError is raised).  Every series written in s (psi_i at
s, dF_0/dp_k, and the right sides of ``verify``'s pdiff identities, which
read ``psi`` there) is a rule in x read at x -> s through that table
(``series.subst_x``); no series in s is multiplied to build one.  The
one-part series psi_i, whose weights a_r = r^r/(r-1)! drive the closed
formulas, are built here too, from the integer pairs of ``a_weight``.

The counts and the termwise series (``g1_defn``, ``f0_series``) are built
in integers: c_g(alpha)/r! has no r! left in it, so each partition gives
one integer pair (``_OVER_R``), with no theta(alpha) in it.  ``c_value``
multiplies the pair by r! into a count (``partitions.exact_quotient``).
The termwise series divide each pair by theta(alpha), where theta enters
once, then bring the pairs to one denominator and reduce once
(``PSeries.from_part_pairs``).  ``mu0`` and ``mu1`` read ``c_value`` over
theta(alpha); they are the only code here that builds a Fraction or loads
``fractions``.  Every weight of the series code (the
Lagrange weights of ``s_powers``, ``g1_closed``'s -1/24) is an int or an
integer pair.

The genus-0 series enters the verification through its first p-derivatives

    dF_0/dp_k = (a_k/k^3) s^k - (a_k/k^2) sum_r a_r p_r s^(k+r)/(k+r),

taken as given from the transitive-factorization literature (everything
else in this package is derived from scratch).  ``hurwitz verify``
certifies this input with its check ``f0_pdiff_axiom``: for every retained
k, f0_pdiff(k) must equal the p_k-derivative of the genus-0 series
f0_series, which is assembled term by term from the explicit mu_0 formula.

Every series here is cut at x^N and takes N alone: the x-degree is the one
bound exactness needs, since no operation lowers it.  The tree function
w = x e^w that underlies the symmetrized polynomial checks is not built
here; ``verify`` expands it from its explicit coefficients n^(n-1)/n!.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import TYPE_CHECKING

from .partitions import (
    FixedPointError,
    Partition,
    SizeLimitExceeded,
    a_weight,
    elem_sym,
    exact_quotient,
    factorization_length,
    partitions_of,
    theta,
)
from .series import PSeries, exp, log1, powers, subst_x

if TYPE_CHECKING:
    from fractions import Fraction


def _prod_a(alpha: Partition) -> tuple[int, int]:
    """prod_i a_{alpha_i} as (num, den): the pairs of ``a_weight`` multiplied out."""
    num = den = 1
    for a, b in map(a_weight, alpha):
        num, den = num * a, den * b
    return num, den


def _bracket(alpha: Partition) -> int:
    """n^m - n^(m-1) - sum_{i=2}^m (i-2)! e_i n^(m-i); an integer."""
    n, m, e = alpha.n, alpha.m, elem_sym(alpha)
    val = n**m - n ** (m - 1)
    for i in range(2, m + 1):
        val -= factorial(i - 2) * e[i] * n ** (m - i)
    return val


def _c0_over_r(alpha: Partition) -> tuple[int, int]:
    """c_0(alpha)/r!, r = n+m-2: n^(m-3) prod a_{alpha_i}, as (num, den).

    n^(m-3) moves to the denominator for m < 3.
    """
    n, m = alpha.n, alpha.m
    num, den = _prod_a(alpha)
    if m >= 3:
        return num * n ** (m - 3), den
    return num, den * n ** (3 - m)


def _c1_over_r(alpha: Partition) -> tuple[int, int]:
    """c_1(alpha)/r!, r = n+m: prod a_{alpha_i} * bracket / 24, as (num, den)."""
    num, den = _prod_a(alpha)
    return num * _bracket(alpha), 24 * den


# c_g(alpha)/r! by genus, in integers and without theta: c_value multiplies
# them by r!, and the termwise series divide them by theta(alpha).  The closed
# engine serves exactly g < len(_OVER_R).
_OVER_R = (_c0_over_r, _c1_over_r)


def c_value(alpha: Partition, g: int) -> int:
    """c_g(alpha) = num r! / den, (num, den) = c_g(alpha)/r!; g < len(_OVER_R)."""
    r = factorization_length(alpha, g)  # the request check every engine shares
    if g >= len(_OVER_R):
        raise SizeLimitExceeded(f"no closed formula for genus {g}")
    num, den = _OVER_R[g](alpha)
    return exact_quotient(num * factorial(r), den, f"non-integral count for {alpha}, g={g}")


def mu0(alpha: Partition) -> Fraction:
    """Genus-0 Hurwitz number (n+m-2)! n^(m-3) prod a_{alpha_i} / theta(alpha)."""
    from fractions import Fraction  # the Fractions of the module: mu read out

    return Fraction(c_value(alpha, 0), theta(alpha))


def mu1(alpha: Partition) -> Fraction:
    """Genus-1 Hurwitz number (n+m)! prod a_{alpha_i} * bracket / (24 theta(alpha))."""
    from fractions import Fraction

    return Fraction(c_value(alpha, 1), theta(alpha))


# -- the substitution series s and everything written in it -----------------


# psi_0..psi_3 per N (`verify --N 16`: 4): s_powers, psi_at_s and verify's rules.
@lru_cache(maxsize=48)
def psi(i: int, N: int) -> PSeries:
    """The one-part series psi_i = sum_r r^(i-1) a_r p_r x^r, truncated at x^N.

    Negative i is allowed; each weight is an integer pair (``a_weight``).
    """
    return PSeries.from_part_pairs(N, {(r,): a_weight(r, i - 1) for r in range(1, N + 1)})


# One entry per N; a CLI run uses one (`verify --N 16`: 1).
@lru_cache(maxsize=16)
def s_powers(N: int) -> tuple[PSeries, ...]:
    """s^0 .. s^N for the unique solution of s = x exp(psi_0(s, p)), cut at x^N.

    s has zero constant term; its coefficients come from Lagrange inversion,

        [x^n] s = (1/n) [t^(n-1)] exp(n psi_0(t))
                = sum_{k<n} n^(k-1)/k! [t^(n-1)] psi_0(t)^k,

    which reads psi_0^1 .. psi_0^(N-1) from ``powers(psi_0)``.  The powers
    of s are built once, and with them s is certified exactly as the fixed
    point of the defining equation (FixedPointError otherwise).  An x-adic
    contraction has exactly one fixed point, so a candidate that passes is
    that fixed point, however it was computed.
    """
    psi0 = psi(0, N)
    xs = PSeries.x(N)

    def lagrange_parts():
        yield xs, 1  # k = 0 contributes to n = 1 only
        for k, power in enumerate(powers(psi0)[1:N], start=1):
            kf = factorial(k)
            for d, part in power.x_parts().items():
                yield part, ((d + 1) ** (k - 1), kf), xs

    pw = powers(PSeries.weighted_total(N, lagrange_parts()))
    if xs * exp(subst_x(psi0, pw)) != pw[1]:
        raise FixedPointError(
            f"x exp(psi_0(s)) != s at N={N}: the series from the inversion "
            "formula is not the fixed point"
        )
    return pw


def s_series(N: int) -> PSeries:
    """The substitution series s itself: ``s_powers(N)[1]``."""
    return s_powers(N)[1]


# psi_0..psi_2 per N (`verify --N 16`: 3).
@lru_cache(maxsize=48)
def psi_at_s(i: int, N: int) -> PSeries:
    """psi_i evaluated at x -> s, still a series in x and p."""
    return subst_x(psi(i, N), s_powers(N))


def _formula_series(N: int, g: int) -> PSeries:
    """sum over alpha of mu_g(alpha)/r! x^n p_alpha, r = factorization_length(alpha, g).

    r is the number of transpositions, so multiplying a coefficient by
    n! r!/|C_alpha| recovers c_g(alpha).  Each coefficient is the integer
    pair c_g(alpha)/r! (``_OVER_R``) with theta(alpha) put into its
    denominator; the series brings them to one denominator and reduces once.
    """
    over_r = _OVER_R[g]
    alphas = (alpha for n in range(1, N + 1) for alpha in partitions_of(n))
    pairs = ((alpha, over_r(alpha), theta(alpha)) for alpha in alphas)
    return PSeries.from_part_pairs(N, {alpha: (num, den * th) for alpha, (num, den), th in pairs})


def g1_defn(N: int) -> PSeries:
    """Genus-1 series assembled partition by partition from the mu_1 formula.

    The x^n p_alpha coefficient is mu_1(alpha)/(n+m)!.
    """
    return _formula_series(N, 1)


# One entry per N (`verify --N 16`: 1).
@lru_cache(maxsize=16)
def g1_closed(N: int) -> PSeries:
    """Genus-1 series in closed form through the substitution series."""
    w = (-1, 24)
    return PSeries.weighted_total(N, ((log1(-psi_at_s(1, N)), w), (psi_at_s(0, N), w)))


def f0_series(N: int) -> PSeries:
    """Genus-0 generating series assembled from the mu_0 formula.

    The x^n p_alpha coefficient is mu_0(alpha)/(n+m-2)!, which is
    n^(m-3) prod a_{alpha_i} / theta(alpha).
    """
    return _formula_series(N, 0)


# k = 1..N per N (`verify --N 16`: 16).
@lru_cache(maxsize=256)
def f0_pdiff(k: int, N: int) -> PSeries:
    """dF_0/dp_k in terms of s (axiomatic input, see module docstring)."""
    if k < 1:
        raise ValueError(f"p-index {k} is below 1")
    (n2, d2), rule = a_weight(k, -2), {(): a_weight(k, -3)}
    # the rule x^k (a_k/k^3 - sum_r a_k a_r/(k^2 (k+r)) p_r x^r), read at x -> s
    for r in range(1, N - k + 1):
        nr, dr = a_weight(r)
        rule[(r,)] = -n2 * nr, d2 * dr * (k + r)
    return subst_x(PSeries.from_part_pairs(N, rule).shift(x=k), s_powers(N))
