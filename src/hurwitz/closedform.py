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
s, dF_0/dp_k) is a rule in x read at x -> s through that table
(``series.subst_x``).  The one-part series psi_i, whose weights
a_r = r^r/(r-1)! drive the closed formulas, are built here too.

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

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .partitions import (
    FixedPointError,
    Partition,
    a_coeff,
    elem_sym,
    factorization_count,
    factorization_length,
    partitions_of,
    theta,
)
from .series import PSeries, exp, log1, powers, subst_x


def _prod_a(alpha: Partition) -> tuple[int, int]:
    """prod_i a_{alpha_i} = prod_i k^k / prod_i (k - 1)!, k = alpha_i, as (num, den)."""
    num = den = 1
    for k in alpha.parts:
        num *= k**k
        den *= factorial(k - 1)
    return num, den


def _bracket(alpha: Partition) -> int:
    """n^m - n^(m-1) - sum_{i=2}^m (i-2)! e_i n^(m-i); an integer."""
    n, m, e = alpha.n, alpha.m, elem_sym(alpha)
    val = n**m - n ** (m - 1)
    for i in range(2, m + 1):
        val -= factorial(i - 2) * e[i] * n ** (m - i)
    return val


def mu0(alpha: Partition) -> Fraction:
    """Genus-0 Hurwitz number (n+m-2)! n^(m-3) prod a_{alpha_i} / theta(alpha).

    |C_alpha|/n! is 1/theta(alpha); the product is kept in integers and
    n^(m-3) moves to the denominator for m < 3, so one Fraction is built.
    """
    n, m, r = alpha.n, alpha.m, factorization_length(alpha, 0)
    num, den = _prod_a(alpha)
    num *= factorial(r)
    den *= theta(alpha)
    if m >= 3:
        num *= n ** (m - 3)
    else:
        den *= n ** (3 - m)
    return Fraction(num, den)


def mu1(alpha: Partition) -> Fraction:
    """Genus-1 Hurwitz number (n+m)! prod a_{alpha_i} * bracket / (24 theta(alpha))."""
    r = factorization_length(alpha, 1)
    num, den = _prod_a(alpha)
    return Fraction(num * factorial(r) * _bracket(alpha), 24 * den * theta(alpha))


# The closed formulas by genus: the closed engine serves exactly g < len(MU).
MU = (mu0, mu1)


def c_value(alpha: Partition, g: int) -> int:
    """Factorization count c_g(alpha) = mu_g(alpha) * n! / |C_alpha| (g < len(MU))."""
    factorization_length(alpha, g)  # the request check every engine shares
    if g >= len(MU):
        raise ValueError(f"no closed formula for genus {g}")
    return factorization_count(MU[g](alpha), alpha, g)


# -- the substitution series s and everything written in it -----------------


def psi(i: int, N: int) -> PSeries:
    """The one-part series psi_i = sum_r r^(i-1) a_r p_r x^r, truncated at x^N.

    Negative i is allowed; the exponent just yields exact rational weights.
    """
    return PSeries.from_parts(
        N, {(r,): Fraction(r) ** (i - 1) * a_coeff(r) for r in range(1, N + 1)}
    )


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
        yield xs  # k = 0 contributes to n = 1 only
        for k, power in enumerate(powers(psi0)[1:N], start=1):
            kf = factorial(k)
            for d, part in power.x_parts().items():
                yield part.shift(Fraction((d + 1) ** (k - 1), kf), x=1)

    pw = powers(PSeries.total(N, lagrange_parts()))
    if xs * exp(subst_x(psi0, pw)) != pw[1]:
        raise FixedPointError(
            f"x exp(psi_0(s)) != s at N={N}: the series from the inversion "
            "formula is not the fixed point"
        )
    return pw


def s_series(N: int) -> PSeries:
    """The substitution series s itself: ``s_powers(N)[1]``."""
    return s_powers(N)[1]


# psi_0..psi_3 per N (`verify --N 16`: 4).
@lru_cache(maxsize=64)
def psi_at_s(i: int, N: int) -> PSeries:
    """psi_i evaluated at x -> s, still a series in x and p."""
    return subst_x(psi(i, N), s_powers(N))


def _formula_series(N: int, g: int) -> PSeries:
    """sum over alpha of mu_g(alpha)/r! x^n p_alpha, r = factorization_length(alpha, g).

    r is the number of transpositions, so multiplying a coefficient by
    n! r!/|C_alpha| recovers c_g(alpha).
    """
    return PSeries.from_parts(
        N,
        {
            alpha: MU[g](alpha) / factorial(factorization_length(alpha, g))
            for n in range(1, N + 1)
            for alpha in partitions_of(n)
        },
    )


# One entry per N (`verify --N 16`: 1).
@lru_cache(maxsize=16)
def g1_defn(N: int) -> PSeries:
    """Genus-1 series assembled partition by partition from the mu_1 formula.

    The x^n p_alpha coefficient is mu_1(alpha)/(n+m)!.
    """
    return _formula_series(N, 1)


# One entry per N (`verify --N 16`: 1).
@lru_cache(maxsize=16)
def g1_closed(N: int) -> PSeries:
    """Genus-1 series in closed form through the substitution series."""
    psi1 = psi_at_s(1, N)
    psi0 = psi_at_s(0, N)
    return log1(-psi1) * Fraction(-1, 24) - psi0 * Fraction(1, 24)


# One entry per N (`verify --N 16`: 1).
@lru_cache(maxsize=16)
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
    ak = a_coeff(k)
    # the rule x^k (a_k/k^3 - sum_r a_k a_r/(k^2 (k+r)) p_r x^r), read at x -> s
    weights = {(r,): -ak * a_coeff(r) / (k**2 * (k + r)) for r in range(1, N - k + 1)}
    rule = PSeries.from_parts(N, {(): ak / k**3, **weights}).shift(x=k)
    return subst_x(rule, s_powers(N))
