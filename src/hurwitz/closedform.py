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
the way Goulden and Jackson obtain the genus-0 counts, and every result is
certified exactly: x exp(psi_0(s, p)) must give back s, otherwise
FixedPointError is raised.

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
    Partition,
    a_coeff,
    class_size,
    elem_sym,
    factorization_count,
    partitions_of,
    psi,
)
from .series import PSeries, certify_fixed_point, exp, log1, subst_x


def _prod_a(alpha: Partition) -> Fraction:
    out = Fraction(1)
    for part in alpha.parts:
        out *= a_coeff(part)
    return out


def _bracket(alpha: Partition) -> int:
    """n^m - n^(m-1) - sum_{i=2}^m (i-2)! e_i n^(m-i); an integer."""
    n, m = alpha.n, alpha.m
    val = n**m - n ** (m - 1)
    for i in range(2, m + 1):
        val -= factorial(i - 2) * elem_sym(alpha, i) * n ** (m - i)
    return val


def mu0(alpha: Partition) -> Fraction:
    """Genus-0 Hurwitz number; n^(m-3) is an exact rational for m < 3."""
    n, m = alpha.n, alpha.m
    if n < 1:
        raise ValueError("alpha must be a partition of n >= 1")
    return (
        Fraction(class_size(alpha), factorial(n))
        * factorial(n + m - 2)
        * Fraction(n) ** (m - 3)
        * _prod_a(alpha)
    )


def mu1(alpha: Partition) -> Fraction:
    """Genus-1 Hurwitz number from the explicit bracket formula."""
    n, m = alpha.n, alpha.m
    if n < 1:
        raise ValueError("alpha must be a partition of n >= 1")
    return (
        Fraction(class_size(alpha), 24 * factorial(n))
        * factorial(n + m)
        * _prod_a(alpha)
        * _bracket(alpha)
    )


def c_value(alpha: Partition, g: int) -> int:
    """Factorization count c_g(alpha) = mu_g(alpha) * n! / |C_alpha| (g <= 1)."""
    if g == 0:
        mu = mu0(alpha)
    elif g == 1:
        mu = mu1(alpha)
    else:
        raise ValueError(f"no closed formula for genus {g}")
    return factorization_count(mu, alpha, g)


# -- the substitution series s and everything written in it -----------------


# One entry per N; a CLI run uses one (`verify --N 16`: 1).
@lru_cache(maxsize=16)
def s_series(N: int) -> PSeries:
    """Unique solution of s = x exp(psi_0(s, p)) with zero constant term.

    The coefficients come from Lagrange inversion,

        [x^n] s = (1/n) [t^(n-1)] exp(n psi_0(t))
                = sum_{k<n} n^(k-1)/k! [t^(n-1)] psi_0(t)^k,

    which needs the powers psi_0^1 .. psi_0^(N-1).  The result is then
    certified exactly as the fixed point of the defining equation
    (``certify_fixed_point``, FixedPointError otherwise).
    """
    psi0 = psi(0, N)
    xs = PSeries.x(N)
    s = xs  # k = 0 contributes to n = 1 only
    power = PSeries.one(N)
    for k in range(1, N):
        power = power * psi0
        kf = factorial(k)
        for d, part in power.x_parts().items():
            s = s + part.shift(Fraction((d + 1) ** (k - 1), kf), x=1)
    return certify_fixed_point(lambda t: xs * exp(subst_x(psi0, t)), s)


# One entry per N (`verify --N 16`: 1).
@lru_cache(maxsize=16)
def s_powers(N: int) -> tuple[PSeries, ...]:
    """s^0 .. s^N, cut at x^N."""
    out = [PSeries.one(N)]
    for _ in range(N):
        out.append(out[-1] * s_series(N))
    return tuple(out)


# psi_0..psi_3 per N (`verify --N 16`: 4).
@lru_cache(maxsize=64)
def psi_at_s(i: int, N: int) -> PSeries:
    """psi_i evaluated at x -> s, still a series in x and p."""
    pw = s_powers(N)
    parts = psi(i, N).x_parts(strip=True).items()
    return sum((cd * pw[d] for d, cd in parts), PSeries.zero(N))


def _formula_series(N: int, g: int) -> PSeries:
    """sum over alpha of mu_g(alpha)/r! x^n p_alpha, r = n + m + 2g - 2.

    r is the number of transpositions, so multiplying a coefficient by
    n! r!/|C_alpha| recovers c_g(alpha).
    """
    mu = mu0 if g == 0 else mu1
    return PSeries.from_parts(
        N,
        {
            alpha: mu(alpha) / factorial(n + alpha.m + 2 * g - 2)
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
    pw = s_powers(N)
    out = pw[k] * (ak / k**3) if k <= N else PSeries.zero(N)
    for r in range(1, N - k + 1):
        out = out - pw[k + r].shift(ak * a_coeff(r) / (k**2 * (k + r)), p=((r, 1),))
    return out
