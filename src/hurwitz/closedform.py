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

The tree function w = x e^w with [x^n] w = n^(n-1)/n! underlies the
symmetrized polynomial checks; its first three Euler derivatives satisfy
w' = w/(1-w), w'' = w/(1-w)^3, w''' = (w + 2 w^2)/(1-w)^5.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .series import (
    PSeries,
    Truncation,
    certify_fixed_point,
    exp,
    log1,
    solve_fixed_point,
    subst_x,
)


@dataclass(frozen=True)
class HurwitzRecord:
    """One computed Hurwitz number: mu * n! = |C_alpha| * c exactly."""

    alpha: Partition
    g: int
    r: int
    mu: Fraction
    c: int

    def __post_init__(self) -> None:
        n = self.alpha.n
        if self.mu * factorial(n) != class_size(self.alpha) * self.c:
            raise ValueError(f"inconsistent record {self}")


@dataclass(frozen=True)
class TreeSeries:
    """The tree function w = x e^w and its first three Euler derivatives."""

    w: PSeries
    d1: PSeries
    d2: PSeries
    d3: PSeries


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


def record(alpha: Partition, g: int) -> HurwitzRecord:
    mu = mu0(alpha) if g == 0 else mu1(alpha)
    return HurwitzRecord(
        alpha=alpha,
        g=g,
        r=alpha.n + alpha.m + 2 * (g - 1),
        mu=mu,
        c=c_value(alpha, g),
    )


# -- the substitution series s and everything written in it -----------------


@lru_cache(maxsize=None)
def s_series(trunc: Truncation) -> PSeries:
    """Unique solution of s = x exp(psi_0(s, p)) with zero constant term.

    The coefficients come from Lagrange inversion,

        [x^n] s = (1/n) [t^(n-1)] exp(n psi_0(t))
                = sum_{k<n} n^(k-1)/k! [t^(n-1)] psi_0(t)^k,

    which needs the powers psi_0^1 .. psi_0^(N-1).  The result is then
    certified exactly as the fixed point of the defining equation
    (``certify_fixed_point``, FixedPointError otherwise).
    """
    N = trunc.N
    psi0 = psi(0, trunc)
    terms = {(1, ()): Fraction(1)}  # k = 0 contributes to n = 1 only
    power = PSeries.one(trunc)
    for k in range(1, N):
        power = power * psi0
        kf = factorial(k)
        for (xd, pexp), c in power.terms.items():
            n = xd + 1
            if n <= N:
                mono = (n, pexp)
                terms[mono] = terms.get(mono, 0) + c * Fraction(n ** (k - 1), kf)
    xs = PSeries.x(trunc)
    return certify_fixed_point(
        lambda t: xs * exp(subst_x(psi0, t)), PSeries(trunc, terms)
    )


@lru_cache(maxsize=None)
def s_powers(trunc: Truncation) -> tuple[PSeries, ...]:
    """s^0 .. s^N for the given truncation."""
    out = [PSeries.one(trunc)]
    for _ in range(trunc.N):
        out.append(out[-1] * s_series(trunc))
    return tuple(out)


@lru_cache(maxsize=None)
def psi_at_s(i: int, trunc: Truncation) -> PSeries:
    """psi_i evaluated at x -> s, still a series in x and p."""
    return subst_x(psi(i, trunc), s_series(trunc))


def _formula_series(trunc: Truncation, g: int) -> PSeries:
    """sum over alpha of mu_g(alpha)/r! x^n p_alpha, r = n + m + 2g - 2.

    r is the number of transpositions, so multiplying a coefficient by
    n! r!/|C_alpha| recovers c_g(alpha).
    """
    mu = mu0 if g == 0 else mu1
    return PSeries(
        trunc,
        {
            (n, alpha.pexp()): mu(alpha) / factorial(n + alpha.m + 2 * g - 2)
            for n in range(1, trunc.N + 1)
            for alpha in partitions_of(n)
        },
    )


@lru_cache(maxsize=None)
def g1_defn(trunc: Truncation) -> PSeries:
    """Genus-1 series assembled partition by partition from the mu_1 formula.

    The x^n p_alpha coefficient is mu_1(alpha)/(n+m)!.
    """
    return _formula_series(trunc, 1)


@lru_cache(maxsize=None)
def g1_closed(trunc: Truncation) -> PSeries:
    """Genus-1 series in closed form through the substitution series."""
    psi1 = psi_at_s(1, trunc)
    psi0 = psi_at_s(0, trunc)
    return log1(-psi1) * Fraction(-1, 24) - psi0 * Fraction(1, 24)


@lru_cache(maxsize=None)
def f0_series(trunc: Truncation) -> PSeries:
    """Genus-0 generating series assembled from the mu_0 formula.

    The x^n p_alpha coefficient is mu_0(alpha)/(n+m-2)!, which is
    n^(m-3) prod a_{alpha_i} / theta(alpha).
    """
    return _formula_series(trunc, 0)


@lru_cache(maxsize=None)
def f0_pdiff(k: int, trunc: Truncation) -> PSeries:
    """dF_0/dp_k in terms of s (axiomatic input, see module docstring)."""
    if not 1 <= k <= trunc.K:
        raise ValueError(f"p-index {k} outside 1..{trunc.K}")
    ak = a_coeff(k)
    pw = s_powers(trunc)
    out = pw[k] * (ak / k**3) if k <= trunc.N else PSeries.zero(trunc)
    for r in range(1, trunc.N - k + 1):
        out = out - pw[k + r].shift(ak * a_coeff(r) / (k**2 * (k + r)), p=((r, 1),))
    return out


def f0_pdiff2(i: int, j: int, trunc: Truncation) -> PSeries:
    """Mixed second derivative of F_0: a_i a_j s^(i+j) / (i j (i+j))."""
    if i + j > trunc.N:
        return PSeries.zero(trunc)
    return s_powers(trunc)[i + j] * (a_coeff(i) * a_coeff(j) / (i * j * (i + j)))


@lru_cache(maxsize=None)
def tree(trunc: Truncation) -> TreeSeries:
    """The tree function by fixed point, plus its Euler derivatives."""
    xs = PSeries.x(trunc)
    w = solve_fixed_point(lambda t: xs * exp(t), trunc)
    d1 = w.xdiff()
    d2 = d1.xdiff()
    d3 = d2.xdiff()
    return TreeSeries(w=w, d1=d1, d2=d2, d3=d3)
