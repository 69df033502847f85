"""Integer partitions and the symmetric-group statistics built on them.

A partition alpha = (alpha_1 >= ... >= alpha_m >= 1) of n indexes a
conjugacy class C_alpha of the symmetric group S_n.  This module provides
enumeration in reverse-lexicographic order, the class size |C_alpha|, the
statistic theta(alpha) = prod_i i^{m_i} m_i! = n!/|C_alpha|, elementary
symmetric functions of the parts, the weights a_r = r^r/(r-1)! of the
closed Hurwitz formulas, the integrality check of a factorization count,
the two error types the engines raise (``IntegralityError``,
``FixedPointError``) and the odd-prime code prod q_k^e of (k, e) pairs
(``prime_code``, ``prime_pairs``) that ``series`` and ``cutjoin`` share.
``factorization_length`` is the one definition of the number
r = n + m + 2g - 2 of transpositions (simple branch points) of a genus-g
request, and the one check of that request; every engine keys its answer
by it.  It imports no series code, so the counting engines that build on
it (``cutjoin``, ``oracle``) stay independent of the series ring.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator


class IntegralityError(ArithmeticError):
    """A computed factorization count is not a nonnegative integer."""


class FixedPointError(RuntimeError):
    """A candidate series is not the fixed point of its defining equation."""


# q_1, q_2, ...: the odd primes, grown on demand.
_PRIMES = [3]


def odd_prime(k: int) -> int:
    """q_k, the k-th odd prime (q_1 = 3)."""
    if k < 1:
        raise ValueError(f"odd-prime index {k} is below 1")
    while len(_PRIMES) < k:
        q = _PRIMES[-1] + 2
        while any(q % p == 0 for p in _PRIMES if p * p <= q):
            q += 2
        _PRIMES.append(q)
    return _PRIMES[k - 1]


def prime_code(pairs: Iterable[tuple[int, int]]) -> int:
    """prod q_k^e over the (k, e) pairs, e >= 0; repeated k add up."""
    code = 1
    for k, e in pairs:
        if e < 0:
            raise ValueError(f"negative exponent {e} of q_{k}")
        code *= odd_prime(k) ** e
    return code


def prime_exponent(code: int, k: int) -> int:
    """The exponent of q_k in code."""
    q, e = odd_prime(k), 0
    while code % q == 0:
        code //= q
        e += 1
    return e


def prime_pairs(code: int) -> tuple[tuple[int, int], ...]:
    """The (k, e) pairs of a positive odd code, k ascending, e >= 1."""
    if code < 1 or not code & 1:
        raise ValueError(f"{code} is not a positive odd code")
    pairs, k = [], 0
    while code > 1:
        k += 1
        q = odd_prime(k)
        if code % q == 0:
            pairs.append((k, e := prime_exponent(code, k)))
            code //= q**e
    return tuple(pairs)


class Partition:
    """Weakly decreasing tuple of positive parts; the empty partition is legal."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        pt = tuple(int(a) for a in parts)
        for pos, a in enumerate(pt):
            if a < 1:
                raise ValueError(f"parts must be positive, got {a}")
            if pos and pt[pos - 1] < a:
                raise ValueError(f"parts must be weakly decreasing, got {pt}")
        self.parts = pt

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def m(self) -> int:
        return len(self.parts)

    def mults(self) -> dict[int, int]:
        """Multiplicity view: part size -> number of occurrences."""
        out: dict[int, int] = {}
        for a in self.parts:
            out[a] = out.get(a, 0) + 1
        return out

    def pexp(self) -> tuple[tuple[int, int], ...]:
        """The exponent vector of the monomial p_alpha = prod p_{alpha_i}."""
        return tuple(sorted(self.mults().items()))

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.parts) + ")"


def _rev_lex(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n with parts <= cap, largest first part first."""
    if n == 0:
        yield ()
    for first in range(min(n, cap), 0, -1):
        for rest in _rev_lex(n - first, first):
            yield (first, *rest)


# One entry per size n (`verify --N 16`: 17).
@lru_cache(maxsize=64)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each once, in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(map(Partition, _rev_lex(n, n)))


def theta(alpha: Partition) -> int:
    """theta(alpha) = prod_i i^{m_i} m_i!, the order of the centralizer."""
    out = 1
    for i, mi in alpha.mults().items():
        out *= i**mi * factorial(mi)
    return out


def class_size(alpha: Partition) -> int:
    """|C_alpha| = n!/theta(alpha)."""
    return factorial(alpha.n) // theta(alpha)


def factorization_length(alpha: Partition, g: int) -> int:
    """r = n + m + 2g - 2, the Riemann-Hurwitz number of transpositions.

    Refuses the empty partition and a negative genus with ValueError.
    """
    if alpha.n < 1:
        raise ValueError("alpha must be a partition of n >= 1")
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return alpha.n + alpha.m + 2 * g - 2


def factorization_count(mu: Fraction, alpha: Partition, g: int) -> int:
    """c_g(alpha) = mu_g(alpha) * n!/|C_alpha|, checked to be a nonnegative integer."""
    raw = mu * theta(alpha)
    if raw.denominator != 1 or raw < 0:
        raise IntegralityError(f"non-integral count for {alpha}, g={g}: {raw}")
    return int(raw)


def elem_sym(alpha: Partition) -> tuple[int, ...]:
    """(e_0, ..., e_m), the elementary symmetric functions of the m parts.

    e_k = 0 for k > m.  One division-free DP on prod_j (1 + alpha_j t).
    """
    e = [1] + [0] * alpha.m
    for j, a in enumerate(alpha.parts, 1):
        for idx in range(j, 0, -1):
            e[idx] += a * e[idx - 1]
    return tuple(e)


# `verify --N 12` asks for 777 weights, `--N 16` for 1,079; both of 20 distinct r.
@lru_cache(maxsize=256)
def a_coeff(r: int) -> Fraction:
    """The weight a_r = r^r/(r-1)! attached to a part of size r."""
    if r < 1:
        raise ValueError("r must be at least 1")
    return Fraction(r**r, factorial(r - 1))
