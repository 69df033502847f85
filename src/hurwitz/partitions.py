"""Integer partitions and the symmetric-group statistics built on them.

A partition alpha = (alpha_1 >= ... >= alpha_m >= 1) of n indexes a class
C_alpha of S_n.  ``Partition`` is a validated tuple that equals and hashes
as its parts, and every engine, cache and writer reads it directly.  This
module gives enumeration in reverse-lexicographic order, the class size
|C_alpha|, theta(alpha) = prod_i i^{m_i} m_i! = n!/|C_alpha|, elementary
symmetric functions of the parts, the weights r^j a_r of the closed
formulas, a_r = r^r/(r-1)!, as integer pairs (``a_weight``), the one
integrality check that turns every engine's count into an int
(``exact_quotient``, in integers alone), the error types the engines raise
(``IntegralityError``, ``FixedPointError``, ``SizeLimitExceeded``) and the
odd-prime code prod q_k^e of (k, e) pairs (``prime_code``,
``prime_pairs``) that ``series`` and ``cutjoin`` share.
``factorization_length`` is the one definition of the number
r = n + m + 2g - 2 of transpositions of a genus-g request, and the one
check of that request; every engine keys its answer by it.  It imports no
series code, so the counting engines that build on it (``cutjoin``,
``oracle``) stay independent of the series ring.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator


class IntegralityError(ArithmeticError):
    """A computed factorization count is not a nonnegative integer."""


class FixedPointError(RuntimeError):
    """A candidate series is not the fixed point of its defining equation."""


class SizeLimitExceeded(ValueError):
    """A request outside the range an engine serves."""


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


def prime_exponent(code: int, q: int) -> int:
    """The exponent of the odd prime q in code."""
    e = 0
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
            pairs.append((k, e := prime_exponent(code, q)))
            code //= q**e
    return tuple(pairs)


class Partition(tuple):
    """Validated tuple of weakly decreasing positive parts; empty is legal too."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> Partition:
        pt = tuple(parts)
        for pos, a in enumerate(pt):
            if type(a) is not int:  # no silent int(): 2.9, "3" and True are refused
                raise TypeError(f"parts must be int, not {type(a).__name__}")
            if a < 1:
                raise ValueError(f"parts must be positive, got {a}")
            if pos and pt[pos - 1] < a:
                raise ValueError(f"parts must be weakly decreasing, got {pt}")
        return super().__new__(cls, pt)

    @property
    def n(self) -> int:
        return sum(self)

    @property
    def m(self) -> int:
        return len(self)

    def mults(self) -> dict[int, int]:
        """Multiplicity view: part size -> number of occurrences."""
        out: dict[int, int] = {}
        for a in self:
            out[a] = out.get(a, 0) + 1
        return out

    def pexp(self) -> tuple[tuple[int, int], ...]:
        """The exponent vector of the monomial p_alpha = prod p_{alpha_i}."""
        return tuple(sorted(self.mults().items()))

    def __repr__(self) -> str:
        return f"Partition{tuple(self)}"

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self)) + ")"


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


def exact_quotient(num: int, den: int, what: str) -> int:
    """num/den for den > 0: the one check that turns an engine's count into an int.
    A remainder or a negative quotient raises IntegralityError "what: num/den"."""
    q, rem = divmod(num, den)
    if rem or q < 0:
        raise IntegralityError(f"{what}: {num}/{den}")
    return q


def elem_sym(alpha: Partition) -> tuple[int, ...]:
    """(e_0, ..., e_m), the elementary symmetric functions of the m parts.

    e_k = 0 for k > m.  One division-free DP on prod_j (1 + alpha_j t).
    """
    e = [1] + [0] * alpha.m
    for j, a in enumerate(alpha, 1):
        for idx in range(j, 0, -1):
            e[idx] += a * e[idx - 1]
    return tuple(e)


def a_weight(r: int, j: int = 0) -> tuple[int, int]:
    """r^j a_r = r^(r+j)/(r-1)! as an unreduced integer pair (num, den), any integer j."""
    if r < 1:
        raise ValueError("r must be at least 1")
    e = r + j
    return (r**e, factorial(r - 1)) if e >= 0 else (1, r**-e * factorial(r - 1))

