"""Cut-and-join evolution of the Hurwitz numbers, as a recurrence on partitions.

The generating series Phi(u, x, z, p) collects the Hurwitz numbers
mu_g(alpha) = |C_alpha| c_g(alpha) / n! with weight u^r/r! x^n z^g p_alpha,
r = n + m + 2(g - 1).  Multiplying a factorization by one more
transposition either joins two cycles (producing p_{i+j} from p_i p_j,
with the genus-raising variant carrying z) or cuts one (p_i p_j from
p_{i+j}), which makes Phi satisfy a first-order PDE in u whose right side
is quadratic.  Reading that PDE as a recurrence on the u-orders gives

    Phi_{r+1} = 1/2 * [ sum_{i,j} i j p_{i+j} z d2(Phi_r)/dp_i dp_j
                        + sum_{i,j} (i+j) p_i p_j d(Phi_r)/dp_{i+j}
                        + sum_{s} C(r,s) sum_{i,j} i j p_{i+j}
                              d(Phi_s)/dp_i * d(Phi_{r-s})/dp_j ]

with the single seed Phi_0 = x p_1 (the empty factorization of the one-cycle
in S_1).  The binomial weights come from the u^r/r! normalization.

In every monomial of Phi_r the x-degree is the size n of alpha and the
z-degree is g = (r - n - m)/2 + 1, so neither carries information: order r
is stored as a map from the parts of alpha to mu_g(alpha).  On one term
the three families of the recurrence act as follows:

* cut: a part k splits into {i, k - i}; n and g are kept;
* handle join: two parts merge into their sum; n is kept and g rises by 1;
* cross join: a part of a term of Phi_s and a part of a term of Phi_{r-s}
  merge into their sum; n and g are the sums of those of the two terms.

Terms with n > N or g > G are dropped.  No family lowers n or g, so every
kept coefficient equals its value in the untruncated recurrence.  The number
of steps is not a bound of its own: a type with n <= N and g <= G has at
most n parts, so it lives at order r = n + m + 2g - 2 <= 2N + 2G - 2, and
``evolve`` runs exactly that many steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterator

from .partitions import Partition, factorization_count, partitions_of

Parts = tuple[int, ...]
Order = dict[Parts, Fraction]
# The p-derivatives of one order, bucketed by the (n, g) of the term they
# come from: d/dp_i of c p_alpha is the entry (i, alpha less one part i,
# multiplicity of i in alpha times c).
Derivatives = dict[tuple[int, int], list[tuple[int, Parts, Fraction]]]

_ZERO = Fraction(0)


def _genus(r: int, parts: Parts) -> int:
    return (r - sum(parts) - len(parts)) // 2 + 1


def _distinct(parts: Parts) -> Iterator[tuple[Parts, int, int]]:
    """(parts less one copy of k, k, multiplicity of k) for each distinct part k."""
    for pos, k in enumerate(parts):
        if pos == 0 or parts[pos - 1] != k:
            yield parts[:pos] + parts[pos + 1 :], k, parts.count(k)


def _add(acc: Order, parts: Parts, c: Fraction) -> None:
    key = tuple(sorted(parts, reverse=True))
    acc[key] = acc.get(key, _ZERO) + c


def _derivatives(phi: Order, r: int) -> Derivatives:
    out: Derivatives = {}
    for parts, c in phi.items():
        bucket = out.setdefault((sum(parts), _genus(r, parts)), [])
        for rest, i, e in _distinct(parts):
            bucket.append((i, rest, e * c))
    return out


def _cut_and_handle_join(phi: Order, r: int, G: int, acc: Order) -> None:
    """Add the cut and genus-raising join terms of Phi_{r+1}, halved."""
    for parts, c in phi.items():
        for rest, k, e in _distinct(parts):
            for i in range(1, k // 2 + 1):
                weight = e * k if 2 * i < k else Fraction(e * k, 2)
                _add(acc, rest + (i, k - i), weight * c)
        if _genus(r, parts) < G:
            for a, b in combinations(range(len(parts)), 2):
                rest = parts[:a] + parts[a + 1 : b] + parts[b + 1 :]
                _add(acc, rest + (parts[a] + parts[b],), parts[a] * parts[b] * c)


def _cross_join(
    da: Derivatives, db: Derivatives, weight: Fraction, N: int, G: int, acc: Order
) -> None:
    """Add weight * sum_{i,j} i j p_{i+j} (d a/dp_i)(d b/dp_j) for n <= N, g <= G."""
    for (na, ga), entries_a in da.items():
        for (nb, gb), entries_b in db.items():
            if na + nb > N or ga + gb > G:
                continue
            for i, rest_a, ca in entries_a:
                wa = weight * i * ca
                for j, rest_b, cb in entries_b:
                    _add(acc, rest_a + rest_b + (i + j,), wa * j * cb)


@dataclass(frozen=True)
class CutJoinState:
    """Orders Phi_0..Phi_r of the evolution, each a map parts -> mu_g(alpha)."""

    N: int
    G: int
    phi: tuple[Order, ...]

    @property
    def order(self) -> int:
        return len(self.phi) - 1


# One entry per (N, G); each CLI command uses one.
@lru_cache(maxsize=16)
def evolve(N: int, G: int) -> CutJoinState:
    """Phi_0..Phi_R for the types with n <= N and g <= G, R = 2N + 2G - 2."""
    if N < 1 or G < 0:
        raise ValueError(f"invalid cut-and-join bounds N={N}, G={G}")
    phi: list[Order] = [{(1,): Fraction(1)}]
    derivs = [_derivatives(phi[0], 0)]
    for r in range(2 * N + 2 * G - 2):
        acc: Order = {}
        _cut_and_handle_join(phi[r], r, G, acc)
        # the s and r - s cross joins are equal; pair them up
        for s in range(r // 2 + 1):
            weight = Fraction(comb(r, s), 1 if 2 * s < r else 2)
            _cross_join(derivs[s], derivs[r - s], weight, N, G, acc)
        nxt = {parts: c for parts, c in acc.items() if c}
        phi.append(nxt)
        derivs.append(_derivatives(nxt, r + 1))
    return CutJoinState(N, G, tuple(phi))


def extract_c(state: CutJoinState, alpha: Partition, g: int) -> int:
    """Recover c_g(alpha) = mu_g(alpha) * n! / |C_alpha| from Phi_r."""
    n, m = alpha.n, alpha.m
    if n < 1:
        raise ValueError("alpha must be a partition of n >= 1")
    r = n + m + 2 * (g - 1)
    if n > state.N or g > state.G or r > state.order:
        raise ValueError(
            f"query (n={n}, g={g}, r={r}) outside truncation "
            f"(N={state.N}, G={state.G}, computed orders {state.order})"
        )
    return factorization_count(state.phi[r].get(alpha.parts, _ZERO), alpha, g)


def run(N: int, G: int = 1) -> dict[tuple[Partition, int], int]:
    """Table of c_g(alpha) for every alpha with n <= N and every g <= G."""
    state = evolve(N, G)
    return {
        (alpha, g): extract_c(state, alpha, g)
        for n in range(1, N + 1)
        for alpha in partitions_of(n)
        for g in range(G + 1)
    }
