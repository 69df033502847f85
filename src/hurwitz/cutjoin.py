"""Cut-and-join evolution of the Hurwitz numbers, as an integer recurrence on partitions.

The generating series Phi(u, x, z, p) collects L_r(alpha) = n! mu_g(alpha) =
|C_alpha| c_g(alpha), the number of transitive pairs (sigma of type alpha,
r-tuple of transpositions with product sigma), with weight
u^r/r! x^n/n! z^g p_alpha, r = n + m + 2(g - 1).  ``extract_c`` takes r
from ``partitions.factorization_length``, its one definition; ``_genus``
inverts it per term.  One more transposition joins two cycles (p_{i+j}
from p_i p_j; z marks the genus-raising join) or cuts one, so Phi
satisfies a PDE in u.  Read as a recurrence in u,

    Phi_{r+1} = 1/2 * [ sum_{i,j} i j p_{i+j} z d2(Phi_r)/dp_i dp_j
                        + sum_{i,j} (i+j) p_i p_j d(Phi_r)/dp_{i+j}
                        + sum_{s} C(r,s) sum_{i,j} i j p_{i+j}
                              d(Phi_s)/dp_i * d(Phi_{r-s})/dp_j ]

from the seed Phi_0 = x p_1.  The x-degree n and z-degree g of a monomial
are read off the parts, so order r maps the parts of alpha to L_r(alpha).
Each family has an integer weight that absorbs the 1/2:

* cut: a part k of multiplicity e splits into {i, k - i}: weight e k, or
  e i when k = 2i; n and g are kept;
* handle join: two parts a, b merge into a + b: weight a b; g rises by 1;
* cross join: a part of a term of Phi_s (size n_a) and one of Phi_{r-s}
  (size n_b) merge; with s and r - s paired, the weight is
  C(r, s) C(n_a + n_b, n_a) (the second binomial comes from x^n/n!),
  halved when 2s = r (exact: C(2t, t) is even, and C(0,0) C(2,1) = 2).

That halving and extract_c's L_r(alpha) / |C_alpha| raise IntegralityError
through an explicit test, not an assert, when they leave the integers.

Terms with n > N or g > G are dropped; no family lowers n or g, so every
kept coefficient is exact.  A type with n <= N and g <= G has m <= n parts
and lives at order r <= 2N + 2G - 2, and ``evolve`` runs that many steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterator

from .partitions import IntegralityError, Partition, class_size, factorization_length

Parts = tuple[int, ...]
Order = dict[Parts, int]
# The p-derivatives of one order, bucketed by the (n, g) of the term they
# come from: d/dp_i of L p_alpha is the entry (i, alpha less one part i,
# multiplicity of i in alpha times L).
Derivatives = dict[tuple[int, int], list[tuple[int, Parts, int]]]


def _genus(r: int, parts: Parts) -> int:
    return (r - sum(parts) - len(parts)) // 2 + 1


def _distinct(parts: Parts) -> Iterator[tuple[Parts, int, int]]:
    """(parts less one copy of k, k, multiplicity of k) for each distinct part k."""
    for pos, k in enumerate(parts):
        if pos == 0 or parts[pos - 1] != k:
            yield parts[:pos] + parts[pos + 1 :], k, parts.count(k)


def _add(acc: Order, parts: Parts, c: int) -> None:
    key = tuple(sorted(parts, reverse=True))
    acc[key] = acc.get(key, 0) + c


def _derivatives(phi: Order, r: int) -> Derivatives:
    out: Derivatives = {}
    for parts, c in phi.items():
        bucket = out.setdefault((sum(parts), _genus(r, parts)), [])
        for rest, i, e in _distinct(parts):
            bucket.append((i, rest, e * c))
    return out


def _cut_and_handle_join(phi: Order, r: int, G: int, acc: Order) -> None:
    """Add the cut and genus-raising join terms of Phi_{r+1}."""
    for parts, c in phi.items():
        for rest, k, e in _distinct(parts):
            for i in range(1, k // 2 + 1):
                weight = e * k if 2 * i < k else e * i
                _add(acc, rest + (i, k - i), weight * c)
        if _genus(r, parts) < G:
            for a, b in combinations(range(len(parts)), 2):
                rest = parts[:a] + parts[a + 1 : b] + parts[b + 1 :]
                _add(acc, rest + (parts[a] + parts[b],), parts[a] * parts[b] * c)


def _cross_join(
    da: Derivatives, db: Derivatives, r: int, s: int, N: int, G: int, acc: Order
) -> None:
    """Add the cross joins of Phi_s and Phi_{r-s} with n <= N, g <= G."""
    for (na, ga), entries_a in da.items():
        for (nb, gb), entries_b in db.items():
            if na + nb > N or ga + gb > G:
                continue
            weight = comb(r, s) * comb(na + nb, na)
            if 2 * s == r:
                if weight % 2:
                    raise IntegralityError(
                        f"odd cross-join weight {weight} at r={r}, sizes {na} and {nb}"
                    )
                weight //= 2
            for i, rest_a, ca in entries_a:
                wa = weight * i * ca
                for j, rest_b, cb in entries_b:
                    _add(acc, rest_a + rest_b + (i + j,), wa * j * cb)


@dataclass(frozen=True)
class CutJoinState:
    """Orders Phi_0..Phi_r of the evolution, each a map parts -> L_r(alpha).

    L_r(alpha) = n! mu_g(alpha) = |C_alpha| c_g(alpha) is a nonnegative
    integer; ``extract_c`` divides it by |C_alpha|.
    """

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
    phi: list[Order] = [{(1,): 1}]
    derivs = [_derivatives(phi[0], 0)]
    for r in range(2 * N + 2 * G - 2):
        acc: Order = {}
        _cut_and_handle_join(phi[r], r, G, acc)
        # the s and r - s cross joins are equal; pair them up
        for s in range(r // 2 + 1):
            _cross_join(derivs[s], derivs[r - s], r, s, N, G, acc)
        # every weight is positive, so no coefficient cancels to 0
        phi.append(acc)
        derivs.append(_derivatives(acc, r + 1))
    return CutJoinState(N, G, tuple(phi))


def extract_c(state: CutJoinState, alpha: Partition, g: int) -> int:
    """Recover c_g(alpha) = L_r(alpha) / |C_alpha| from Phi_r, checked to be a
    nonnegative integer."""
    r = factorization_length(alpha, g)
    n = alpha.n
    if n > state.N or g > state.G or r > state.order:
        raise ValueError(
            f"query (n={n}, g={g}, r={r}) outside truncation "
            f"(N={state.N}, G={state.G}, computed orders {state.order})"
        )
    L, size = state.phi[r].get(alpha.parts, 0), class_size(alpha)
    if L < 0 or L % size:
        raise IntegralityError(f"non-integral count for {alpha}, g={g}: {L}/{size}")
    return L // size
