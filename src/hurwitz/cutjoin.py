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
are read off alpha, so order r maps alpha to L_r(alpha).
Each family has an integer weight that absorbs the 1/2:

* cut: a part k of multiplicity e splits into {i, k - i}: weight e k, or
  e i when k = 2i; n and g are kept;
* handle join: two parts a, b merge into a + b: weight a b per pair of
  positions, e_a e_b pairs for a != b and C(e_a, 2) for a = b; g rises by 1;
* cross join: a part of a term of Phi_s (size n_a) and one of Phi_{r-s}
  (size n_b) merge; with s and r - s paired, the weight is
  C(r, s) C(n_a + n_b, n_a) (the second binomial comes from x^n/n!),
  halved when 2s = r (exact: C(2t, t) is even, and C(0,0) C(2,1) = 2).

Each order is walked once: that pass adds its cut and handle-join terms to
the next order and returns its derivatives i dPhi_r/dp_i, bucketed by the
(n, g) of their term, for the cross joins of every later order.  Only terms
with n < N get a bucket: the other side of a cross join has n >= 1.

Every order, from the seed to ``extract_c``, is keyed by the code
prod_i q_{alpha_i} of alpha, q_k the k-th odd prime (``partitions.prime_code``,
injective by unique factorization), so each family builds its key by
multiplication: a cut code / q_k * q_i * q_{k-i}, a handle join
code / (q_a q_b) * q_{a+b} and a cross join rest_a * rest_b * q_{i+j}, rest
the code of alpha less one part.

That halving checks its weight, and extract_c divides L_r(alpha) by
|C_alpha| through ``partitions.exact_quotient``; each raises
IntegralityError through an explicit test, not an assert, when it leaves
the integers.

Terms with n > N or g > G are dropped; no family lowers n or g, so every
kept coefficient is exact.  A type with n <= N and g <= G has m <= n parts
and lives at order r <= 2N + 2G - 2, and ``evolve`` runs that many steps.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from .partitions import (
    IntegralityError,
    Partition,
    class_size,
    exact_quotient,
    factorization_length,
    odd_prime,
    prime_code,
    prime_pairs,
)

# An order maps the code prod_i q_{alpha_i} of alpha (q_k = odd_prime(k),
# so (3, 1, 1) is 7 * 3 * 3) to L_r(alpha).
Coded = dict[int, int]
# A code decoded once: n, m and the distinct parts with their multiplicities.
Shape = tuple[int, int, tuple[tuple[int, int], ...]]
# The p-derivatives of one order, bucketed by the (n, g) of the term they
# come from: i d/dp_i of L p_alpha is the entry (i, code of alpha less one
# part i, i times the multiplicity of i in alpha times L).
Derivatives = dict[tuple[int, int], list[tuple[int, int, int]]]


def _genus(r: int, n: int, m: int) -> int:
    return (r - n - m) // 2 + 1


def _decode(code: int) -> Shape:
    """The shape of the partition with code ``code``."""
    mults = prime_pairs(code)
    return sum(k * e for k, e in mults), sum(e for _, e in mults), mults


def _cut_and_handle_join(
    phi: Coded, r: int, N: int, G: int, q: list[int], shapes: dict[int, Shape], acc: Coded
) -> Derivatives:
    """Add the cut and genus-raising join terms of Phi_{r+1}; return the
    p-derivatives of the terms of Phi_r with n < N."""
    out: Derivatives = {}
    for code, c in phi.items():
        n, m, mults = shapes[code]
        g = _genus(r, n, m)
        bucket = out.setdefault((n, g), []) if n < N else None
        for k, e in mults:
            rest, ekc = code // q[k], e * k * c
            if bucket is not None:
                bucket.append((k, rest, ekc))
            for i in range(1, k // 2 + 1):
                key = rest * q[i] * q[k - i]
                acc[key] = acc.get(key, 0) + (ekc if 2 * i < k else ekc // 2)
        if g < G:
            # e_a e_b position pairs of parts a != b, C(e_a, 2) of a = b
            for x, (a, ea) in enumerate(mults):
                for b, eb in mults[x:]:
                    pairs = ea * eb if a != b else ea * (ea - 1) // 2
                    if pairs:
                        key = code // (q[a] * q[b]) * q[a + b]
                        acc[key] = acc.get(key, 0) + pairs * a * b * c
    return out


def _cross_join(
    da: Derivatives,
    db: Derivatives,
    r: int,
    s: int,
    N: int,
    G: int,
    q: list[int],
    acc: Coded,
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
                wa = weight * ca
                for j, rest_b, cb in entries_b:
                    key = rest_a * rest_b * q[i + j]
                    acc[key] = acc.get(key, 0) + wa * cb


class CutJoinState(NamedTuple):
    """Orders Phi_0..Phi_r of the evolution, each a map code of alpha -> L_r(alpha).

    L_r(alpha) = n! mu_g(alpha) = |C_alpha| c_g(alpha) is a nonnegative
    integer; ``extract_c`` divides it by |C_alpha|.
    """

    N: int
    G: int
    phi: tuple[Coded, ...]

    @property
    def order(self) -> int:
        return len(self.phi) - 1


# One entry per (N, G); each CLI command uses one.
@lru_cache(maxsize=16)
def evolve(N: int, G: int) -> CutJoinState:
    """Phi_0..Phi_R for the types with n <= N and g <= G, R = 2N + 2G - 2."""
    if N < 1 or G < 0:
        raise ValueError(f"invalid cut-and-join bounds N={N}, G={G}")
    q = [1, *(odd_prime(k) for k in range(1, N + 1))]
    shapes = {q[1]: _decode(q[1])}
    coded: list[Coded] = [{q[1]: 1}]
    derivs: list[Derivatives] = []
    for r in range(2 * N + 2 * G - 2):
        acc: Coded = {}
        derivs.append(_cut_and_handle_join(coded[r], r, N, G, q, shapes, acc))
        # the s and r - s cross joins are equal; pair them up
        for s in range(r // 2 + 1):
            _cross_join(derivs[s], derivs[r - s], r, s, N, G, q, acc)
        # every weight is positive, so no coefficient cancels to 0
        for code in acc:
            if code not in shapes:
                shapes[code] = _decode(code)
        coded.append(acc)
    return CutJoinState(N, G, tuple(coded))


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
    L = state.phi[r].get(prime_code(alpha.pexp()), 0)
    return exact_quotient(L, class_size(alpha), f"non-integral count for {alpha}, g={g}")
