"""Ground-truth counts of transitive transposition factorizations.

c_g(alpha) is the number of ordered tuples (t_1, ..., t_r) of transpositions
in S_n with t_1 ... t_r equal to a fixed permutation of cycle type alpha,
generating a transitive subgroup, where r = n + m + 2(g - 1) is
``partitions.factorization_length``, the one definition of r and the one
check of an (alpha, g) request.  ``count_transitive`` counts all (not
necessarily transitive) factorizations by the Frobenius character formula,
then removes disconnected ones by an inclusion-exclusion sieve over blocks
of the target's cycles.  Cycles of equal length are interchangeable, so the
sieve runs over sub-multisets: it picks j of the e cycles of each length,
with weight prod C(e, j), in place of the 2^(m-1) subsets (12 picks for
type (1^12) instead of 2,048).

The class sum of the transpositions is central in the group algebra, so it
acts on the irreducible representation lambda as the scalar cont(lambda),
the sum of the contents j - i of the cells (i, j) of lambda.  Reading off
the coefficient of a fixed permutation of type alpha in its r-th power gives
(e.g. Lando-Zvonkin, Graphs on Surfaces and Their Applications, ch. 5)

    W(alpha, r) = 1/n! * sum_{lambda |- n} dim(lambda) chi^lambda(alpha) cont(lambda)^r,

with chi^lambda(alpha) from the Murnaghan-Nakayama rule on beta-sets and
dim(lambda) = chi^lambda(1^n) from the same rule.  Each lambda stays its
n-bead beta-set throughout.  cont(lambda) is read off the beads once per
lambda, beside dim(lambda) in the cached identity column of each size n.
The sum is taken in integers and divided by n! through
``partitions.exact_quotient``; a remainder or a negative quotient raises
IntegralityError.

Counts are plain Python integers, hence arbitrary precision.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, factorial

from .partitions import Partition, SizeLimitExceeded, exact_quotient, factorization_length

# `compare --n 16 --genus-max 3` takes 1.2-1.9 s cold, 0.95-1.2 s of it in
# the oracle and half of that in the character sums (shared 2-core Intel Xeon,
# Python 3.11.7, no bytecode cache); each further n multiplies the oracle's
# share by about 1.8: 1.9-2.1 s at n = 17, 3.3-3.8 s at n = 18.
ORACLE_MAX_N = 16

Parts = tuple[int, ...]


# -- the character formula ---------------------------------------------------


def _characters(tp: Parts) -> dict[int, int]:
    """chi^lambda(tp) for every lambda |- n at which it is nonzero, keyed by
    the n-bead beta-set of lambda (positions lambda_i + n - i, as a bitmask).

    Murnaghan-Nakayama: p_alpha = sum_lambda chi^lambda(alpha) s_lambda, and
    p_k s_mu adds every border strip of size k to mu, with sign -1 to its
    height.  On the beta-set of mu a strip moves one bead from b to an empty
    b + k, and its height is the number of beads jumped over.
    """
    n = sum(tp)
    column = {(1 << n) - 1: 1}  # the empty partition
    for k in tp:
        nxt: dict[int, int] = {}
        for beads, chi in column.items():
            for b in range(beads.bit_length()):
                if beads >> b & 1 and not beads >> (b + k) & 1:
                    moved = beads ^ (1 << b) ^ (1 << (b + k))
                    jumped = (beads >> (b + 1) & ((1 << (k - 1)) - 1)).bit_count()
                    nxt[moved] = nxt.get(moved, 0) + (-chi if jumped & 1 else chi)
        column = {beads: chi for beads, chi in nxt.items() if chi}
    return column


# One entry per size n reached, at most ORACLE_MAX_N.
@lru_cache(maxsize=ORACLE_MAX_N)
def _identity_column(n: int) -> dict[int, tuple[int, int]]:
    """(dim(lambda), cont(lambda)) for every lambda |- n, keyed by beta-set;
    dim(lambda) = chi^lambda(1^n)."""
    return {beads: (dim, _content(beads, n)) for beads, dim in _characters((1,) * n).items()}


def _content(beads: int, n: int) -> int:
    """cont(lambda), the sum of j - i over the cells (i, j) of lambda.

    The empty shape's beads 0..n-1 give sum C(b, 2) = C(n, 3); moving the
    i-th bead to lambda_i + n - i adds C(lambda_i, 2) + lambda_i (n - i),
    which sums to cont(lambda) + n(n - 1).
    """
    total = sum(b * (b - 1) // 2 for b in range(beads.bit_length()) if beads >> b & 1)
    return total - comb(n, 3) - n * (n - 1)


# One entry per type reached by the sieve: `table --n 7 --method oracle`
# 44, `compare --n 12 --genus-max 3` 271, `--n 16` 914 (every partition of
# every k <= 16).
@lru_cache(maxsize=1024)
def _frobenius_terms(tp: Parts) -> tuple[tuple[int, int], ...]:
    """(cont, sum of dim(lambda) chi^lambda(tp) over the lambda with that content)."""
    column = _identity_column(sum(tp))
    weights: dict[int, int] = {}
    for beads, chi in _characters(tp).items():
        dim, c = column[beads]
        weights[c] = weights.get(c, 0) + dim * chi
    return tuple((c, w) for c, w in weights.items() if w)


# `table --n 7 --method oracle`: 181 entries; `compare --genus-max 3` at
# n = 12: 1,936, n = 16: 7,097; `compare --n 16 --genus-max 5`: 8,925.
@lru_cache(maxsize=16384)
def _walks_type(tp: Parts, r: int) -> int:
    """W(tp, r): the character sum, divided by n! exactly."""
    total = sum(w * c**r for c, w in _frobenius_terms(tp))
    return exact_quotient(total, factorial(sum(tp)), f"character sum for {tp}, r={r}")


# `table --n 7 --method oracle`: 156 entries; `compare --genus-max 3` at
# n = 12: 1,690, n = 16: 6,095; `compare --n 16 --genus-max 5`: 7,923.
@lru_cache(maxsize=8192)
def _transitive_count(tp: Parts, r: int) -> int:
    """Sieve: subtract factorizations whose generated group splits the cycles.

    Every factorization assigns each cycle of the target to an orbit block;
    positions split among blocks with a multinomial weight and the product
    condition factors blockwise.  Fixing the block that contains the first
    cycle and summing over the proper sub-multisets of the remaining cycles
    inverts the relation: a pick of j of the e parts equal to a gives the
    same block for each of its C(e, j) subsets.  Sub-tuples of the weakly
    decreasing tp stay weakly decreasing, and tp[0] is its largest part, so
    block and comp are canonical cache keys.  With nb, mb the size and part
    count of block and nc, mc those of comp, the block count vanishes below
    genus 0 (r1 < nb + mb - 2) and the walks of comp below their Cayley
    distance (r - r1 < nc - mc), so r1 runs only between, in steps of 2.
    """
    total = _walks_type(tp, r)
    n, m, rest = sum(tp), len(tp), tp[1:]
    classes = [(a, rest.count(a)) for a in sorted(set(rest), reverse=True)]
    picks = list(product(*(range(e + 1) for _, e in classes)))
    for pick in picks[:-1]:  # the last pick takes every cycle
        block, comp, weight = [tp[0]], [], 1
        for (a, e), j in zip(classes, pick):
            block += (a,) * j
            comp += (a,) * (e - j)
            weight *= comb(e, j)
        nb, mb = sum(block), len(block)
        nc, mc = n - nb, m - mb
        block, comp = tuple(block), tuple(comp)
        for r1 in range(nb + mb - 2, r - (nc - mc) + 1, 2):
            w_out = _walks_type(comp, r - r1)
            total -= weight * comb(r, r1) * _transitive_count(block, r1) * w_out
    return total


# -- public counting API -----------------------------------------------------


def count_transitive(alpha: Partition, g: int) -> int:
    """c_g(alpha) via the character formula plus the disconnection sieve."""
    r = factorization_length(alpha, g)
    if alpha.n > ORACLE_MAX_N:
        raise SizeLimitExceeded(
            f"oracle budget is n <= ORACLE_MAX_N = {ORACLE_MAX_N}; got n = {alpha.n}"
        )
    return _transitive_count(alpha, r)
