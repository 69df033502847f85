"""The reference enumeration: c_g(alpha) from its definition, for tiny n.

c_g(alpha) counts the ordered r-tuples of transpositions in S_n whose
product is a fixed permutation of type alpha and which generate a
transitive subgroup, r = ``factorization_length(alpha, g)``.  The oracle,
cut-and-join and closed-form tests compare against ``count_naive``; no
package code calls it.
"""

from hurwitz.partitions import Partition, SizeLimitExceeded, factorization_length

# The slowest request inside this budget, (1,1,1,1,1) at g = 0 (r = 8),
# takes 19.5 s, and (2,2,1), (3,1,1) at g = 1 and (5) at g = 2 take 15-16.5 s
# (2-core Intel Xeon, Python 3.11.7); each further r costs 6 to 11 times more.
NAIVE_MAX_N = 5
NAIVE_MAX_R = 8


def _canonical_images0(tp: tuple[int, ...]) -> tuple[int, ...]:
    """The 0-based images of the permutation whose cycles are consecutive
    runs of the parts of tp."""
    n = sum(tp)
    imgs = list(range(n))
    start = 0
    for part in tp:
        for off in range(part):
            imgs[start + off] = start + (off + 1) % part
        start += part
    return tuple(imgs)


def count_naive(alpha: Partition, g: int) -> int:
    """c_g(alpha) by direct enumeration of transposition tuples.

    Walks the tree of prefixes carrying delta = rho^(-1) pi; appending the
    factor (a b) swaps two entries of delta and moves the Cayley distance
    by exactly one, so branches that cannot reach the target (distance or
    parity) or cannot become transitive (too few merges left) are cut
    early.  Transitivity of the generated group is tracked by union-find
    over the transposition supports, so fixed points of the target must be
    connected by the factors themselves.
    """
    n, r = alpha.n, factorization_length(alpha, g)
    if n > NAIVE_MAX_N or r > NAIVE_MAX_R:
        raise SizeLimitExceeded(
            f"enumeration budget is n <= {NAIVE_MAX_N} and r <= {NAIVE_MAX_R}; "
            f"got n = {n}, r = {r}"
        )
    pi = _canonical_images0(alpha)
    if n == 1:
        return 1 if r == 0 else 0
    transpositions = [(a, b) for a in range(n) for b in range(a + 1, n)]
    delta = list(pi)

    def find(parent: list[int], x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def rec(remaining: int, dist: int, parent: list[int], comps: int) -> int:
        if dist > remaining or (remaining - dist) % 2 or comps - 1 > remaining:
            return 0
        if remaining == 0:
            return 1 if comps == 1 else 0
        total = 0
        for a, b in transpositions:
            same_cycle = False
            x = delta[a]
            while x != a:
                if x == b:
                    same_cycle = True
                    break
                x = delta[x]
            p2 = parent.copy()
            ra, rb = find(p2, a), find(p2, b)
            c2 = comps
            if ra != rb:
                p2[ra] = rb
                c2 -= 1
            delta[a], delta[b] = delta[b], delta[a]
            total += rec(remaining - 1, dist - 1 if same_cycle else dist + 1, p2, c2)
            delta[a], delta[b] = delta[b], delta[a]
        return total

    return rec(r, n - alpha.m, list(range(n)), n)
