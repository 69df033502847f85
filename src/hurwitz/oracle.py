"""Ground-truth counts of transitive transposition factorizations.

c_g(alpha) is the number of ordered tuples (t_1, ..., t_r) of transpositions
in S_n with t_1 ... t_r equal to a fixed permutation of cycle type alpha,
generating a transitive subgroup, where r = n + m + 2(g - 1).  Two engines:

* count_naive -- depth-first enumeration of the tuples with a Cayley-distance
  prune and a union-find transitivity test at the leaves (tiny n only);
* count_transitive -- counts all (not necessarily transitive) factorizations
  by a walk DP over the full group, then removes disconnected ones by an
  inclusion-exclusion sieve over blocks of the target's cycles.

Counts are plain Python integers, hence arbitrary precision.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

from .partitions import Partition

NAIVE_MAX_N = 5
NAIVE_MAX_R = 10
WALK_MAX_N = 7


class SizeLimitExceeded(ValueError):
    """The requested count is outside the enumeration budget."""


class Permutation:
    """Element of S_n; images[i-1] is the image of symbol i (symbols 1..n)."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(int(v) for v in images)
        n = len(imgs)
        if sorted(imgs) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {imgs}")
        self.images = imgs

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        imgs = list(range(1, n + 1))
        for cyc in cycles:
            for pos, a in enumerate(cyc):
                imgs[a - 1] = cyc[(pos + 1) % len(cyc)]
        return cls(imgs)

    @property
    def n(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right product: (self * other)(i) = other(self(i))."""
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return Permutation(other.images[v - 1] for v in self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = []
            a = start
            while not seen[a - 1]:
                seen[a - 1] = True
                cyc.append(a)
                a = self.images[a - 1]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> Partition:
        return Partition.of(len(c) for c in self.cycles())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Permutation):
            return self.images == other.images
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation{self.images}"


def canonical_rep(alpha: Partition) -> Permutation:
    """Fixed representative of C_alpha: cycles on consecutive symbols, largest part first."""
    cycles = []
    start = 1
    for part in alpha.parts:
        cycles.append(tuple(range(start, start + part)))
        start += part
    return Permutation.from_cycles(alpha.n, cycles)


class FactorizationProblem:
    """A target class alpha with genus g; fixes the factorization length r."""

    __slots__ = ("alpha", "g", "r")

    def __init__(self, alpha: Partition, g: int):
        if alpha.n < 1:
            raise ValueError("alpha must be a partition of n >= 1")
        if g < 0:
            raise ValueError("genus must be nonnegative")
        self.alpha = alpha
        self.g = g
        self.r = alpha.n + alpha.m + 2 * (g - 1)


# -- internal 0-based permutation helpers -----------------------------------


def _canonical_images0(tp: tuple[int, ...]) -> tuple[int, ...]:
    n = sum(tp)
    imgs = list(range(n))
    start = 0
    for part in tp:
        for off in range(part):
            imgs[start + off] = start + (off + 1) % part
        start += part
    return tuple(imgs)


def _ncycles(p: Sequence[int]) -> int:
    seen = [False] * len(p)
    count = 0
    for start in range(len(p)):
        if not seen[start]:
            count += 1
            a = start
            while not seen[a]:
                seen[a] = True
                a = p[a]
    return count


# One entry per n <= WALK_MAX_N (`table --n 7 --method oracle`: 6).
@lru_cache(maxsize=16)
def _sn_tables(n: int):
    """Permutations of range(n), their index map, and one index row per
    transposition giving right multiplication rho -> rho*(a b)."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    rows = []
    for a in range(n):
        for b in range(a + 1, n):
            row = [0] * len(perms)
            for i, p in enumerate(perms):
                q = [b if v == a else a if v == b else v for v in p]
                row[i] = index[tuple(q)]
            rows.append(row)
    return perms, index, rows


def _walks_to(pi: tuple[int, ...], r: int) -> int:
    """Number of length-r transposition sequences multiplying to pi (0-based)."""
    n = len(pi)
    if n == 1:
        return 1 if r == 0 else 0
    if (n - _ncycles(pi) - r) % 2:
        return 0
    perms, index, rows = _sn_tables(n)
    v = [0] * len(perms)
    v[index[tuple(range(n))]] = 1
    for _ in range(r):
        nv = [0] * len(perms)
        for i, c in enumerate(v):
            if c:
                for row in rows:
                    nv[row[i]] += c
        v = nv
    return v[index[pi]]


# `table --n 7 --method oracle`: 277 entries; `compare --n 7 --genus-max 3`: 393.
@lru_cache(maxsize=4096)
def _walks_type(tp: tuple[int, ...], r: int) -> int:
    if not tp:
        return 1 if r == 0 else 0
    return _walks_to(_canonical_images0(tp), r)


# `table --n 7 --method oracle`: 179 entries; `compare --n 7 --genus-max 3`: 267.
@lru_cache(maxsize=4096)
def _transitive_count(tp: tuple[int, ...], r: int) -> int:
    """Sieve: subtract factorizations whose generated group splits the cycles.

    Every factorization assigns each cycle of the target to an orbit block;
    positions split among blocks with a multinomial weight and the product
    condition factors blockwise.  Fixing the block that contains the first
    cycle and summing over the remaining subsets inverts the relation.
    """
    if not tp:
        return 1 if r == 0 else 0
    total = _walks_type(tp, r)
    first, rest = tp[0], tp[1:]
    k = len(rest)
    for bits in range(2**k - 1):  # proper subsets of the remaining cycles
        inside = [rest[i] for i in range(k) if bits >> i & 1]
        outside = [rest[i] for i in range(k) if not bits >> i & 1]
        block = tuple(sorted([first] + inside, reverse=True))
        comp = tuple(sorted(outside, reverse=True))
        for r1 in range(r + 1):
            w_out = _walks_type(comp, r - r1)
            if w_out:
                total -= comb(r, r1) * _transitive_count(block, r1) * w_out
    return total


# -- public counting API -----------------------------------------------------


def count_walks(alpha: Partition, r: int, rep: Permutation | None = None) -> int:
    """All (not necessarily transitive) length-r factorizations of a fixed
    permutation of cycle type alpha.  rep overrides the canonical choice;
    the count does not depend on it."""
    n = alpha.n
    if n < 1:
        raise ValueError("alpha must be a partition of n >= 1")
    if n > WALK_MAX_N:
        raise SizeLimitExceeded(f"walk counting keeps a vector over S_{n}; n <= {WALK_MAX_N}")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if rep is None:
        return _walks_type(alpha.parts, r)
    if rep.cycle_type() != alpha:
        raise ValueError(f"representative has cycle type {rep.cycle_type()}, not {alpha}")
    return _walks_to(tuple(v - 1 for v in rep.images), r)


def count_transitive(alpha: Partition, g: int) -> int:
    """c_g(alpha) via the walk DP plus the disconnection sieve."""
    prob = FactorizationProblem(alpha, g)
    if alpha.n > WALK_MAX_N:
        raise SizeLimitExceeded(f"walk counting keeps a vector over S_{alpha.n}; n <= {WALK_MAX_N}")
    return _transitive_count(alpha.parts, prob.r)


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
    prob = FactorizationProblem(alpha, g)
    n, r = alpha.n, prob.r
    if n > NAIVE_MAX_N or r > NAIVE_MAX_R:
        raise SizeLimitExceeded(
            f"enumeration budget is n <= {NAIVE_MAX_N} and r <= {NAIVE_MAX_R}; "
            f"got n = {n}, r = {r}"
        )
    pi = _canonical_images0(alpha.parts)
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

    return rec(r, n - _ncycles(pi), list(range(n)), n)
