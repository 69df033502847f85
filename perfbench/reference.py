"""Fixed reference job: the machine-speed yardstick of the benchmark.

Run as its own child process right before every workload run, so that both
see the same machine state.  It imports nothing from the repository, so no
change to the package can move it, and it does the kinds of work the
package does: exact rational arithmetic keyed in dicts (the series ring)
and integer list indexing (the oracle's walk DP).  About 0.5 s of CPU.
"""

from fractions import Fraction


def rationals(n: int) -> Fraction:
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(1, n):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, i % 7 + 1) * Fraction(3, i % 11 + 2)
    return sum(acc.values(), Fraction(0))


def walks(size: int, steps: int) -> int:
    rows = [[(i * k + k) % size for i in range(size)] for k in range(1, 8)]
    v = [1] + [0] * (size - 1)
    for _ in range(steps):
        nv = [0] * size
        for i, c in enumerate(v):
            if c:
                for row in rows:
                    nv[row[i]] += c
        v = [c % 1000003 for c in nv]
    return sum(v)


if __name__ == "__main__":
    print(rationals(30000), walks(5039, 60))
