from fractions import Fraction
from math import gcd

import hypothesis.strategies as st

from hurwitz import PSeries
from hurwitz.series import fraction_view

TR8 = 8  # series cut at x^8
TR6 = 6


def is_canonical(f) -> bool:
    """The stored form of a PSeries or WPoly: nonzero int numerators over a
    positive int den, gcd(den, *numerators) == 1, den == 1 for zero."""
    nums = list(f.terms.values())
    return (
        type(f.den) is int
        and f.den > 0
        and all(type(v) is int and v for v in nums)
        and gcd(f.den, *nums) == 1
    )


def fraction_sum(items) -> dict:
    """The sum of PSeries or WPoly items as Fractions by monomial, folded term by
    term from left to right without the ring's arithmetic; zeros dropped."""
    out: dict = {}
    for f in items:
        for m, v in fraction_view(f).items():
            out[m] = out.get(m, 0) + v
    return {m: v for m, v in out.items() if v}


def fractions_st(max_num: int = 6, max_den: int = 4):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def pexp_st(N: int):
    pair = st.tuples(st.integers(1, N), st.integers(1, 2))
    return st.lists(pair, max_size=2).map(
        lambda pairs: tuple(sorted({i: e for i, e in pairs}.items()))
    )


def series_st(N: int, max_terms: int = 5, min_xdeg: int = 0):
    """Random sparse series; min_xdeg=1 gives x-adically small ones."""
    mono = st.tuples(st.integers(min_xdeg, N), pexp_st(N))
    term = st.tuples(mono, fractions_st())
    return st.lists(term, max_size=max_terms).map(
        lambda pairs: PSeries(N, dict(pairs))
    )
