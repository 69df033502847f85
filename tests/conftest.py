from fractions import Fraction
from itertools import repeat
from math import factorial, gcd

import hypothesis.strategies as st

from hurwitz.series import PSeries, _reduce, fraction_view

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


def a_fraction(r: int) -> Fraction:
    """a_r = r^r/(r-1)! as a Fraction, from its definition: the tests' reference
    for the integer pairs of ``partitions.a_weight``."""
    return Fraction(r**r, factorial(r - 1))


def fraction_sum(items, weights=None) -> dict:
    """The sum of c * f over PSeries or WPoly items f with weights c (each 1 by
    default) as Fractions by monomial, folded term by term from left to right
    without the ring's arithmetic; zeros dropped."""
    out: dict = {}
    for f, c in zip(items, weights or repeat(1)):
        for m, v in fraction_view(f).items():
            out[m] = out.get(m, 0) + c * v
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


def reduced_scale(den: int, terms: dict, c) -> tuple[int, dict]:
    """c * terms/den by the generic route: scale every numerator, then reduce
    by one gcd over all of them (the stored form of a scalar product)."""
    c = Fraction(c)
    if not c:
        return 1, {}
    return _reduce(den * c.denominator, {m: v * c.numerator for m, v in terms.items()})


def scalars_st(f):
    """Scalars for f: small ints and Fractions (0 and negatives among them),
    ints sharing a factor with f.den, and Fractions whose denominator shares
    a factor with the content of f's numerators."""
    content = gcd(*f.terms.values()) or 1
    return st.one_of(
        st.integers(-3, 3),
        fractions_st(),
        st.integers(-3, 3).map(lambda k: k * f.den),
        st.builds(lambda a, b: Fraction(a, b * content), st.integers(-6, 6), st.integers(1, 4)),
    )
