from fractions import Fraction

import hypothesis.strategies as st

from hurwitz import PSeries, Truncation

TR8 = Truncation()  # N = K = 8, G = 1, R = 16
TR6 = Truncation(N=6, K=6, G=1)


def fractions_st(max_num: int = 6, max_den: int = 4):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def pexp_st(trunc: Truncation):
    pair = st.tuples(st.integers(1, trunc.K), st.integers(1, 2))
    return st.lists(pair, max_size=2).map(
        lambda pairs: tuple(sorted({i: e for i, e in pairs}.items()))
    )


def series_st(trunc: Truncation, max_terms: int = 5, min_xdeg: int = 0):
    """Random sparse series; min_xdeg=1 gives x-adically small ones."""
    mono = st.tuples(st.integers(min_xdeg, trunc.N), pexp_st(trunc))
    term = st.tuples(mono, fractions_st())
    return st.lists(term, max_size=max_terms).map(
        lambda pairs: PSeries(trunc, dict(pairs))
    )
