"""Exact enumeration of almost-simple ramified coverings of the sphere.

Hurwitz numbers mu_m^(g)(alpha) count degree-n coverings of the sphere by a
genus-g surface with simple branch points and ramification type alpha over
one distinguished point.  Combinatorially these are transitive ordered
factorizations of a fixed permutation of cycle type alpha into
r = n + m + 2(g - 1) transpositions, counted by c_g(alpha) with
mu = |C_alpha| c_g(alpha) / n!.

The package computes the genus-0 and genus-1 numbers three independent ways
(counting in the symmetric group, by enumeration and by the Frobenius
character formula; the cut-and-join evolution of the generating series; and
explicit closed formulas) and machine-verifies the exact series and
polynomial identities that tie the methods together.
All arithmetic is exact rational; there is no floating point anywhere.
"""

from .closedform import (
    FixedPointError,
    c_value,
    f0_pdiff,
    f0_series,
    g1_closed,
    g1_defn,
    mu0,
    mu1,
    psi,
    s_series,
)
from .cutjoin import CutJoinState, evolve, extract_c
from .oracle import (
    SizeLimitExceeded,
    count_naive,
    count_transitive,
    count_walks,
)
from .partitions import (
    IntegralityError,
    Partition,
    a_coeff,
    class_size,
    elem_sym,
    factorization_length,
    partitions_of,
    theta,
)
from .series import (
    PSeries,
    TruncationMismatch,
    exp,
    log1,
    subst_x,
)
from .verify import CheckResult, build_ABCDE, check_u1, check_u2, check_u3, residual_T, run_all_checks

__version__ = "0.1.0"
