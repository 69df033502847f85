"""Exact counts of almost-simple ramified coverings of the sphere.

Hurwitz numbers mu_m^(g)(alpha) count degree-n coverings of the sphere by a
genus-g surface with simple branch points and ramification type alpha over
one distinguished point.  Combinatorially these are transitive ordered
factorizations of a fixed permutation of cycle type alpha into
r = n + m + 2(g - 1) transpositions, counted by c_g(alpha) with
mu = |C_alpha| c_g(alpha) / n!.

The package computes the genus-0 and genus-1 numbers three independent ways
(counting in the symmetric group by the Frobenius character formula; the
cut-and-join evolution of the generating series; and explicit closed
formulas) and machine-verifies the exact series and polynomial identities
that tie the methods together.
All arithmetic is exact rational; there is no floating point anywhere.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.  A module is imported the
# first time one of its names is read, so a command loads only what it runs.
_EXPORTS = {
    "closedform": (
        "c_value", "f0_pdiff", "f0_series", "g1_closed", "g1_defn", "mu0", "mu1", "psi", "s_series",
    ),
    "cutjoin": ("CutJoinState", "evolve", "extract_c"),
    "oracle": ("count_transitive",),
    "partitions": (
        "FixedPointError", "IntegralityError", "Partition", "SizeLimitExceeded", "a_coeff",
        "class_size", "elem_sym", "factorization_length", "partitions_of", "theta",
    ),
    "series": ("PSeries", "TruncationMismatch", "exp", "log1", "subst_x"),
    "verify": (
        "CheckResult", "build_ABCDE", "check_u1", "check_u2", "check_u3", "residual_T", "run_all_checks",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """A public name, read from its module (PEP 562); the module loads on first use."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
