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

__version__ = "0.1.0"
