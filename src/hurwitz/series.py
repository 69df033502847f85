"""Sparse truncated formal power series with exact rational coefficients.

The carrier ring is Q[p_1, p_2, ...][[x]] cut off at x^N, and N is its only
bound.  A series is a sparse map from monomials to nonzero rational
coefficients; the monomial key format is private to this module, and other
modules build series from partitions (``PSeries.from_parts``) or single
monomials (``PSeries.term``).  Monomials above x^N are dropped when a series
is built (dropped, never rounded); no operation here lowers the x-degree, so
the coefficients that survive are exactly those of the untruncated ring.
The p-indices need no bound of their own: every series in this package has
p-weight at most its x-degree, so no p_k with k > N survives the cut.  The
paper's genus marker z is no coordinate here: only the cut-and-join carries
genus, keyed by partition.

``exp``, ``log1`` and ``subst_x`` additionally require every input monomial
to carry positive x-degree.  That restriction keeps their expansions finite
inside the truncation; all the series this package feeds them are of that
kind (x-adically small).

A series is stored fraction-free, as integer numerators over one positive
denominator ``den``, in canonical form: no zero numerator is stored,
gcd(den, *numerators) == 1, and the zero series has den == 1, so equal series
have equal (den, terms).  Sums align to lcm(den_a, den_b), scalars and
derivations scale numerators, and products run their double loop on ints
over den_a * den_b; each result is reduced once by ``gcd(den, *numerators)``.
Only coefficient reads (``coeff``, ``fraction_view``) build Fractions, and
floating point is never used.

That storage and every operation that does not read a monomial live in one
ring class, ``ExactRing``, with two monomial formats: ``PSeries`` here and
``verify.WPoly`` (three variables, exact or cut per variable).  Each format
adds its constructor, its product loop and its monomial text, and
``PSeries`` the series operations (shift, derivations, x-slices) too.  The
public constructors validate (no floats, no zeros, nothing beyond the cut);
ring operations build their results through ``ExactRing._of``, which skips
that pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Mapping, TypeVar

PExp = tuple[tuple[int, int], ...]
Monomial = tuple[int, PExp]

_ZERO = Fraction(0)

Key = TypeVar("Key", bound=Hashable)


class TruncationMismatch(ValueError):
    """Two series cut at different x-degrees were combined."""


class FixedPointError(RuntimeError):
    """A candidate series is not the fixed point of its builder."""


def _canon_pexp(p: Mapping[int, int] | Iterable[tuple[int, int]]) -> PExp:
    """Canonical sorted p-exponent vector; zero exponents removed."""
    items = p.items() if isinstance(p, Mapping) else tuple(p)
    agg: dict[int, int] = {}
    for i, e in items:
        i, e = int(i), int(e)
        if i < 1 or e < 0:
            raise ValueError(f"invalid p-monomial entry p{i}^{e}")
        if e:
            agg[i] = agg.get(i, 0) + e
    return tuple(sorted(agg.items()))


# Few distinct pairs recur across products: `verify --N 12` merges 141k
# pairs, of which 3.1k are distinct.
@lru_cache(maxsize=1 << 16)
def _merge_pexp(a: PExp, b: PExp) -> PExp:
    if not a:
        return b
    if not b:
        return a
    agg = dict(a)
    for i, e in b:
        agg[i] = agg.get(i, 0) + e
    return tuple(sorted(agg.items()))


def _integer_form(
    terms: Mapping[Key, Fraction | int], keep: Callable[[Key], bool]
) -> tuple[int, dict[Key, int]]:
    """The nonzero kept coefficients over their lcm denominator (canonical as is)."""
    clean: dict[Key, Fraction] = {}
    for mono, c in terms.items():
        if isinstance(c, float):
            raise TypeError("floating-point coefficients are not allowed")
        if c and keep(mono):
            clean[mono] = Fraction(c)
    den = lcm(*(c.denominator for c in clean.values()))
    return den, {m: c.numerator * (den // c.denominator) for m, c in clean.items()}


def _reduce(den: int, terms: dict[Key, int]) -> tuple[int, dict[Key, int]]:
    """Canonical form of terms/den (den > 0, no zero numerator in terms)."""
    if not terms:
        return 1, terms
    g = gcd(den, *terms.values())
    if g == 1:
        return den, terms
    return den // g, {m: v // g for m, v in terms.items()}


def _add_scaled(
    da: int, ta: Mapping[Key, int], db: int, tb: Mapping[Key, int], sign: int = 1
) -> tuple[int, dict[Key, int]]:
    """Canonical form of ta/da + sign * tb/db, over lcm(da, db)."""
    den = da if da == db else lcm(da, db)
    fa, fb = den // da, sign * (den // db)
    out = dict(ta) if fa == 1 else {m: v * fa for m, v in ta.items()}
    for m, v in tb.items():
        total = out.get(m, 0) + v * fb
        if total:
            out[m] = total
        else:
            del out[m]
    return _reduce(den, out)


def _scale(den: int, terms: Mapping[Key, int], c: Fraction | int) -> tuple[int, dict[Key, int]]:
    """Canonical form of c * terms/den for an exact scalar c."""
    if isinstance(c, float):
        raise TypeError("floating-point coefficients are not allowed")
    if not c:
        return 1, {}
    return _reduce(den * c.denominator, {m: v * c.numerator for m, v in terms.items()})


def fraction_view(f: "ExactRing") -> dict:
    """The coefficients of a PSeries or WPoly as Fractions, by monomial."""
    return {m: Fraction(v, f.den) for m, v in f.terms.items()}


def monomial_str(mono: Monomial) -> str:
    """Readable form of a monomial key, for witnesses and debugging."""
    xd, pexp = mono
    out = []
    if xd:
        out.append("x" if xd == 1 else f"x^{xd}")
    for i, e in pexp:
        out.append(f"p{i}" if e == 1 else f"p{i}^{e}")
    return "*".join(out) if out else "1"


def _parts_key(parts: Iterable[int]) -> tuple[int, PExp]:
    """Size and canonical p-exponent vector of the partition with these parts."""
    mult: dict[int, int] = {}
    for a in parts:
        if a < 1:
            raise ValueError(f"part {a} is not positive")
        mult[a] = mult.get(a, 0) + 1
    return sum(i * e for i, e in mult.items()), tuple(sorted(mult.items()))


class ExactRing:
    """Immutable sparse exact polynomial stored as terms/den, cut at N.

    The body both exact rings of the package share; they differ only in the
    format of a monomial key.  ``PSeries`` keys (x-degree, p-exponents) and
    cuts the x-degree at N.  ``verify.WPoly`` keys exponent triples and cuts
    each variable at N, or nothing when N is None.  A subclass supplies its
    constructor, ``_products`` (the summed numerator products by monomial,
    inside the cut) and ``_mono_str`` (the text of one monomial).

    All binary operations demand the same N; mixing them raises
    TruncationMismatch rather than silently coercing.
    """

    __slots__ = ("N", "den", "terms")

    @classmethod
    def _of(cls, N: int | None, den: int, terms: dict) -> "ExactRing":
        """Wrap canonical numerators over den inside the cut, unchecked."""
        out = object.__new__(cls)
        out.N, out.den, out.terms = N, den, terms
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "ExactRing") -> None:
        if self.N != other.N:
            raise TruncationMismatch(f"N={self.N} vs N={other.N}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self.den == other.den and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} N={self.N}: {len(self.terms)} terms>"

    def __add__(self, other: "ExactRing") -> "ExactRing":
        self._check(other)
        return self._of(self.N, *_add_scaled(self.den, self.terms, other.den, other.terms))

    def __sub__(self, other: "ExactRing") -> "ExactRing":
        self._check(other)
        return self._of(self.N, *_add_scaled(self.den, self.terms, other.den, other.terms, -1))

    def __neg__(self) -> "ExactRing":
        return self._of(self.N, self.den, {m: -v for m, v in self.terms.items()})

    def __mul__(self, other: "ExactRing | Fraction | int") -> "ExactRing":
        if isinstance(other, (int, float, Fraction)):
            return self._of(self.N, *_scale(self.den, self.terms, other))
        self._check(other)
        acc = self._products(other)
        return self._of(self.N, *_reduce(self.den * other.den, {m: v for m, v in acc.items() if v}))

    __rmul__ = __mul__

    def lead_str(self) -> str:
        """The lexicographically first monomial as text ("0" for zero): a witness."""
        return self._mono_str(min(self.terms)) if self.terms else "0"


class PSeries(ExactRing):
    """Series in Q[p_1, p_2, ...][[x]] cut at x^N: ``ExactRing`` keyed by x-degree."""

    __slots__ = ()

    def __init__(
        self,
        N: int,
        terms: Mapping[Monomial, Fraction | int] | None = None,
    ):
        if N < 1:
            raise ValueError(f"truncation degree N={N} is below 1")
        self.N = N
        self.den, self.terms = _integer_form(terms or {}, lambda mono: mono[0] <= N)

    # The benchmark probes series.PSeries.{mul,add} wrap a method found in
    # this class's own __dict__ and are cross-checked by cProfile, which
    # counts calls per code object; a body shared with WPoly would merge the
    # two rings' counts.  So each probed operation gets a code object here.
    def __mul__(self, other: "PSeries | Fraction | int") -> "PSeries":
        return ExactRing.__mul__(self, other)

    __rmul__ = __mul__

    def __add__(self, other: "PSeries") -> "PSeries":
        return ExactRing.__add__(self, other)

    _mono_str = staticmethod(monomial_str)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(N: int) -> "PSeries":
        return PSeries(N)

    @staticmethod
    def one(N: int) -> "PSeries":
        return PSeries(N, {(0, ()): 1})

    @staticmethod
    def x(N: int, power: int = 1) -> "PSeries":
        if power < 0:
            raise ValueError(f"negative x-power {power}")
        return PSeries(N, {(power, ()): 1})

    @staticmethod
    def term(
        N: int,
        coeff: Fraction | int,
        x: int = 0,
        p: Mapping[int, int] | Iterable[tuple[int, int]] = (),
    ) -> "PSeries":
        """Single monomial coeff * x^x * p-monomial."""
        if x < 0:
            raise ValueError(f"negative exponent in monomial x^{x}")
        return PSeries(N, {(x, _canon_pexp(p)): coeff})

    @staticmethod
    def from_parts(
        N: int, coeffs: Mapping[Iterable[int], Fraction | int]
    ) -> "PSeries":
        """sum of coeff * x^n p_alpha over alpha given by its parts, n = |alpha|.

        Keys that name the same partition in another order add up.
        """
        terms: dict[Monomial, Fraction | int] = {}
        for parts, c in coeffs.items():
            mono = _parts_key(parts)
            terms[mono] = terms.get(mono, 0) + c
        return PSeries(N, terms)

    # -- ring operations ---------------------------------------------------

    def _products(self, other: "PSeries") -> dict[Monomial, int]:
        N = self.N
        # sorted by x-degree, so the x-cut ends the inner loop
        B = sorted(other.terms.items(), key=lambda term: term[0][0])
        acc: dict[Monomial, int] = {}
        for (x1, p1), a in self.terms.items():
            for (x2, p2), b in B:
                xd = x1 + x2
                if xd > N:
                    break
                key = (xd, _merge_pexp(p1, p2))
                acc[key] = acc.get(key, 0) + a * b
        return acc

    def shift(
        self,
        coeff: Fraction | int = 1,
        x: int = 0,
        p: Mapping[int, int] | Iterable[tuple[int, int]] = (),
    ) -> "PSeries":
        """Multiply by a single monomial (cheaper than building a PSeries)."""
        padd, N = _canon_pexp(p), self.N
        out = {
            (xd + x, _merge_pexp(pexp, padd)): v
            for (xd, pexp), v in self.terms.items()
            if xd + x <= N
        }
        return PSeries._of(N, *_scale(self.den, out, coeff))

    # -- derivations and slices --------------------------------------------

    def pdiff(self, k: int) -> "PSeries":
        """Formal partial derivative with respect to p_k."""
        if k < 1:
            raise ValueError(f"p-index {k} is below 1")
        out: dict[Monomial, int] = {}
        for (xd, pexp), v in self.terms.items():
            for pos, (i, e) in enumerate(pexp):
                if i == k:
                    if e == 1:
                        reduced = pexp[:pos] + pexp[pos + 1 :]
                    else:
                        reduced = pexp[:pos] + ((i, e - 1),) + pexp[pos + 1 :]
                    out[(xd, reduced)] = v * e
                    break
        return PSeries._of(self.N, *_reduce(self.den, out))

    def xdiff(self) -> "PSeries":
        """The Euler operator x * d/dx: scales each term by its x-degree."""
        out = {m: v * m[0] for m, v in self.terms.items() if m[0]}
        return PSeries._of(self.N, *_reduce(self.den, out))

    def x_parts(self, strip: bool = False) -> dict[int, "PSeries"]:
        """Split into x-degree parts; strip removes the x factor."""
        buckets: dict[int, dict[Monomial, int]] = {}
        for (xd, pexp), v in self.terms.items():
            buckets.setdefault(xd, {})[(0, pexp) if strip else (xd, pexp)] = v
        return {d: PSeries._of(self.N, *_reduce(self.den, t)) for d, t in buckets.items()}

    # -- queries -----------------------------------------------------------

    def coeff(self, x_deg: int, parts: Iterable[int] = ()) -> Fraction:
        """Exact coefficient of x^x_deg p_alpha, alpha given by parts."""
        if not 0 <= x_deg <= self.N:
            raise ValueError(f"x-degree {x_deg} outside truncation N={self.N}")
        v = self.terms.get((x_deg, _parts_key(parts)[1]))
        return _ZERO if v is None else Fraction(v, self.den)


def _require_positive_xdeg(f: PSeries, op: str) -> None:
    for mono in f.terms:
        if mono[0] == 0:
            raise ValueError(
                f"{op} needs every monomial to have positive x-degree; "
                f"found {monomial_str(mono)}"
            )


def exp(f: PSeries) -> PSeries:
    """Power-series exponential of an x-adically small series.

    Computed degree by degree in x via g' = f' g (one ring multiplication
    per pair of graded pieces), which keeps everything exact.
    """
    _require_positive_xdeg(f, "exp")
    N = f.N
    fparts = f.x_parts()
    gparts: list[PSeries] = [PSeries.one(N)]
    for d in range(1, N + 1):
        acc = PSeries.zero(N)
        for e, fe in fparts.items():
            if e <= d:
                acc = acc + (fe * gparts[d - e]) * e
        gparts.append(acc * Fraction(1, d))
    return sum(gparts[1:], gparts[0])


def log1(f: PSeries) -> PSeries:
    """log(1 + f) for an x-adically small series, exact to the truncation."""
    _require_positive_xdeg(f, "log1")
    N = f.N
    fparts = f.x_parts()
    gparts: list[PSeries] = [PSeries.zero(N)]
    for d in range(1, N + 1):
        acc = fparts.get(d, PSeries.zero(N))
        corr = PSeries.zero(N)
        for e, fe in fparts.items():
            if e < d:
                corr = corr + (fe * gparts[d - e]) * (d - e)
        gparts.append(acc - corr * Fraction(1, d))
    return sum(gparts[1:], gparts[0])


def subst_x(f: PSeries, s: PSeries) -> PSeries:
    """Substitute x -> s in f, reading f as the rule x-degree -> coefficient.

    The p-content of each x-graded piece of f is kept as the coefficient;
    s must be x-adically small so that the composition is exact.
    """
    f._check(s)
    _require_positive_xdeg(s, "subst_x (inner series)")
    N = f.N
    rule = f.x_parts(strip=True)
    out = rule.get(0, PSeries.zero(N))
    power = PSeries.one(N)
    for d in range(1, N + 1):
        power = power * s
        if power.is_zero:
            break
        cd = rule.get(d)
        if cd is not None:
            out = out + cd * power
    return out


def certify_fixed_point(
    builder: Callable[[PSeries], PSeries], s: PSeries
) -> PSeries:
    """Return s if builder(s) == s, else raise FixedPointError.

    An x-adic contraction has exactly one fixed point, so a candidate that
    passes is that fixed point, however it was computed.
    """
    if builder(s) != s:
        raise FixedPointError(
            "builder(s) != s: the candidate is not a fixed point, or the "
            "builder is not an x-adic contraction"
        )
    return s

