"""Sparse truncated formal power series with exact rational coefficients.

The carrier ring is Q[p_1, p_2, ...][[x]] cut off at x^N, its only bound.
A series maps monomials to nonzero rational coefficients.  The monomial
x^d prod p_i^e_i is stored as one integer code, 2^d prod q_i^e_i with q_i
the i-th odd prime (the odd part is ``partitions.prime_code``): unique
factorization makes it injective, a product of monomials is the product of
their codes, and d is the number of trailing zero bits.  The code is
private: other modules build series from
``(d, ((i, e_i), ...))`` keys, partitions (``PSeries.from_parts``) or single
monomials (``PSeries.term``) and read them back in that form
(``fraction_view``).  Monomials above x^N are dropped (never rounded); no
operation lowers the x-degree, so every kept coefficient is that of the
untruncated ring.  The p-indices need no bound: the prime table grows on
demand.  Genus is no coordinate: only the cut-and-join carries it.

``exp``, ``log1`` and ``powers`` require every input monomial to carry
positive x-degree, which keeps their expansions finite inside the cut.
``subst_x`` reads a table built by ``powers`` rather than the inner series,
so a caller builds each power table once.

A series is stored fraction-free, as integer numerators over one positive
denominator ``den``, in canonical form: no zero numerator, gcd(den,
*numerators) == 1, den == 1 for zero, so equal series have equal (den,
terms).  Every sum of series (``ExactRing.total``) runs in one pass: it
adds numerators over a running lcm of the denominators, rescales what it
holds only when that lcm grows, and reduces once at the end; ``+`` and
``-`` are two-item totals.  Scalars and derivations scale numerators,
products run their double loop on ints over den_a * den_b, and each result
is reduced by one gcd.  Only coefficient reads (``coeff``,
``fraction_view``) build Fractions; floating point is never used.

``ExactRing`` holds that storage and every operation that reads no
monomial; ``PSeries`` here and ``verify.WPoly`` are its two monomial
formats.  Public constructors validate (scalars are int or Fraction, no
zeros, nothing beyond the cut); ring operations skip that pass
(``ExactRing._of``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

from .partitions import odd_prime, prime_code, prime_exponent, prime_pairs

Monomial = tuple[int, tuple[tuple[int, int], ...]]

_ZERO = Fraction(0)

Key = TypeVar("Key", bound=Hashable)


class TruncationMismatch(ValueError):
    """Two series cut at different x-degrees were combined."""


def _encode(xd: int, p: Mapping[int, int] | Iterable[tuple[int, int]]) -> int:
    """The code 2^xd prod q_i^e of x^xd prod p_i^e (repeated indices add up)."""
    if xd < 0:
        raise ValueError(f"negative exponent in monomial x^{xd}")
    return prime_code(p.items() if isinstance(p, Mapping) else p) << xd


def _xdeg(code: int) -> int:
    """The x-degree of a coded monomial: its trailing zero bits."""
    return (code & -code).bit_length() - 1


def _decode(code: int) -> Monomial:
    """The (x-degree, sorted p-exponents) form of a coded monomial."""
    xd = _xdeg(code)
    return xd, prime_pairs(code >> xd)


def _exact(c: object) -> Fraction | int:
    """c itself if it is an exact scalar (an int or a Fraction), else TypeError."""
    if isinstance(c, (int, Fraction)):
        return c
    if isinstance(c, float):
        raise TypeError("floating-point coefficients are not allowed")
    raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__}")


def _integer_form(
    terms: Mapping[Key, Fraction | int], keep: Callable[[Key], bool]
) -> tuple[int, dict[Key, int]]:
    """The nonzero kept coefficients over their lcm denominator (canonical as is)."""
    clean = {mono: c for mono, c in terms.items() if _exact(c) and keep(mono)}
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


def _scale(den: int, terms: Mapping[Key, int], c: Fraction | int) -> tuple[int, dict[Key, int]]:
    """Canonical form of c * terms/den for an exact scalar c."""
    if not _exact(c):
        return 1, {}
    return _reduce(den * c.denominator, {m: v * c.numerator for m, v in terms.items()})


def fraction_view(f: "ExactRing") -> dict:
    """The coefficients of a PSeries or WPoly as Fractions, by monomial."""
    return {f._decode(m): Fraction(v, f.den) for m, v in f.terms.items()}


def monomial_str(mono: Monomial) -> str:
    """Readable form of a monomial key, for witnesses and debugging."""
    xd, pexp = mono
    out = []
    if xd:
        out.append("x" if xd == 1 else f"x^{xd}")
    for i, e in pexp:
        out.append(f"p{i}" if e == 1 else f"p{i}^{e}")
    return "*".join(out) if out else "1"


class ExactRing:
    """Immutable sparse exact polynomial stored as terms/den, cut at N.

    The body both exact rings of the package share; they differ only in the
    format of a monomial key.  ``PSeries`` keys monomial codes and cuts the
    x-degree at N.  ``verify.WPoly`` keys exponent triples and cuts
    each variable at N, or nothing when N is None.  A subclass supplies its
    constructor, ``_products`` (the summed numerator products by monomial,
    inside the cut), ``_mono_str`` (the text of one monomial) and, when it
    stores a monomial in private form, ``_decode`` (its public form).

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

    @staticmethod
    def _decode(mono: Hashable) -> Hashable:
        return mono

    def __repr__(self) -> str:
        return f"<{type(self).__name__} N={self.N}: {len(self.terms)} terms>"

    def __add__(self, other: "ExactRing") -> "ExactRing":
        return self.total(self.N, (self, other))

    def __sub__(self, other: "ExactRing") -> "ExactRing":
        return self.total(self.N, (self, -other))

    def __neg__(self) -> "ExactRing":
        return self._of(self.N, self.den, {m: -v for m, v in self.terms.items()})

    def __mul__(self, other: "ExactRing | Fraction | int") -> "ExactRing":
        if not isinstance(other, ExactRing):
            return self._of(self.N, *_scale(self.den, self.terms, other))
        self._check(other)
        acc = self._products(other)
        return self._of(self.N, *_reduce(self.den * other.den, {m: v for m, v in acc.items() if v}))

    __rmul__ = __mul__

    @classmethod
    def total(cls, N: int | None, items: Iterable["ExactRing"]) -> "ExactRing":
        """The sum of items, each cut at N, in one pass (zero when items is empty).

        The sum starts as a copy of the first summand, and again whenever it
        has cancelled to zero.  Numerators add up over a running lcm of the
        denominators; the sum so far is rescaled only when that lcm grows,
        loses each numerator that cancels, and is reduced once at the end.
        """
        den, acc = 1, {}
        for f in items:
            if f.N != N:
                raise TruncationMismatch(f"N={N} vs N={f.N}")
            if not acc:
                den, acc = f.den, dict(f.terms)
                continue
            if den % f.den:
                grown = lcm(den, f.den)
                up, den = grown // den, grown
                acc = {m: v * up for m, v in acc.items()}
            up = den // f.den
            for m, v in f.terms.items():
                if s := acc.get(m, 0) + v * up:
                    acc[m] = s
                else:
                    del acc[m]
        return cls._of(N, *_reduce(den, acc))

    def lead_str(self) -> str:
        """The lexicographically first monomial as text ("0" for zero): a witness."""
        return self._mono_str(min(map(self._decode, self.terms))) if self.terms else "0"


class PSeries(ExactRing):
    """Series in Q[p_1, p_2, ...][[x]] cut at x^N: ``ExactRing`` keyed by monomial code."""

    __slots__ = ()

    def __init__(
        self,
        N: int,
        terms: Mapping[Monomial, Fraction | int] | None = None,
    ):
        if N < 1:
            raise ValueError(f"truncation degree N={N} is below 1")
        coded: dict[int, Fraction | int] = {}
        for (xd, pexp), c in (terms or {}).items():
            code = _encode(xd, pexp)
            coded[code] = coded[code] + c if code in coded else c
        self.N = N
        self.den, self.terms = _integer_form(coded, lambda code: _xdeg(code) <= N)

    # Code objects of their own for the benchmark probes series.PSeries.{mul,
    # add}: cProfile counts calls per code object, and a body shared with
    # WPoly would merge the two rings' counts.
    def __mul__(self, other: "PSeries | Fraction | int") -> "PSeries":
        return ExactRing.__mul__(self, other)

    __rmul__ = __mul__

    def __add__(self, other: "PSeries") -> "PSeries":
        return ExactRing.__add__(self, other)

    _mono_str = staticmethod(monomial_str)
    _decode = staticmethod(_decode)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(N: int) -> "PSeries":
        return PSeries(N)

    @staticmethod
    def one(N: int) -> "PSeries":
        return PSeries(N, {(0, ()): 1})

    @staticmethod
    def x(N: int, power: int = 1) -> "PSeries":
        return PSeries(N, {(power, ()): 1})

    @staticmethod
    def term(
        N: int,
        coeff: Fraction | int,
        x: int = 0,
        p: Mapping[int, int] | Iterable[tuple[int, int]] = (),
    ) -> "PSeries":
        """Single monomial coeff * x^x * p-monomial."""
        return PSeries.one(N).shift(coeff, x, p)

    @staticmethod
    def from_parts(
        N: int, coeffs: Mapping[Iterable[int], Fraction | int]
    ) -> "PSeries":
        """sum of coeff * x^n p_alpha over alpha given by its parts, n = |alpha|.

        Keys that name the same partition in another order add up (they
        encode to one monomial, and the constructor adds those).
        """
        return PSeries(
            N, {(sum(parts), tuple((a, 1) for a in parts)): c for parts, c in coeffs.items()}
        )

    # -- ring operations ---------------------------------------------------

    def _products(self, other: "PSeries") -> dict[int, int]:
        N = self.N
        # other's terms by x-degree: the first ends[d] have x-degree <= d
        buckets: list[list[tuple[int, int]]] = [[] for _ in range(N + 1)]
        for c, v in other.terms.items():
            buckets[_xdeg(c)].append((c, v))
        B, ends = [], []
        for bucket in buckets:
            B += bucket
            ends.append(len(B))
        acc: dict[int, int] = {}
        for c1, a in self.terms.items():
            for c2, b in B[: ends[N - _xdeg(c1)]]:
                key = c1 * c2
                acc[key] = acc.get(key, 0) + a * b
        return acc

    def shift(
        self,
        coeff: Fraction | int = 1,
        x: int = 0,
        p: Mapping[int, int] | Iterable[tuple[int, int]] = (),
    ) -> "PSeries":
        """Multiply by a single monomial (cheaper than building a PSeries)."""
        m, top = _encode(x, p), self.N - x
        out = {c * m: v for c, v in self.terms.items() if not x or _xdeg(c) <= top}
        return PSeries._of(self.N, *_scale(self.den, out, coeff))

    # -- derivations and slices --------------------------------------------

    def pdiff(self, k: int) -> "PSeries":
        """Formal partial derivative with respect to p_k."""
        q = odd_prime(k)
        out: dict[int, int] = {}
        for c, v in self.terms.items():
            if c % q == 0:
                out[c // q] = v * prime_exponent(c, k)
        return PSeries._of(self.N, *_reduce(self.den, out))

    def xdiff(self) -> "PSeries":
        """The Euler operator x * d/dx: scales each term by its x-degree."""
        out = {c: v * d for c, v in self.terms.items() if (d := _xdeg(c))}
        return PSeries._of(self.N, *_reduce(self.den, out))

    def x_parts(self, strip: bool = False) -> dict[int, "PSeries"]:
        """Split into x-degree parts; strip removes the x factor."""
        buckets: dict[int, dict[int, int]] = {}
        for c, v in self.terms.items():
            xd = _xdeg(c)
            buckets.setdefault(xd, {})[c >> xd if strip else c] = v
        return {d: PSeries._of(self.N, *_reduce(self.den, t)) for d, t in buckets.items()}

    # -- queries -----------------------------------------------------------

    def coeff(self, x_deg: int, parts: Iterable[int] = ()) -> Fraction:
        """Exact coefficient of x^x_deg p_alpha, alpha given by parts."""
        if not 0 <= x_deg <= self.N:
            raise ValueError(f"x-degree {x_deg} outside truncation N={self.N}")
        v = self.terms.get(_encode(x_deg, ((a, 1) for a in parts)))
        return _ZERO if v is None else Fraction(v, self.den)


def _require_positive_xdeg(f: PSeries, op: str) -> None:
    for code in f.terms:
        if code & 1:
            raise ValueError(
                f"{op} needs every monomial to have positive x-degree; "
                f"found {monomial_str(_decode(code))}"
            )


def exp(f: PSeries) -> PSeries:
    """Power-series exponential of an x-adically small series.

    Computed degree by degree in x via g' = f' g (one ring multiplication
    per pair of graded pieces), which keeps everything exact.
    """
    _require_positive_xdeg(f, "exp")
    N = f.N
    dfparts = f.xdiff().x_parts()
    gparts: list[PSeries] = [PSeries.one(N)]
    for d in range(1, N + 1):
        acc = PSeries.total(N, (dfe * gparts[d - e] for e, dfe in dfparts.items() if e <= d))
        gparts.append(acc * Fraction(1, d))
    return PSeries.total(N, gparts)


def log1(f: PSeries) -> PSeries:
    """log(1 + f) for an x-adically small series, exact to the truncation.

    Computed degree by degree in x on h = x g' for g = log(1 + f), via
    h = x f' - f h; g_d is h_d / d.
    """
    _require_positive_xdeg(f, "log1")
    N = f.N
    fparts, dfparts = f.x_parts(), f.xdiff().x_parts()
    hparts: list[PSeries] = [PSeries.zero(N)]
    for d in range(1, N + 1):
        corr = PSeries.total(N, (fe * hparts[d - e] for e, fe in fparts.items() if e < d))
        hparts.append(dfparts.get(d, PSeries.zero(N)) - corr)
    return PSeries.total(N, (h * Fraction(1, d) for d, h in enumerate(hparts) if d))


def powers(s: PSeries) -> tuple[PSeries, ...]:
    """The power table s^0 .. s^N of an x-adically small s, cut at x^N."""
    _require_positive_xdeg(s, "powers")
    out = [PSeries.one(s.N)]
    for _ in range(s.N):
        out.append(out[-1] * s)
    return tuple(out)


def subst_x(f: PSeries, pw: Sequence[PSeries]) -> PSeries:
    """Substitute x -> s in f, given the power table pw = powers(s).

    f is read as the rule x-degree d -> coefficient: the p-content of its
    x-graded piece of degree d multiplies s^d.  A piece of one term shifts
    the codes of s^d by its own (it has no x, so nothing leaves the cut).
    """
    f._check(pw[0])

    def pieces():
        for d, cd in f.x_parts(strip=True).items():
            if len(cd.terms) != 1:
                yield cd * pw[d]
                continue
            [(code, v)] = cd.terms.items()
            shifted = {c * code: u * v for c, u in pw[d].terms.items()}
            yield PSeries._of(f.N, *_reduce(cd.den * pw[d].den, shifted))

    return PSeries.total(f.N, pieces())
