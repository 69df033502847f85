"""Sparse truncated formal power series with exact rational coefficients.

The carrier ring is Q[p_1, p_2, ...][[x]] cut off at x^N, its only bound.
A series maps monomials to nonzero rational coefficients.  The monomial
x^d prod p_i^e_i is stored as one integer code, 2^d prod q_i^e_i with q_i
the i-th odd prime (the odd part is ``partitions.prime_code``): unique
factorization makes it injective, a product of monomials is the product of
their codes, and d is the number of trailing zero bits.  The code is
private: other modules build series from ``(d, ((i, e_i), ...))`` keys,
partitions with integer (num, den) coefficients
(``PSeries.from_part_pairs``) or single monomials (``PSeries.term``) and
read them back in that form (``fraction_view``).  Monomials above x^N are
dropped (never rounded); no operation lowers the x-degree, so every kept
coefficient is that of the untruncated ring.  The p-indices need no bound:
the prime table grows on demand.  Genus is no coordinate: only the
cut-and-join carries it.

``exp``, ``log1`` and ``powers`` require every input monomial to carry
positive x-degree, which keeps their expansions finite inside the cut.
``subst_x`` reads a table built by ``powers`` rather than the inner series,
so a caller builds each power table once; it reads each term of the rule
off its code (x^d from the trailing zero bits, the odd part as the
p-monomial p^e) and adds c s^d p^e to one sum, so multiplying by a
p-monomial has one implementation.

A series is stored fraction-free, as integer numerators over one positive
denominator ``den``, in canonical form: no zero numerator, gcd(den,
*numerators) == 1, den == 1 for zero, so equal series have equal (den,
terms).  Every linear combination (``ExactRing.weighted_total``; ``total``,
``+`` and ``-`` have weights 1 and -1) is one multiply-accumulate pass: a
summand c * f, c * f * g or c * f * g * p-monomial with c = a/b enters over
f.den * g.den * b, with a folded into the sum's rescaling factor, and its
numerators (or numerator products) are added straight into the running
numerators, so a product or a p-monomial multiple that feeds a sum is never
built as a series.  A weight is an int, a Fraction or an integer pair
(a, b), b > 0; the package's own weights are ints and pairs.  The sum is
rescaled only when the lcm of the denominators grows; what cancels stays in
it until one pass drops the zeros and one gcd reduces it at the end.  Scalar multiples, negation, products
and shifts (``shift``, the product by one monomial) are weighted totals of
one summand.  A product visits only the partners inside the cut: a right
factor's terms of each cut degree and below (``ExactRing._partner_lists``),
built the first time a series is a right factor and kept with it.
Derivations scale numerators and are reduced by one gcd.  Only coefficient
reads (``coeff``, ``fraction_view``) build a Fraction or import
``fractions``, and a Fraction passed in is read by its numerator and
denominator; floating point is never used.

``ExactRing`` holds that storage and every operation that reads no
monomial; ``PSeries`` here and ``verify.WPoly`` are its two monomial
formats.  Public constructors validate (scalars are int or Fraction, no
zeros, nothing beyond the cut); ring operations skip that pass
(``ExactRing._of``).
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

from .partitions import odd_prime, prime_code, prime_exponent, prime_pairs

if TYPE_CHECKING:
    from fractions import Fraction

Monomial = tuple[int, tuple[tuple[int, int], ...]]

Key = TypeVar("Key", bound=Hashable)


class TruncationMismatch(ValueError):
    """Two series cut at different x-degrees were combined."""


def _encode(xd: int, p: Iterable[tuple[int, int]]) -> int:
    """The code 2^xd prod q_i^e of x^xd prod p_i^e (repeated indices add up)."""
    if xd < 0:
        raise ValueError(f"negative exponent in monomial x^{xd}")
    return prime_code(p) << xd


def _xdeg(code: int) -> int:
    """The x-degree of a coded monomial: its trailing zero bits."""
    return (code & -code).bit_length() - 1


def _decode(code: int) -> Monomial:
    """The (x-degree, sorted p-exponents) form of a coded monomial."""
    xd = _xdeg(code)
    return xd, prime_pairs(code >> xd)


def _exact(c: object) -> Fraction | int:
    """c itself if it is an exact scalar (an int or a Fraction), else TypeError."""
    if isinstance(c, int):
        return c
    if isinstance(c, float):
        raise TypeError("floating-point coefficients are not allowed")
    from fractions import Fraction  # only a scalar that is no int loads fractions

    if isinstance(c, Fraction):
        return c
    raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__}")


def _pair(num: object, den: object) -> tuple[int, int]:
    """(num, den) if both are ints and den > 0, else TypeError or ValueError."""
    if type(num) is not int or type(den) is not int:
        raise TypeError(f"{(num, den)!r} is not a pair of ints")
    if den < 1:
        raise ValueError(f"denominator {den} is below 1")
    return num, den


def _ratio(c: object) -> tuple[int, int]:
    """(a, b), b > 0, of an exact weight c = a/b: an int, a Fraction or a pair (a, b)."""
    if type(c) is tuple:
        return _pair(*c)
    c = _exact(c)
    return c.numerator, c.denominator


def _reduce(den: int, terms: dict[Key, int]) -> tuple[int, dict[Key, int]]:
    """Canonical form of terms/den (den > 0, no zero numerator in terms)."""
    if not terms:
        return 1, terms
    g = gcd(den, *terms.values())
    if g == 1:
        return den, terms
    return den // g, {m: v // g for m, v in terms.items()}


def _accumulate(
    N: int | None, den: int, acc: dict, f: "ExactRing", c: object,
    g: "ExactRing | None" = None, p: Iterable[tuple[int, int]] | int = (),
) -> tuple[int, dict]:
    """acc/den + c * f * g * p, added into acc (see ``weighted_total``); p is
    ((i, e), ...) or, from ``subst_x``, its odd code."""
    if f.N != N or g is not None and g.N != N:
        raise TruncationMismatch(f"N={N} vs N={f.N if f.N != N else g.N}")
    a, b = _ratio(c)
    if not a or not f.terms or g is not None and not g.terms:
        return den, acc
    fden = f.den * b * (1 if g is None else g.den)
    m = p if type(p) is int else f._p_code(p) if p else 1
    if not acc:
        if g is None and m == 1:
            return fden, dict(f.terms) if a == 1 else {k: v * a for k, v in f.terms.items()}
        den = fden
    elif den % fden:
        grown = lcm(den, fden)
        up, den = grown // den, grown
        acc = {k: v * up for k, v in acc.items()}
    up = den // fden * a
    if g is not None:
        f._pairs_into(g, acc, up, m)
    elif m == 1:
        for k, v in f.terms.items():
            acc[k] = acc.get(k, 0) + v * up
    else:  # a p-monomial has no x, so every moved term stays inside the cut
        for k, v in f.terms.items():
            k *= m
            acc[k] = acc.get(k, 0) + v * up
    return den, acc


def _canonical(den: int, acc: dict) -> tuple[int, dict]:
    """``_reduce`` of an accumulator, whose sums may have cancelled to zero."""
    if 0 in acc.values():
        acc = {k: v for k, v in acc.items() if v}
    return _reduce(den, acc)


def fraction_view(f: "ExactRing") -> dict:
    """The coefficients of a PSeries or WPoly as Fractions, by monomial."""
    from fractions import Fraction

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
    constructor, ``_pairs_into`` (a product's pair loop), ``_cut_degree``
    (the degree of a key in the variable its partner lists are cut by),
    ``_mono_str`` (the text of one monomial) and, when it stores a monomial
    in private form, ``_decode`` (its public form).

    All binary operations demand the same N; mixing them raises
    TruncationMismatch rather than silently coercing.
    """

    __slots__ = ("N", "den", "terms", "_lists")

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

    @staticmethod
    def _p_code(p: Iterable[tuple[int, int]]) -> int:
        raise TypeError("only a PSeries has p-variables")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} N={self.N}: {len(self.terms)} terms>"

    def __add__(self, other: "ExactRing") -> "ExactRing":
        return self.total(self.N, (self, other))

    def __sub__(self, other: "ExactRing") -> "ExactRing":
        return self.weighted_total(self.N, ((self, 1), (other, -1)))

    def __neg__(self) -> "ExactRing":
        return self.weighted_total(self.N, ((self, -1),))

    def __mul__(self, other: "ExactRing | Fraction | int | tuple[int, int]") -> "ExactRing":
        summand = (self, 1, other) if isinstance(other, ExactRing) else (self, other)
        return self.weighted_total(self.N, (summand,))

    __rmul__ = __mul__

    def _partner_lists(self) -> list[list]:
        """lists[k]: the terms of degree <= k in the cut variable (a left term of
        degree d reads lists[N - d]), built the first time self is a right
        factor and kept as long as self."""
        try:
            return self._lists
        except AttributeError:
            buckets: list[list] = [[] for _ in range(self.N + 1)]
            degree = self._cut_degree
            for item in self.terms.items():
                buckets[degree(item[0])].append(item)
            lists, B = [], []
            for bucket in buckets:
                if bucket:
                    B = B + bucket
                lists.append(B)
            self._lists = lists
            return lists

    def _set_pairs(self, N: int | None, items: Iterable[tuple[Hashable, int, int]]) -> None:
        """Set self, cut at N, to the sum of num/den at key over items (key, num,
        den) of ints, den > 0: brought to the lcm denominator, repeated keys
        added, zeros dropped, reduced once.  Keys are in the ring's own format
        and inside the cut, unchecked."""
        items = list(items)
        den, acc = lcm(*(d for _, _, d in items)), {}
        for key, num, d in items:
            acc[key] = acc.get(key, 0) + num * (den // d)
        self.N, (self.den, self.terms) = N, _canonical(den, acc)

    @classmethod
    def _of_pairs(cls, N: int | None, items: Iterable[tuple[Hashable, int, int]]) -> "ExactRing":
        """A new series set by ``_set_pairs``: a constructor that builds no Fraction."""
        out = object.__new__(cls)
        out._set_pairs(N, items)
        return out

    @staticmethod
    def _exact_pairs(
        terms: Iterable[tuple[Key, object]], keep: Callable[[Key], bool]
    ) -> Iterable[tuple[Key, int, int]]:
        """(key, num, den) of each nonzero kept coefficient; every one must pass ``_exact``."""
        return ((k, c.numerator, c.denominator) for k, c in terms if _exact(c) and keep(k))

    @classmethod
    def total(cls, N: int | None, items: Iterable["ExactRing"]) -> "ExactRing":
        """The sum of items, each cut at N, in one pass (zero when items is empty)."""
        return cls.weighted_total(N, ((f, 1) for f in items))

    @classmethod
    def weighted_total(cls, N: int | None, weighted: Iterable[tuple]) -> "ExactRing":
        """The sum of the summands c * f, c * f * g or c * f * g * p, each cut at N.

        A summand is a tuple (f, c), (f, c, g) or (f, c, g, p): series f and
        g (g None for no factor), an exact weight c = a/b (an int, a
        Fraction or an integer pair (a, b), b > 0) and a p-monomial p given
        as ((i, e), ...) (PSeries only).  It enters over f.den * g.den
        * b with a folded into the sum's rescaling factor up, which
        multiplies each left numerator once, so a product or a multiple is
        never built as a series.  Zero weights and empty factors are
        skipped.  The sum is rescaled only when the lcm of the denominators
        grows, keeps what cancels until the end, and is reduced once.
        """
        den, acc = 1, {}
        for summand in weighted:
            den, acc = _accumulate(N, den, acc, *summand)
            del summand  # a summand made for this sum is freed before the next is made
        return cls._of(N, *_canonical(den, acc))

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
        coded = ((_encode(xd, pexp), c) for (xd, pexp), c in (terms or {}).items())
        self._set_pairs(N, self._exact_pairs(coded, lambda code: _xdeg(code) <= N))

    # Code objects of their own for the benchmark probes series.PSeries.{mul,
    # add}: cProfile counts calls per code object, and a body shared with
    # WPoly would merge the two rings' counts.
    def __mul__(self, other: "PSeries | Fraction | int | tuple[int, int]") -> "PSeries":
        return ExactRing.__mul__(self, other)

    __rmul__ = __mul__

    def __add__(self, other: "PSeries") -> "PSeries":
        return ExactRing.__add__(self, other)

    _mono_str = staticmethod(monomial_str)
    _decode = staticmethod(_decode)
    _cut_degree = staticmethod(_xdeg)
    _p_code = staticmethod(prime_code)

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
        p: Iterable[tuple[int, int]] = (),
    ) -> "PSeries":
        """Single monomial coeff * x^x * p-monomial (repeated p indices add up)."""
        return PSeries(N, {(x, tuple(p)): coeff})

    @staticmethod
    def from_part_pairs(
        N: int, coeffs: Mapping[Iterable[int], tuple[int, int]]
    ) -> "PSeries":
        """sum of num/den * x^n p_alpha over alpha given by its parts, n = |alpha|.

        Each coefficient is an integer pair (num, den), den > 0; no Fraction
        is built (see ``ExactRing._of_pairs``).  Every key is encoded, so a
        part below 1 is refused, before partitions above the cut are
        dropped; keys naming one partition in another order add up.
        """
        if N < 1:
            raise ValueError(f"truncation degree N={N} is below 1")
        items = []
        for parts, (num, den) in coeffs.items():
            num, den = _pair(num, den)
            code = _encode(n := sum(parts), ((a, 1) for a in parts))
            if n <= N:
                items.append((code, num, den))
        return PSeries._of_pairs(N, items)

    # -- ring operations ---------------------------------------------------

    def _pairs_into(self, other: "PSeries", acc: dict[int, int], up: int, m: int) -> None:
        """acc[key] += up * a * b for each pair inside the cut, key = c1 * c2 * m."""
        N, partners = self.N, other._partner_lists()
        # (c & -c).bit_length() is 1 + the x-degree of c (_xdeg inlined); m is odd
        for c1, a in self.terms.items():
            a *= up
            c1 *= m
            for c2, b in partners[N + 1 - (c1 & -c1).bit_length()]:
                key = c1 * c2
                acc[key] = acc.get(key, 0) + a * b

    def shift(
        self,
        coeff: Fraction | int = 1,
        x: int = 0,
        p: Iterable[tuple[int, int]] = (),
    ) -> "PSeries":
        """Multiply by the single monomial coeff * x^x * p-monomial."""
        return self * PSeries.term(self.N, coeff, x, p)

    # -- derivations and slices --------------------------------------------

    def pdiff(self, k: int) -> "PSeries":
        """Formal partial derivative with respect to p_k."""
        q = odd_prime(k)
        out: dict[int, int] = {}
        for c, v in self.terms.items():
            if c % q == 0:
                out[c // q] = v * prime_exponent(c, q)
        return PSeries._of(self.N, *_reduce(self.den, out))

    def xdiff(self) -> "PSeries":
        """The Euler operator x * d/dx: scales each term by its x-degree."""
        out = {c: v * d for c, v in self.terms.items() if (d := _xdeg(c))}
        return PSeries._of(self.N, *_reduce(self.den, out))

    def x_parts(self) -> dict[int, "PSeries"]:
        """Split into x-degree parts, each keeping its x factor (``subst_x``
        reads f term by term instead)."""
        buckets: dict[int, dict[int, int]] = {}
        for c, v in self.terms.items():
            buckets.setdefault(_xdeg(c), {})[c] = v
        return {d: PSeries._of(self.N, *_reduce(self.den, t)) for d, t in buckets.items()}

    # -- queries -----------------------------------------------------------

    def coeff(self, x_deg: int, parts: Iterable[int] = ()) -> Fraction:
        """Exact coefficient of x^x_deg p_alpha, alpha given by parts."""
        if not 0 <= x_deg <= self.N:
            raise ValueError(f"x-degree {x_deg} outside truncation N={self.N}")
        from fractions import Fraction

        v = self.terms.get(_encode(x_deg, ((a, 1) for a in parts)))
        return Fraction(0 if v is None else v, self.den)


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
        terms = ((dfe, (1, d), gparts[d - e]) for e, dfe in dfparts.items() if e <= d)
        gparts.append(PSeries.weighted_total(N, terms))
    return PSeries.total(N, gparts)


def log1(f: PSeries) -> PSeries:
    """log(1 + f) for an x-adically small series, exact to the truncation.

    Computed degree by degree in x on h = x g' for g = log(1 + f), via
    h = x f' - f h; g_d is h_d / d.
    """
    _require_positive_xdeg(f, "log1")
    N = f.N
    fparts, dfparts = f.x_parts(), f.xdiff().x_parts()
    zero = PSeries.zero(N)
    hparts: list[PSeries] = [zero]
    for d in range(1, N + 1):
        corr = ((fe, -1, hparts[d - e]) for e, fe in fparts.items() if e < d)
        hparts.append(PSeries.weighted_total(N, chain(((dfparts.get(d, zero), 1),), corr)))
    return PSeries.weighted_total(N, ((h, (1, d)) for d, h in enumerate(hparts) if d))


def powers(s: PSeries) -> tuple[PSeries, ...]:
    """The power table s^0 .. s^N of an x-adically small s, cut at x^N."""
    _require_positive_xdeg(s, "powers")
    out = [PSeries.one(s.N)]
    for _ in range(s.N):
        out.append(out[-1] * s)
    return tuple(out)


def subst_x(f: PSeries, pw: Sequence[PSeries]) -> PSeries:
    """Substitute x -> s in f, given the power table pw = powers(s).

    f is read as the rule x-degree d -> coefficient: each term v/den x^d p^e
    of f is read off its code (d the trailing zero bits, the odd part the
    p-code of p^e) and adds v/den s^d p^e, s^d times its p-monomial,
    straight into one weighted total, its weight reduced to an integer pair
    by one gcd.  The p-monomial has no x, so nothing leaves the cut.
    """
    f._check(pw[0])
    den = f.den

    def summands():
        for code, v in f.terms.items():
            d, g = _xdeg(code), gcd(v, den)
            yield pw[d], (v // g, den // g), None, code >> d

    return PSeries.weighted_total(f.N, summands())
