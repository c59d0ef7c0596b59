"""Sparse exact-rational multivariate polynomials and polynomial maps.

A polynomial in n variables z1..zn is stored as a map from packed exponents
to nonzero integer numerators over one positive common denominator, as in
FLINT's `fmpq_mpoly`.  An exponent tuple is packed into one int with w bits
per variable, w = `intpoly.width(n, total degree)` (see `intpoly`); for n = 3
that is w = 10:

    z1^2 * z3 + 3/2   ->   {2 + (1 << 20): 2, 0: 3} over 2, at width 10

The form is canonical: no zero numerator is stored, the gcd of the
denominator and all numerators is 1, and the width is a function of n and
the total degree alone, so equal polynomials have equal keys, and equality
and hashing compare ints.  All arithmetic is exact; floats are rejected at
the boundary.

Products (`*` and inside `substitute`) run on `intpoly.sum_of_products`,
and a triangular shift of a map (`PolyMap._shift`) on `intpoly.shift`; both
take and return this form.  Sums, negation, derivatives and the
degree work on the packed keys, and repack them only when widths differ or
a top degree cancelled.  `substitute` and `**` share one power routine: a
one-term power raises its key as key * e, any other is stepped up by one
running product, and only the powers that the terms read are cached.  The
readers that need exponent tuples (`exponents()`, `terms`, `coefficient()`,
the weighted-degree readers and `substitute`'s outer loop) share one decode
per polynomial, made on first use and kept.  `terms` is a read-only
Fraction view built on it.  The value at a point (`evaluate`, on
`intpoly.evaluate`) and series along lines (`_series_at`) read the packed
keys instead.  Every public result still gives Fractions.  Only this module
and `intpoly` know the storage: the package's other modules go through
`exponents()`, `terms`, `evaluate` and `_series_at`, which is
`intpoly.series` re-exported.

The module also owns the textual syntax shared with the CLI: terms like
`3/2 z1^2 z3 - z2 + 1`, with exact rational literals `p/q`.  The syntax is
regular: whitespace may sit between any two tokens but ends a numeral.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import lshift
from types import MappingProxyType
from typing import Dict, KeysView, Mapping, Optional, Sequence

from .errors import DimensionMismatch, DoesNotFixOrigin
from .errors import IndexOutOfRange, ParseError
from .intpoly import degree, evaluate, reduced, repack
from .intpoly import series as _series_at, shift, sum_of_products, unpack, width
from .linalg import LinearMap, _integral, as_fraction, exact_text
from .weights import MultiIndex, WeightVector, weighted_degree


class Polynomial:
    """An immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("n", "_num", "_den", "_width", "_exps", "_terms")

    def __init__(self, n: int, terms: Optional[Mapping] = None):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        clean: Dict[MultiIndex, Fraction] = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(map(int, alpha))
            if len(alpha) != n:
                raise DimensionMismatch(
                    f"exponent {alpha} has length {len(alpha)}, expected {n}"
                )
            if min(alpha) < 0:
                raise ValueError(f"exponents must be nonnegative, got {alpha}")
            coeff = as_fraction(coeff)
            if coeff:
                clean[alpha] = coeff
        w = width(n, max(map(sum, clean), default=0))
        shifts = range(0, n * w, w)
        numerators, self._den = _integral(clean.values())
        exps = dict(zip(clean, numerators))
        self.n, self._width, self._exps, self._terms = n, w, exps, clean
        self._num = {sum(map(lshift, alpha, shifts)): c for alpha, c in exps.items()}

    @classmethod
    def _from_ints(cls, n: int, num: Dict[int, int], den: int, w: int) -> "Polynomial":
        """Trusted constructor for internal use; num over den at width w must be canonical."""
        self = object.__new__(cls)
        self.n, self._num, self._den, self._width = n, num, den, w
        self._exps = self._terms = None
        return self

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls._from_ints(n, {}, 1, width(n, 0))

    @classmethod
    def constant(cls, n: int, value) -> "Polynomial":
        return cls(n, {(0,) * n: value})

    @classmethod
    def variable(cls, n: int, j: int) -> "Polynomial":
        """The polynomial z_j (1-based j)."""
        if not 1 <= j <= n:
            raise IndexOutOfRange(f"variable index {j} outside 1..{n}")
        w = width(n, 1)
        return cls._from_ints(n, {1 << (j - 1) * w: 1}, 1, w)

    @classmethod
    def monomial(cls, n: int, alpha: Sequence[int], coeff=1) -> "Polynomial":
        return cls(n, {tuple(alpha): coeff})

    @property
    def terms(self) -> Mapping:
        """Read-only Fraction view of the term map."""
        if self._terms is None:
            den = self._den
            self._terms = {alpha: Fraction(c, den) for alpha, c in self._decoded().items()}
        return MappingProxyType(self._terms)

    def _decoded(self) -> Dict[MultiIndex, int]:
        """The numerators keyed by exponent tuples, in key order; decoded once."""
        if self._exps is None:
            self._exps = unpack(self._num, self.n, self._width)
        return self._exps

    def exponents(self) -> KeysView:
        """The exponents of the stored terms, without building coefficients."""
        return self._decoded().keys()

    def coefficient(self, alpha: Sequence[int]) -> Fraction:
        return Fraction(self._decoded().get(tuple(alpha), 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    # arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise DimensionMismatch(f"dimensions differ: {self.n} vs {other.n}")
            return other
        return Polynomial.constant(self.n, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        n, w, num, other_num = self.n, self._width, self._num, other._num
        if other._width != w:
            w = max(w, other._width)
            num, other_num = repack(num, n, self._width, w), repack(other_num, n, other._width, w)
        den = lcm(self._den, other._den)
        scale = den // self._den
        out = dict(num) if scale == 1 else {key: c * scale for key, c in num.items()}
        scale = den // other._den
        for key, c in other_num.items():
            out[key] = out.get(key, 0) + c * scale
        return Polynomial._from_ints(n, *reduced(n, out, den, w))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_ints(
            self.n, {key: -c for key, c in self._num.items()}, self._den, self._width
        )

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        return Polynomial._from_ints(self.n, *sum_of_products(self.n, ((1, [self, other]),)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if type(exponent) is not int or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        # substitute's powers: one key product for one term, else stepped up
        return Polynomial.monomial(1, (exponent,)).substitute([self])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._num == other._num

    def __hash__(self):
        if self._num.keys() <= {0}:  # equal to its value, so hashed as it
            return hash(self.constant_term())
        return hash((self.n, self._den, frozenset(self._num.items())))

    # structure ------------------------------------------------------------

    def total_degree(self) -> int:
        """Max |alpha| over stored terms; 0 for the zero polynomial."""
        return degree(self._num, self._width)

    def is_m_homogeneous(self, weights: WeightVector, k: int) -> bool:
        """True iff every term has weighted degree m . alpha == k.

        The zero polynomial is homogeneous of every order.
        """
        if weights.n != self.n:
            raise DimensionMismatch(f"dimensions differ: {self.n} vs {weights.n}")
        return all(weighted_degree(weights.m, alpha) == k for alpha in self._decoded())

    def is_i_resonant(self, weights: WeightVector, i: int) -> bool:
        """True iff the polynomial is m-homogeneous of order m_i."""
        weights.check_index(i)
        return self.is_m_homogeneous(weights, weights.m[i - 1])

    def derivative(self, j: int) -> "Polynomial":
        """Partial derivative with respect to z_j (1-based)."""
        if not 1 <= j <= self.n:
            raise IndexOutOfRange(f"variable index {j} outside 1..{self.n}")
        # distinct exponents stay distinct, so no two terms meet
        w = self._width
        shift, mask = (j - 1) * w, (1 << w) - 1
        out: Dict[int, int] = {}
        for key, c in self._num.items():
            e = key >> shift & mask
            if e:
                out[key - (1 << shift)] = c * e
        return Polynomial._from_ints(self.n, *reduced(self.n, out, self._den, w))

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point, put over one common denominator."""
        numerators, den = _integral([as_fraction(x) for x in point])
        if len(numerators) != self.n:
            raise DimensionMismatch(f"point has length {len(numerators)}, expected {self.n}")
        value = evaluate(self._num, self._width, numerators, den)
        return Fraction(value, self._den * den ** self.total_degree())

    __call__ = evaluate

    def substitute(self, values: Sequence["Polynomial"], _cache=None) -> "Polynomial":
        """Substitute a polynomial for each variable.

        `values[j-1]` replaces z_j; all substituted polynomials must share a
        dimension, which becomes the dimension of the result.  An optional
        power cache, keyed (j - 1, e), is shared across the components of a
        map composition.  It keeps only the powers z_j^e that some term
        reads: for each variable the exponents that occur are taken in
        ascending order, each stepped up by one running product from the
        highest power already cached, and the steps in between are dropped.
        A one-term value's power is one term and takes no steps.  The terms'
        products are summed in one integer accumulation.
        """
        if len(values) != self.n:
            raise DimensionMismatch(
                f"substitution needs {self.n} polynomials, got {len(values)}"
            )
        target = values[0].n
        if any(v.n != target for v in values):
            raise DimensionMismatch("substituted polynomials have mixed dimensions")
        cache = _cache if _cache is not None else {}
        decoded = self._decoded()
        # ascending, so each power steps up from the last one cached
        for j, e in sorted({(j, e) for alpha in decoded for j, e in enumerate(alpha) if e}):
            if (j, e) in cache:
                continue
            value = values[j]
            if len(value._num) < 2:
                # zero, or one term whose power is one term: no steps at all,
                # and at a width that holds the power, its key is key * e
                w = width(target, value.total_degree() * e)
                num = repack(value._num, target, value._width, w)
                result = Polynomial._from_ints(
                    target, {key * e: c**e for key, c in num.items()}, value._den**e, w
                )
            else:
                # one factor a step, which is cheaper than squaring big powers
                top = e
                while top > 1 and (j, top) not in cache:
                    top -= 1
                result = cache[j, top] if top > 1 else value
                for _ in range(top, e):
                    result = result * value
            cache[j, e] = result

        products = [
            (c, [cache[j, e] for j, e in enumerate(alpha) if e]) for alpha, c in decoded.items()
        ]
        return Polynomial._from_ints(target, *sum_of_products(target, products, self._den))

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.n}, {self!s})"


class PolyMap:
    """An n-tuple of polynomials in n variables, i.e. a self-map of C^n."""

    __slots__ = ("n", "components")

    def __init__(self, components: Sequence[Polynomial]):
        components = tuple(components)
        if not components:
            raise ValueError("a polynomial map needs at least one component")
        n = len(components)
        if any(p.n != n for p in components):
            raise DimensionMismatch(
                f"{n} components must each live in {n} variables"
            )
        self.n, self.components = n, components

    @classmethod
    def identity(cls, n: int) -> "PolyMap":
        return cls(tuple(Polynomial.variable(n, j) for j in range(1, n + 1)))

    @classmethod
    def from_linear(cls, linear: LinearMap) -> "PolyMap":
        """The linear map z -> A z as a polynomial map."""
        n, w = linear.n, width(linear.n, 1)
        rows = [({1 << j * w: c for j, c in enumerate(num) if c}, den)
                for num, den in map(_integral, linear.rows)]
        # reduced gives an all-zero row the zero polynomial's width
        return cls([Polynomial._from_ints(n, *reduced(n, num, den, w)) for num, den in rows])

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """The composition self(inner(z)), exact."""
        if self.n != inner.n:
            raise DimensionMismatch(f"dimensions differ: {self.n} vs {inner.n}")
        cache: Dict = {}
        return PolyMap(
            tuple(p.substitute(inner.components, _cache=cache) for p in self.components)
        )

    def _shift(self, values: Optional[Sequence[Polynomial]], bound: int = 0) -> "PolyMap":
        """self(z + values), or for values None the h = self(z + h); see `intpoly.shift`."""
        shifted = shift(self.n, self, values, bound)
        return PolyMap([Polynomial._from_ints(self.n, *t) for t in shifted])

    def total_degree(self) -> int:
        return max(p.total_degree() for p in self.components)

    def linear_part(self) -> LinearMap:
        """The matrix of degree-1 coefficients; requires a fixed origin."""
        rows = []
        for i, p in enumerate(self.components, start=1):
            if p.constant_term():
                raise DoesNotFixOrigin(f"component {i} has a constant term")
            row = [p._num.get(1 << j * p._width, 0) for j in range(self.n)]
            rows.append(tuple(Fraction(c, p._den) if c else 0 for c in row))
        return LinearMap(tuple(rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __iter__(self):
        return iter(self.components)

    def __str__(self) -> str:
        return "\n".join(format_polynomial(p) for p in self.components)

    def __repr__(self) -> str:
        return f"PolyMap([{', '.join(format_polynomial(p) for p in self.components)}])"


# textual syntax ------------------------------------------------------------

# A sign may lead the first term and must separate every later pair; a term
# is an optional coefficient p or p/q, then factors z j or z j^e, and a `*`
# may follow the coefficient and each factor.  The factor pattern reads the
# factors back out of a matched term.  Each token takes the whitespace after
# it, so no pattern backtracks over a run of whitespace.
_SIGN = re.compile(r"\s*([+-]?)\s*")
_TERM = re.compile(
    r"(?:(\d+)\s*(?:/\s*(\d+)\s*)?(?:\*\s*)?)?"
    r"((?:z\s*\d+\s*(?:\^\s*\d+\s*)?(?:\*\s*)?)*)"
)
_FACTOR = re.compile(r"z\s*(\d+)\s*(?:\^\s*(\d+))?")


def _numeral(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ParseError(f"numeral of {len(digits)} digits is too long") from None


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse the textual syntax, e.g. `3/2 z1^2 z3 - z2 + 1`.

    `*` between factors is optional; rational literals are `p` or `p/q`.
    Whitespace may sit between any two tokens but ends a numeral, so `z1 2`
    is an error, not z12.  Variables are z1..zn and must stay within the
    ambient dimension n.
    """
    terms: Dict[MultiIndex, Fraction] = {}
    pos = 0
    while True:
        sign = _SIGN.match(text, pos)
        if pos and not sign[1]:
            raise ParseError(f"expected '+' or '-' at column {pos + 1}")
        term = _TERM.match(text, sign.end())
        numerator, denominator, factors = term.groups()
        if numerator is None and not factors:
            raise ParseError(f"expected a term at column {term.end() + 1}")
        coeff = 1 if numerator is None else _numeral(numerator)
        if denominator is not None:
            denominator = _numeral(denominator)
            if denominator == 0:
                raise ParseError("zero denominator")
            coeff = Fraction(coeff, denominator)
        exponents = [0] * n
        for j, e in _FACTOR.findall(factors):
            j = _numeral(j)
            if not 1 <= j <= n:
                raise ParseError(f"variable z{j} out of range for dimension {n}")
            exponents[j - 1] += _numeral(e) if e else 1
        alpha = tuple(exponents)
        # a sum that cancels to zero is dropped by the constructor
        terms[alpha] = terms.get(alpha, 0) + (-coeff if sign[1] == "-" else coeff)
        pos = term.end()
        if pos == len(text):
            return Polynomial(n, terms)


def _term_sort_key(alpha: MultiIndex):
    # display order: descending total degree, then lexicographically from z1
    return (-sum(alpha), tuple(-a for a in alpha))


def format_polynomial(p: Polynomial) -> str:
    """Canonical textual form; parses back to an equal polynomial."""
    if p.is_zero():
        return "0"
    pieces = []
    for alpha in sorted(p.terms, key=_term_sort_key):
        coeff = p.terms[alpha]
        factors = [f"z{j}^{e}" if e > 1 else f"z{j}" for j, e in enumerate(alpha, start=1) if e]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, exact_text(abs(coeff)))
        body = " ".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def parse_poly_map(text: str) -> PolyMap:
    """Parse a polynomial map, one component per line.

    The number of nonblank lines fixes the dimension.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty polynomial map")
    n = len(lines)
    return PolyMap(tuple(parse_polynomial(line, n) for line in lines))


def format_poly_map(f: PolyMap):
    """Components in canonical textual form, one string per component."""
    return [format_polynomial(p) for p in f.components]
