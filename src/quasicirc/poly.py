"""Sparse exact-rational multivariate polynomials and polynomial maps.

A polynomial in n variables z1..zn is a map from exponent tuples to nonzero
Fraction coefficients:

    z1^2 * z3 + 3/2   ->   {(2, 0, 1): Fraction(1), (0, 0, 0): Fraction(3, 2)}

Zero coefficients are never stored, so structural equality of the term maps
is mathematical equality.  All arithmetic is exact; floats are rejected at
the boundary.

Products (`*` and the accumulation inside `substitute`) run on
`intpoly.sum_of_products`, the one integer kernel: coefficients over one
common denominator, exponent tuples packed into single ints, and one
Fraction made per output term.  `evaluate` runs on `intpoly.evaluate`,
which sums integer terms at a point over one common denominator.  `terms`,
`coefficient()` and every public result still hold Fractions.

The module also owns the textual syntax shared with the CLI: terms like
`3/2 z1^2 z3 - z2 + 1`, whitespace-insensitive, with exact rational literals
`p/q`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence

from .errors import DimensionMismatch, DoesNotFixOrigin, IndexOutOfRange, ParseError
from .intpoly import evaluate as evaluate_terms, sum_of_products
from .linalg import LinearMap, as_fraction
from .weights import MultiIndex, WeightVector, weighted_degree


class Polynomial:
    """An immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Optional[Mapping] = None):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        clean: Dict[MultiIndex, Fraction] = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n:
                raise DimensionMismatch(
                    f"exponent {alpha} has length {len(alpha)}, expected {n}"
                )
            if any(a < 0 for a in alpha):
                raise ValueError(f"exponents must be nonnegative, got {alpha}")
            coeff = as_fraction(coeff)
            if coeff:
                clean[alpha] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _from_clean(cls, n: int, terms: Dict[MultiIndex, Fraction]) -> "Polynomial":
        """Trusted constructor for internal use; terms must be canonical."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", terms)
        return self

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls._from_clean(n, {})

    @classmethod
    def constant(cls, n: int, value) -> "Polynomial":
        value = as_fraction(value)
        if not value:
            return cls.zero(n)
        return cls._from_clean(n, {(0,) * n: value})

    @classmethod
    def variable(cls, n: int, j: int) -> "Polynomial":
        """The polynomial z_j (1-based j)."""
        if not 1 <= j <= n:
            raise IndexOutOfRange(f"variable index {j} outside 1..{n}")
        alpha = tuple(int(k == j - 1) for k in range(n))
        return cls._from_clean(n, {alpha: Fraction(1)})

    @classmethod
    def monomial(cls, n: int, alpha: Sequence[int], coeff=1) -> "Polynomial":
        return cls(n, {tuple(alpha): coeff})

    @property
    def terms(self) -> Mapping:
        """Read-only view of the term map (exponent tuple -> coefficient)."""
        return MappingProxyType(self._terms)

    def coefficient(self, alpha: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(alpha), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.n, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    # arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise DimensionMismatch(f"dimensions differ: {self.n} vs {other.n}")
            return other
        return Polynomial.constant(self.n, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self._terms)
        for alpha, coeff in other._terms.items():
            acc = out.get(alpha, Fraction(0)) + coeff
            if acc:
                out[alpha] = acc
            else:
                out.pop(alpha, None)
        return Polynomial._from_clean(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_clean(self.n, {a: -c for a, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        terms = sum_of_products(self.n, ((1, [self._terms, other._terms]),))
        return Polynomial._from_clean(self.n, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.constant(self.n, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    # structure ------------------------------------------------------------

    def total_degree(self) -> int:
        """Max |alpha| over stored terms; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(sum(alpha) for alpha in self._terms)

    def is_m_homogeneous(self, weights: WeightVector, k: int) -> bool:
        """True iff every term has weighted degree m . alpha == k.

        The zero polynomial is homogeneous of every order.
        """
        if weights.n != self.n:
            raise DimensionMismatch(f"dimensions differ: {self.n} vs {weights.n}")
        return all(weighted_degree(weights.m, alpha) == k for alpha in self._terms)

    def is_i_resonant(self, weights: WeightVector, i: int) -> bool:
        """True iff the polynomial is m-homogeneous of order m_i."""
        weights.check_index(i)
        return self.is_m_homogeneous(weights, weights.m[i - 1])

    def m_order_decomposition(self, weights: WeightVector) -> Dict[int, "Polynomial"]:
        """Split into m-homogeneous parts, keyed by weighted degree.

        The parts sum back to the polynomial exactly; the zero polynomial
        decomposes into the empty map.
        """
        if weights.n != self.n:
            raise DimensionMismatch(f"dimensions differ: {self.n} vs {weights.n}")
        buckets: Dict[int, Dict[MultiIndex, Fraction]] = {}
        for alpha, coeff in self._terms.items():
            buckets.setdefault(weighted_degree(weights.m, alpha), {})[alpha] = coeff
        return {
            k: Polynomial._from_clean(self.n, part) for k, part in sorted(buckets.items())
        }

    def derivative(self, j: int) -> "Polynomial":
        """Partial derivative with respect to z_j (1-based)."""
        if not 1 <= j <= self.n:
            raise IndexOutOfRange(f"variable index {j} outside 1..{self.n}")
        out: Dict[MultiIndex, Fraction] = {}
        for alpha, coeff in self._terms.items():
            e = alpha[j - 1]
            if e:
                beta = alpha[: j - 1] + (e - 1,) + alpha[j:]
                out[beta] = out.get(beta, Fraction(0)) + coeff * e
        return Polynomial._from_clean(self.n, {a: c for a, c in out.items() if c})

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point, put over one common denominator."""
        values = [as_fraction(v) for v in point]
        if len(values) != self.n:
            raise DimensionMismatch(f"point has length {len(values)}, expected {self.n}")
        den = lcm(*(v.denominator for v in values))
        numerators = [v.numerator * (den // v.denominator) for v in values]
        return evaluate_terms(self._terms, numerators, den, {})

    __call__ = evaluate

    def substitute(self, values: Sequence["Polynomial"], _cache=None) -> "Polynomial":
        """Substitute a polynomial for each variable.

        `values[j-1]` replaces z_j; all substituted polynomials must share a
        dimension, which becomes the dimension of the result.  An optional
        power cache is shared across the components of a map composition.
        Powers are built in a loop, so any exponent works without recursion,
        and the terms' products are summed in one integer accumulation.
        """
        if len(values) != self.n:
            raise DimensionMismatch(
                f"substitution needs {self.n} polynomials, got {len(values)}"
            )
        target = values[0].n
        if any(v.n != target for v in values):
            raise DimensionMismatch("substituted polynomials have mixed dimensions")
        cache = _cache if _cache is not None else {}

        def power(j: int, e: int) -> Polynomial:
            key = (j, e)
            if key in cache:
                return cache[key]
            value = values[j]
            if len(value._terms) < 2:
                # zero, or one term whose power is one term: no steps at all
                result = Polynomial._from_clean(
                    target,
                    {tuple(a * e for a in alpha): c**e for alpha, c in value._terms.items()},
                )
            else:
                # stepped up from the highest cached power, caching every
                # step: substitutions use most powers up to the largest
                # exponent, and a step multiplies by the first power instead
                # of squaring big ones
                top = e
                while top > 1 and (j, top) not in cache:
                    top -= 1
                result = cache[(j, top)] if top > 1 else value
                for k in range(top + 1, e + 1):
                    result = result * value
                    cache[(j, k)] = result
            cache[key] = result
            return result

        products = [
            (coeff, [power(j, e)._terms for j, e in enumerate(alpha) if e])
            for alpha, coeff in self._terms.items()
        ]
        return Polynomial._from_clean(target, sum_of_products(target, products))

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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "components", components)

    @classmethod
    def identity(cls, n: int) -> "PolyMap":
        return cls(tuple(Polynomial.variable(n, j) for j in range(1, n + 1)))

    @classmethod
    def from_linear(cls, linear: LinearMap) -> "PolyMap":
        """The linear map z -> A z as a polynomial map."""
        n = linear.n
        comps = []
        for i in range(n):
            terms = {}
            for j in range(n):
                if linear.rows[i][j]:
                    alpha = tuple(int(k == j) for k in range(n))
                    terms[alpha] = linear.rows[i][j]
            comps.append(Polynomial._from_clean(n, terms))
        return cls(tuple(comps))

    def component(self, i: int) -> Polynomial:
        """Component i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"component index {i} outside 1..{self.n}")
        return self.components[i - 1]

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """The composition self(inner(z)), exact."""
        if self.n != inner.n:
            raise DimensionMismatch(f"dimensions differ: {self.n} vs {inner.n}")
        cache: Dict = {}
        return PolyMap(
            tuple(p.substitute(inner.components, _cache=cache) for p in self.components)
        )

    def total_degree(self) -> int:
        return max(p.total_degree() for p in self.components)

    def fixes_origin(self) -> bool:
        return all(not p.constant_term() for p in self.components)

    def linear_part(self) -> LinearMap:
        """The matrix of degree-1 coefficients; requires a fixed origin."""
        rows = []
        for i, p in enumerate(self.components, start=1):
            if p.constant_term():
                raise DoesNotFixOrigin(f"component {i} has a constant term")
            row = [Fraction(0)] * self.n
            for alpha, coeff in p.terms.items():
                if sum(alpha) == 1:
                    row[alpha.index(1)] = coeff
            rows.append(tuple(row))
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

_TOKEN = re.compile(r"\s*(\d+|[z^/+\-*])")


def _tokenize(text: str):
    # whitespace between tokens is insignificant, but it does end a numeral
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise ParseError(
                    f"unexpected character {text[pos:].lstrip()[0]!r} in polynomial"
                )
            break
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse the textual syntax, e.g. `3/2 z1^2 z3 - z2 + 1`.

    Whitespace is ignored entirely; `*` between factors is optional; rational
    literals are `p` or `p/q`.  Variables are z1..zn and must stay within the
    ambient dimension n.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def take_int(what: str) -> int:
        tok = peek()
        if tok is None or not tok.isdigit():
            raise ParseError(f"expected {what}, got {tok!r}")
        return int(take())

    def parse_term():
        coeff = None
        if peek() is not None and peek().isdigit():
            numerator = take_int("number")
            if peek() == "/":
                take()
                denominator = take_int("denominator")
                if denominator == 0:
                    raise ParseError("zero denominator")
                coeff = Fraction(numerator, denominator)
            else:
                coeff = Fraction(numerator)
            if peek() == "*":
                take()
        exponents = [0] * n
        saw_var = False
        while peek() == "z":
            take()
            j = take_int("variable index")
            if not 1 <= j <= n:
                raise ParseError(f"variable z{j} out of range for dimension {n}")
            e = 1
            if peek() == "^":
                take()
                e = take_int("exponent")
            exponents[j - 1] += e
            saw_var = True
            if peek() == "*":
                take()
        if coeff is None and not saw_var:
            raise ParseError(f"expected a term, got {peek()!r}")
        if coeff is None:
            coeff = Fraction(1)
        return tuple(exponents), coeff

    terms: Dict[MultiIndex, Fraction] = {}
    sign = Fraction(1)
    if peek() in ("+", "-"):
        sign = Fraction(-1) if take() == "-" else Fraction(1)
    while True:
        alpha, coeff = parse_term()
        acc = terms.get(alpha, Fraction(0)) + sign * coeff
        if acc:
            terms[alpha] = acc
        else:
            terms.pop(alpha, None)
        if peek() is None:
            break
        tok = take()
        if tok == "+":
            sign = Fraction(1)
        elif tok == "-":
            sign = Fraction(-1)
        else:
            raise ParseError(f"expected '+' or '-', got {tok!r}")
        if peek() is None:
            raise ParseError("dangling sign at end of polynomial")
    return Polynomial._from_clean(n, terms)


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
        factors = []
        for j, e in enumerate(alpha, start=1):
            if e == 1:
                factors.append(f"z{j}")
            elif e > 1:
                factors.append(f"z{j}^{e}")
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = " ".join(factors)
        else:
            body = f"{magnitude} " + " ".join(factors)
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
