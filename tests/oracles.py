"""Independent oracles and shared fixtures for the test suite.

Everything here recomputes expected values by a different route than the
library (itertools box scans, symbolic substitution, degree-by-degree series
inversion) so the tests never check an implementation against itself.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, lcm, prod
from typing import Dict, Iterator, List

from quasicirc import (
    ConjugacySolution,
    NoResonantConjugacy,
    ParseError,
    Polynomial,
    PolyMap,
    TriangularResonantMap,
    WeightVector,
    conjugate,
    make_sigma,
    nonlinear_resonant_monomials,
    solve_exact,
)
from quasicirc.conjugation import _line_points
from quasicirc.weights import MultiIndex

# the fixed weight-vector set used by map-level property and acceptance tests
WEIGHT_SET = (
    (1, 1),
    (1, 2),
    (1, 3),
    (2, 3),
    (1, 1, 2),
    (1, 2, 2),
    (1, 2, 3),
    (1, 2, 4),
    (1, 2, 6),
    (1, 2, 3, 4),
)


def all_weight_tuples(max_n: int, max_entry: int):
    """Every valid weight tuple with n <= max_n and entries <= max_entry."""
    out = []
    for n in range(1, max_n + 1):
        for m in combinations_with_replacement(range(1, max_entry + 1), n):
            if gcd(*m) == 1:
                out.append(m)
    return out


def box_resonance_set(weights, i: int):
    """Brute-force oracle: scan the full box prod_j {0..m_i // m_j}."""
    target = weights[i - 1]
    ranges = [range(target // w + 1) for w in weights]
    return {
        alpha
        for alpha in product(*ranges)
        if sum(w * a for w, a in zip(weights, alpha)) == target
    }


def box_weighted_exponents(weights, target: int):
    """Brute-force oracle for {alpha : m . alpha == target}."""
    if target < 0:
        return set()
    ranges = [range(target // w + 1) for w in weights]
    return {
        alpha
        for alpha in product(*ranges)
        if sum(w * a for w, a in zip(weights, alpha)) == target
    }


def count_weighted_exponents(weights, target: int) -> int:
    """|{alpha : m . alpha == target}| by coin-change counting, listing nothing."""
    if target < 0:
        return 0
    ways = [1] + [0] * target
    for w in weights:
        for total in range(w, target + 1):
            ways[total] += ways[total - w]
    return ways[target]


def substitution_homogeneity(p: Polynomial, weights: WeightVector, k: int) -> bool:
    """Homogeneity via symbolic substitution in an extra scale variable.

    Embeds P(t^{m_1} z_1, ..., t^{m_n} z_n) and t^k P(z) into n+1 variables
    and compares them exactly.
    """
    scaled = Polynomial(
        p.n + 1,
        {
            alpha + (sum(w * a for w, a in zip(weights.m, alpha)),): c
            for alpha, c in p.terms.items()
        },
    )
    reference = Polynomial(p.n + 1, {alpha + (k,): c for alpha, c in p.terms.items()})
    return scaled == reference


def truncate_map(f: PolyMap, degree: int) -> PolyMap:
    return PolyMap(
        tuple(
            Polynomial(p.n, {a: c for a, c in p.terms.items() if sum(a) <= degree})
            for p in f.components
        )
    )


def series_inverse(sigma, max_degree: int) -> PolyMap:
    """Compositional inverse of sigma = id + g by degree-by-degree iteration.

    Iterates tau <- id - g(tau) with truncation at increasing total degree;
    because g starts in degree 2, each pass fixes one more degree level.
    Independent of the component-wise closed-form recursion.
    """
    n = sigma.n
    identity = PolyMap.identity(n)
    tau = identity
    for degree in range(2, max_degree + 1):
        substituted = [part.substitute(tau.components) for part in sigma.g]
        tau = truncate_map(
            PolyMap(
                tuple(
                    identity.components[i] - substituted[i] for i in range(n)
                )
            ),
            degree,
        )
    return tau


def unwind_inverse(sigma) -> TriangularResonantMap:
    """Compositional inverse id + h of sigma = id + g by the substitution recursion

        h_i = -g_i(z_1 + h_1, ..., z_{i-1} + h_{i-1}, 0, ..., 0),

    exact because g_i reads only z_1, ..., z_{i-1}: one `substitute` per
    component, independent of the lazy shift in `invert_sigma`.  The
    substitutions share one power cache, since g_i reads only final slots.
    """
    n = sigma.n
    slots, h, cache = [Polynomial.zero(n)] * n, [], {}
    for i, g_i in enumerate(sigma.g):
        h.append(-g_i.substitute(slots, _cache=cache))
        slots[i] = Polynomial.variable(n, i + 1) + h[i]
    return TriangularResonantMap(sigma.weight, tuple(h))


def generic_compose_sigma(outer, inner) -> TriangularResonantMap:
    """outer(inner(z)) by the generic `PolyMap.compose`, then g_i = component_i - z_i.

    Blind to the triangular structure that `compose_sigma` uses: both full
    maps are built and composed, and the identity is taken away afterwards.
    """
    n = outer.n
    composed = outer.as_poly_map().compose(inner.as_poly_map())
    parts = tuple(
        composed.components[i - 1] - Polynomial.variable(n, i) for i in range(1, n + 1)
    )
    return TriangularResonantMap(outer.weight, parts)


def coefficient_solve(f: PolyMap, weights: WeightVector) -> ConjugacySolution:
    """`solve_conjugacy` by matching sigma . f = J . sigma monomial by monomial.

    The unknowns are the nonlinear resonant coefficients of g, and each one
    contributes f^alpha (substituted symbolically) to its own component and
    -J[i][comp] z^alpha to every component i; every coefficient of the
    difference must vanish.  This system counts the free parameters exactly
    and takes no points, so it checks the point path.  Free unknowns are set
    to zero, and the residual is one exact conjugation.
    """
    n = f.n
    j_matrix = f.linear_part()
    j_forms = PolyMap.from_linear(j_matrix).components
    unknowns = [
        (i, alpha) for i in range(1, n + 1) for alpha in nonlinear_resonant_monomials(weights, i)
    ]
    cache: Dict = {}
    f_powers = [
        Polynomial.monomial(n, alpha).substitute(f.components, _cache=cache) for _, alpha in unknowns
    ]
    rows, rhs = [], []
    for i in range(1, n + 1):
        j_row = j_matrix.rows[i - 1]
        columns = [
            ((f_alpha if comp == i else Polynomial.zero(n))
             - Polynomial.monomial(n, alpha, j_row[comp - 1])).terms
            for (comp, alpha), f_alpha in zip(unknowns, f_powers)
        ]
        base = (f.components[i - 1] - j_forms[i - 1]).terms
        for beta in sorted(set(base).union(*columns)):
            rows.append([terms.get(beta, 0) for terms in columns])
            rhs.append(-base.get(beta, 0))
    solved = solve_exact(rows, rhs, len(unknowns))
    if solved is None:
        raise NoResonantConjugacy("the coefficient system is inconsistent")
    solution, free = solved
    sigma = make_sigma(weights, {key: value for key, value in zip(unknowns, solution) if value})
    return ConjugacySolution(sigma, j_matrix, conjugate(sigma, j_matrix) == f, free)



def reference_line_rows(f: PolyMap, j_matrix, unknowns: list, top: int) -> Iterator[tuple]:
    """The rows of sigma . f = J . sigma along lines t p, in Fractions, n (top - 1) a line.

    The lines pass through the library's seeded points, `_line_points`, the
    one home of that stream.  Each component's series along t p sums every
    decoded term: c z^beta adds c p^beta to t^|beta|, over the lcm of the
    component's denominators, and the series is kept up to t^top.
    f(tp)^alpha is multiplied out one factor at a time by the schoolbook
    product of series, cut at t^top, and row (i, d), for 2 <= d <= top, is
    the coefficient of t^d in [comp == i] f(tp)^alpha - J[i][comp] (tp)^alpha,
    with right-hand side -[t^d] f_i(tp).
    """
    n = f.n
    for point in _line_points(n):
        series = []
        for p in f.components:
            den = lcm(*(c.denominator for c in p.terms.values()))
            sums: Dict[int, int] = {}
            for beta, c in p.terms.items():
                term = c.numerator * (den // c.denominator) * prod(map(pow, point, beta))
                sums[sum(beta)] = sums.get(sum(beta), 0) + term
            series.append([Fraction(sums.get(e, 0), den) for e in range(top + 1)])
        images = []
        for _, alpha in unknowns:
            image = [Fraction(1)] + [Fraction(0)] * top
            for j, e in enumerate(alpha):
                for _ in range(e):
                    image = [
                        sum(image[a] * series[j][k - a] for a in range(k + 1))
                        for k in range(top + 1)
                    ]
            images.append(image)
        rows: List[list] = []
        rhs: List[Fraction] = []
        for i in range(1, n + 1):
            for d in range(2, top + 1):
                rows.append([
                    (image[d] if comp == i else 0)
                    - j_matrix.rows[i - 1][comp - 1] * (prod(map(pow, point, alpha)) if sum(alpha) == d else 0)
                    for (comp, alpha), image in zip(unknowns, images)
                ])
                rhs.append(-series[i - 1][d])
        yield rows, rhs


def random_polynomial(rng: random.Random, n: int, max_degree: int = 3, max_terms: int = 5) -> Polynomial:
    """A small random polynomial for algebraic-law checks."""
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        alpha = tuple(rng.randrange(max_degree + 1) for _ in range(n))
        terms[alpha] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    return Polynomial(n, terms)


def random_poly_map(
    rng: random.Random, n: int, max_degree: int = 2, max_terms: int = 3
) -> PolyMap:
    return PolyMap(
        tuple(
            random_polynomial(rng, n, max_degree=max_degree, max_terms=max_terms)
            for _ in range(n)
        )
    )


def schoolbook_product(p: Polynomial, q: Polynomial) -> dict:
    """Term map of p * q by the plain double loop over Fraction coefficients."""
    out = {}
    for a, ca in p.terms.items():
        for b, cb in q.terms.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {key: c for key, c in out.items() if c}


def schoolbook_substitute(p: Polynomial, values) -> dict:
    """Term map of p(values), expanding every term by repeated schoolbook_product."""
    n = values[0].n
    out = {}
    for alpha, coeff in p.terms.items():
        piece = Polynomial(n, {(0,) * n: coeff})
        for value, e in zip(values, alpha):
            for _ in range(e):
                piece = Polynomial(n, schoolbook_product(piece, value))
        for beta, c in piece.terms.items():
            out[beta] = out.get(beta, Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


def schoolbook_evaluate(p: Polynomial, point) -> Fraction:
    """p at a rational point, one Fraction product per term and factor."""
    total = Fraction(0)
    for alpha, coeff in p.terms.items():
        term = coeff
        for value, e in zip(point, alpha):
            for _ in range(e):
                term *= value
        total += term
    return total


# the textual syntax read by a hand tokenizer and a recursive-descent parser,
# the library's parser before it became one regular grammar; the reference
# for the differential test in test_poly.py

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


def reference_parse_polynomial(text: str, n: int) -> Polynomial:
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
            coeff = take_int("number")
            if peek() == "/":
                take()
                denominator = take_int("denominator")
                if denominator == 0:
                    raise ParseError("zero denominator")
                coeff = Fraction(coeff, denominator)
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
            coeff = 1
        return tuple(exponents), coeff

    terms: Dict[MultiIndex, Fraction] = {}
    sign = 1
    if peek() in ("+", "-"):
        sign = -1 if take() == "-" else 1
    while True:
        alpha, coeff = parse_term()
        # a sum that cancels to zero is dropped by the constructor
        terms[alpha] = terms.get(alpha, 0) + sign * coeff
        if peek() is None:
            break
        tok = take()
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            raise ParseError(f"expected '+' or '-', got {tok!r}")
        if peek() is None:
            raise ParseError("dangling sign at end of polynomial")
    return Polynomial(n, terms)
