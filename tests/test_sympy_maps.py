"""PolyMap.compose, conjugate and invert_sigma against sympy's expand and subs.

sympy multiplies and substitutes with its own arithmetic, so it is an oracle
independent of the integer product kernel.  Coefficients come from a pool
with unlike denominators (1/3 and -3/2), so that products put terms over
denominators that later cancel.  sympy is only a test-time reference; the
library itself stays stdlib-only.
"""

import random
from fractions import Fraction

import pytest

from quasicirc import (
    PolyMap,
    WeightVector,
    conjugate,
    invert_sigma,
    random_block_diagonal_map,
    random_linear_map,
    random_sigma,
)
from oracles import WEIGHT_SET, random_poly_map

sympy = pytest.importorskip("sympy")

#: the weight vectors of the benchmark's conjugacy round trip
SOLVE_WEIGHTS = ((1, 2, 4), (1, 2, 6), (1, 3, 6), (1, 2, 3, 4), (1, 2, 3, 5))
#: n = 5, a zero g_j inside a block, and shifts across blocks of two variables
SHIFT_WEIGHTS = ((1, 1, 1, 1, 2), (1, 2, 2, 3))
POOL = (Fraction(1, 3), Fraction(-3, 2), Fraction(2), Fraction(-1))


def symbols(n):
    return sympy.symbols(f"z1:{n + 1}")


def to_expr(p, zs):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(z**e for z, e in zip(zs, alpha)))
        for alpha, c in p.terms.items()
    ))


def to_terms(expr, zs):
    """The term map of an expanded sympy expression, as exponent tuple -> Fraction."""
    return {
        alpha: Fraction(int(c.p), int(c.q))
        for alpha, c in sympy.Poly(sympy.expand(expr), *zs).terms()
        if c
    }


def exprs(f, zs):
    return [to_expr(p, zs) for p in f.components]


def substituted(f, inner, zs):
    """f(inner) by sympy's simultaneous subs; inner is one expression per variable."""
    return [e.subs(list(zip(zs, inner)), simultaneous=True) for e in exprs(f, zs)]


def assert_same_map(result, expressions, zs):
    assert [dict(p.terms) for p in result.components] == [to_terms(e, zs) for e in expressions]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compose_matches_sympy(n):
    rng = random.Random(n)
    zs = symbols(n)
    for _ in range(4):
        f = random_poly_map(rng, n, max_degree=3, max_terms=4)
        g = random_poly_map(rng, n, max_degree=2, max_terms=3)
        assert_same_map(f.compose(g), substituted(f, exprs(g, zs), zs), zs)


@pytest.mark.parametrize("m", WEIGHT_SET + SOLVE_WEIGHTS)
def test_invert_sigma_matches_sympy(m):
    w = WeightVector(m)
    zs = symbols(w.n)
    for seed in range(2):
        sigma = random_sigma(w, seed, POOL)
        tau = invert_sigma(sigma)
        for outer, inner in ((sigma, tau), (tau, sigma)):
            composed = substituted(outer.as_poly_map(), exprs(inner.as_poly_map(), zs), zs)
            assert [sympy.expand(e) for e in composed] == list(zs)


@pytest.mark.parametrize("m", WEIGHT_SET + SOLVE_WEIGHTS + SHIFT_WEIGHTS)
@pytest.mark.parametrize("mixing", [False, True], ids=["block", "mixing"])
def test_conjugate_matches_sympy(m, mixing):
    """conjugate(sigma, L) equals tau(L(sigma(z))), all substituted by sympy.

    tau = invert_sigma(sigma) is checked against sympy on its own above.
    """
    w = WeightVector(m)
    zs = symbols(w.n)
    sigma = random_sigma(w, 7, POOL)
    linear = random_linear_map(w.n, 8, POOL) if mixing else random_block_diagonal_map(w, 8, POOL)
    inner = substituted(PolyMap.from_linear(linear), exprs(sigma.as_poly_map(), zs), zs)
    expected = substituted(invert_sigma(sigma).as_poly_map(), inner, zs)
    assert_same_map(conjugate(sigma, linear), expected, zs)
