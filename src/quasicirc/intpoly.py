"""Integer kernel for products of sparse exact-rational term maps.

A term map sends exponent tuples to nonzero Fractions, as in
`Polynomial._terms`.  Fraction arithmetic takes a gcd on every `+` and `*`,
so the products here run on Python ints instead: all factors are put over
one common denominator, and every exponent tuple is packed into one int
(Kronecker packing with a per-operation bound, as in Monagan & Pearce,
"Parallel sparse polynomial multiplication using heaps", ISSAC 2009).  Each
output coefficient becomes a Fraction once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, lshift
from typing import Dict


def product(n: int, a: Dict, b: Dict) -> Dict:
    """Term map of a * b."""
    if len(a) < 2 or len(b) < 2:
        return _monomial_product(a, b)
    return sum_of_products(n, ((1, a, b),))


def _monomial_product(a: Dict, b: Dict) -> Dict:
    """Term map of a * b when one factor has at most one term.

    The products land on distinct exponents, so nothing merges or cancels
    and each coefficient is one Fraction product.
    """
    if not a or not b:
        return {}
    if len(a) != 1:
        a, b = b, a
    ((alpha, c),) = a.items()
    if not any(alpha):
        return {beta: c * cb for beta, cb in b.items()}
    return {tuple(map(add, alpha, beta)): c * cb for beta, cb in b.items()}


def sum_of_products(n: int, products) -> Dict:
    """Term map of sum(c * a * b) over (c, a, b), computed on Python ints.

    c is a rational scalar; a and b are nonempty term maps.  All products are
    put over one common denominator, each factor's coefficients become
    integer numerators, and every exponent tuple is packed into one int with
    `width` bits per variable.  `width` holds the largest total degree any
    product reaches, so adding two packed keys never carries from one field
    into the next and the sum of two keys is the key of the product
    monomial.  Each output coefficient becomes a Fraction once, at the end;
    terms that cancel to zero are dropped.
    """
    width = max(_degree(a) + _degree(b) for _, a, b in products).bit_length() or 1
    shifts = range(0, n * width, width)
    dens = [(_denominator(a), _denominator(b)) for _, a, b in products]
    den = lcm(*(c.denominator * da * db for (c, _, _), (da, db) in zip(products, dens)))
    acc: Dict[int, int] = {}
    get = acc.get
    for (c, a, b), (da, db) in zip(products, dens):
        factor = c.numerator * (den // (c.denominator * da * db))
        right = _packed(b, db, shifts)
        for ka, ca in _packed(a, da, shifts):
            ca *= factor
            for kb, cb in right:
                key = ka + kb
                acc[key] = get(key, 0) + ca * cb
    mask = (1 << width) - 1
    return {
        tuple([key >> shift & mask for shift in shifts]): Fraction(num, den)
        for key, num in acc.items()
        if num
    }


def _degree(terms: Dict) -> int:
    return max(map(sum, terms))


def _denominator(terms: Dict) -> int:
    return lcm(*(c.denominator for c in terms.values()))


def _packed(terms: Dict, den: int, shifts: range) -> list:
    """[(packed exponent, integer numerator over den)] for each term."""
    return [
        (sum(map(lshift, alpha, shifts)), c.numerator * (den // c.denominator))
        for alpha, c in terms.items()
    ]
