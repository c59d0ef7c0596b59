"""Integer kernel for products and values of sparse polynomials.

Polynomials come as `Polynomial` stores them: term maps from exponent tuples
to nonzero integer numerators over one positive denominator, canonical (the
gcd of the denominator and all numerators is 1).  Fraction arithmetic takes
a gcd on every `+` and `*`; the routines here take one per result.

`sum_of_products` is the one product routine and makes no Fraction.  It
packs every exponent tuple into one int (Kronecker packing with a
per-operation bound, as in Monagan & Pearce, "Parallel sparse polynomial
multiplication using heaps", ISSAC 2009).  `evaluate` is its counterpart for
values at a point: one integer sum per term map, and one Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import lshift
from typing import Dict


def sum_of_products(n: int, products, den: int = 1) -> tuple:
    """(terms, d), canonical, with terms / d == sum(c * f1 * ... * fk) / den.

    Each product is (c, [f1, ..., fk]) with an integer c and each f a pair
    (terms, d) in n variables; k may be 0, and an empty term map makes its
    product vanish.  All products are put over one common denominator, and
    every exponent tuple is packed into one int with `width` bits per
    variable.  `width` holds the largest total degree any product reaches,
    so adding two packed keys never carries from one field into the next.
    The factors before the last are multiplied into a packed partial
    product, and the last one streams into the accumulator.  Terms that
    cancel are dropped, and one gcd brings the result to lowest terms.
    """
    products = [(c, fs) for c, fs in products if all(terms for terms, _ in fs)]
    if not products:
        # substituting into a zero polynomial is common and needs no set-up
        return {}, 1
    width = max(sum(_degree(terms) for terms, _ in fs) for _, fs in products).bit_length() or 1
    shifts = range(0, n * width, width)
    scales = [prod(d for _, d in fs) for _, fs in products]
    common = lcm(*scales)
    acc: Dict[int, int] = {}
    for (c, factors), scale in zip(products, scales):
        packed = [_packed(terms, shifts) for terms, _ in factors]
        # padded in front with the packed constant 1 to at least two factors
        partial, *middle, last = [[(0, 1)]] * (2 - len(packed)) + packed
        for right in middle:
            partial = _accumulate({}, partial, right, 1).items()
        _accumulate(acc, partial, last, c * (common // scale))
    common *= den
    g = gcd(common, *acc.values())
    mask = (1 << width) - 1
    return {
        tuple([key >> shift & mask for shift in shifts]): num // g
        for key, num in acc.items()
        if num
    }, common // g


def evaluate(terms: Dict, common: int, point, den: int, powers: Dict) -> Fraction:
    """Value of terms / common at the point (x_1/den, ..., x_n/den), on Python ints.

    terms holds integer numerators and point the integers x_j.  Every term
    is made homogeneous of the map's total degree D with a power of den, so
    the value is one integer sum over (common * den^D).  `powers` caches
    x_j^e under (j, e), and den^e under (n, e), for the exponents that
    occur, each taken by repeated squaring; term maps evaluated at the same
    point share it.
    """
    if not terms:
        return Fraction(0)
    top = _degree(terms)
    bases = [*point, den]
    total = 0
    for alpha, num in terms.items():
        if den != 1:
            alpha = (*alpha, top - sum(alpha))
        for key in enumerate(alpha):
            if key[1]:
                value = powers.get(key)
                if value is None:
                    value = powers[key] = bases[key[0]] ** key[1]
                num *= value
        total += num
    return Fraction(total, common * den**top)


def _accumulate(acc: Dict[int, int], left, right, scale: int) -> Dict[int, int]:
    """Add scale times the product of two packed [(key, int)] factors into acc."""
    get = acc.get
    for ka, ca in left:
        ca *= scale
        for kb, cb in right:
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb
    return acc


def _degree(terms: Dict) -> int:
    return max(map(sum, terms))


def _packed(terms: Dict, shifts: range) -> list:
    """[(packed exponent, numerator)] for each term."""
    return [(sum(map(lshift, alpha, shifts)), c) for alpha, c in terms.items()]
