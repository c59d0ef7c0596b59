"""Integer kernel for products of sparse exact-rational term maps.

A term map sends exponent tuples to nonzero Fractions, as in
`Polynomial._terms`.  Fraction arithmetic takes a gcd on every `+` and `*`,
so the products here run on Python ints instead: all factors are put over
one common denominator, and every exponent tuple is packed into one int
(Kronecker packing with a per-operation bound, as in Monagan & Pearce,
"Parallel sparse polynomial multiplication using heaps", ISSAC 2009).  Each
output coefficient becomes a Fraction once, at the end.

`sum_of_products` is the one product routine, and so the one place where
products turn Fractions into ints and back.  `evaluate` is its counterpart
for values at a point: one integer sum per term map, and one Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import lshift
from typing import Dict


def sum_of_products(n: int, products) -> Dict:
    """Term map of sum(c * f1 * ... * fk) over (c, [f1, ..., fk]), on Python ints.

    c is a rational scalar and each f is a term map in n variables; k may be
    0, and an empty term map makes its product vanish.  All products are put
    over one common denominator, each factor's coefficients become integer
    numerators, and every exponent tuple is packed into one int with `width`
    bits per variable.  `width` holds the largest total degree any product
    reaches, so adding two packed keys never carries from one field into the
    next and the sum of two keys is the key of the product monomial.  The
    factors before the last are multiplied into a packed partial product,
    and the last one streams into the accumulator.  Each output coefficient
    becomes a Fraction once, at the end; terms that cancel to zero are
    dropped.
    """
    products = [(c, factors) for c, factors in products if all(factors)]
    if not products:
        # substituting into a zero polynomial is common and needs no set-up
        return {}
    width = max(sum(map(_degree, fs)) for _, fs in products).bit_length() or 1
    shifts = range(0, n * width, width)
    dens = [list(map(_denominator, fs)) for _, fs in products]
    scales = [c.denominator * prod(ds) for (c, _), ds in zip(products, dens)]
    den = lcm(*scales)
    acc: Dict[int, int] = {}
    for (c, factors), ds, scale in zip(products, dens, scales):
        packed = [_packed(f, d, shifts) for f, d in zip(factors, ds)]
        # padded in front with the packed constant 1 to at least two factors
        partial, *middle, last = [[(0, 1)]] * (2 - len(packed)) + packed
        for right in middle:
            partial = _accumulate({}, partial, right, 1).items()
        _accumulate(acc, partial, last, c.numerator * (den // scale))
    mask = (1 << width) - 1
    return {
        tuple([key >> shift & mask for shift in shifts]): Fraction(num, den)
        for key, num in acc.items()
        if num
    }


def evaluate(terms: Dict, point, den: int, powers: Dict) -> Fraction:
    """Value of a term map at the point (x_1/den, ..., x_n/den), on Python ints.

    point holds the integers x_j.  The coefficients are put over one common
    denominator and every term is made homogeneous of the map's total degree
    D with a power of den, so the value is one integer sum over
    (common denominator * den^D).  `powers` caches x_j^e under (j, e), and
    den^e under (n, e), for the exponents that occur, each taken by
    repeated squaring; term maps evaluated at the same point share it.
    """
    if not terms:
        return Fraction(0)
    top = _degree(terms)
    common = _denominator(terms)
    bases = [*point, den]
    total = 0
    for alpha, c in terms.items():
        num = c.numerator * (common // c.denominator)
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


def _denominator(terms: Dict) -> int:
    return lcm(*(c.denominator for c in terms.values()))


def _packed(terms: Dict, den: int, shifts: range) -> list:
    """[(packed exponent, integer numerator over den)] for each term."""
    return [
        (sum(map(lshift, alpha, shifts)), c.numerator * (den // c.denominator))
        for alpha, c in terms.items()
    ]
