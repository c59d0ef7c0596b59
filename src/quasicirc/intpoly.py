"""Integer kernel for products and values of sparse polynomials.

Polynomials come as `Polynomial` stores them: term maps from packed
exponents to nonzero integer numerators over one positive denominator,
canonical (the gcd of the denominator and all numerators is 1).  Fraction
arithmetic takes a gcd on every `+` and `*`; the routines here take one per
result.

An exponent tuple (a_1, ..., a_n) is packed into the int sum of
a_j << (j - 1) w (Kronecker packing, as in Monagan & Pearce, "Parallel
sparse polynomial multiplication using heaps", ISSAC 2009), and kept packed
in storage, as FLINT's `fmpq_mpoly` keeps it.  The field width w is
`width(n, D)`, a function of the dimension n and the total degree D alone:
at least DIGIT_BITS // n, so that keys stay one CPython digit while the
degree allows, and at least (D + 1).bit_length(), so that no term's degree
reaches 2^w - 1.  So adding the keys of a product of degree at most D never
carries from one field into the next, and a key mod 2^w - 1 is the sum of
its fields, its term's total degree.  Since the width is canonical, equal
polynomials have equal keys, and equality and hashing compare ints.  A
result that lost its top degree to cancellation is narrowed back by
`reduced`, which brings every result to canonical form.

`sum_of_products` is the one general product routine and makes no
Fraction; `shift`, which applies a triangular map z + g by one Taylor shift
per variable, feeds the same pair loop `_accumulate`; through
`PolyMap._shift` it serves `compose_sigma`, both conjugation routes and,
lazily, `invert_sigma`.  `evaluate` is their counterpart for values at a
point: one integer sum per term map, and one Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Dict

#: bits in one CPython int digit; keys of at most this many bits are one digit
DIGIT_BITS = 30


def width(n: int, degree: int) -> int:
    """The canonical field width of a polynomial in n variables of this degree."""
    floor, bits = DIGIT_BITS // n, (degree + 1).bit_length()
    return bits if bits > floor else floor


def degree(num: Dict[int, int], w: int) -> int:
    """Total degree of packed terms at width w, from each key mod 2^w - 1; 0 for no terms."""
    return max(map(((1 << w) - 1).__rmod__, num), default=0)


def unpack(num: Dict[int, int], n: int, w: int) -> Dict[tuple, int]:
    """The terms keyed by exponent tuples, in the same order."""
    mask, shifts = (1 << w) - 1, range(0, n * w, w)
    return {tuple([key >> shift & mask for shift in shifts]): c for key, c in num.items()}


def repack(num: Dict[int, int], n: int, old: int, new: int) -> Dict[int, int]:
    """The terms with their keys moved from width old to width new."""
    if old == new:
        return num
    mask, moves = (1 << old) - 1, [(j * old, j * new) for j in range(n)]
    return {sum([(key >> a & mask) << b for a, b in moves]): c for key, c in num.items()}


def reduced(n: int, num: Dict[int, int], den: int, w: int) -> tuple:
    """(terms, d, w), canonical, for terms over den packed at a width w.

    Zero terms are dropped, the gcd is divided out, and the width is
    narrowed if the top degree cancelled.
    """
    g = gcd(den, *num.values())
    if g != 1 or 0 in num.values():
        num = {key: c // g for key, c in num.items() if c}
    if w > DIGIT_BITS // n:
        new = width(n, degree(num, w))
        num, w = repack(num, n, w, new), new
    return num, den // g, w


def over_lcm(terms: Dict) -> tuple:
    """Fractions as (integer numerators, lcm of denominators).

    That is canonical without a gcd when no value is zero: a prime's top
    power in the lcm divides some denominator, and so not its numerator.
    """
    den = lcm(*(c.denominator for c in terms.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in terms.items()}, den


def sum_of_products(n: int, products, den: int = 1) -> tuple:
    """(terms, d, w), canonical, with terms / d == sum(c * f1 * ... * fk) / den.

    Each product is (c, [f1, ..., fk]) with an integer c and each f a
    `Polynomial` in n variables, read as its packed terms `_num` over `_den`
    at width `_width`; k may be 0, and a zero factor makes its product
    vanish.  All products are put over one common denominator and computed
    at the width of the largest total degree any product reaches, so adding
    two keys never carries from one field into the next; a factor stored
    narrower is repacked to it.  The factors before the last are multiplied
    into a packed partial product, and the last one streams into the
    accumulator; the sum is then `reduced`.
    """
    products = [(c, fs) for c, fs in products if all(f._num for f in fs)]
    if not products:
        # substituting into a zero polynomial is common and needs no set-up
        return {}, 1, width(n, 0)
    w = width(n, max(sum(degree(f._num, f._width) for f in fs) for _, fs in products))
    scales = [prod(f._den for f in fs) for _, fs in products]
    common = lcm(*scales)
    acc: Dict[int, int] = {}
    for (c, factors), scale in zip(products, scales):
        packed = [
            (f._num if f._width == w else repack(f._num, n, f._width, w)).items() for f in factors
        ]
        # padded in front with the packed constant 1 to at least two factors
        partial, *middle, last = [[(0, 1)]] * (2 - len(packed)) + packed
        for right in middle:
            partial = _accumulate({}, partial, right, 1).items()
        _accumulate(acc, partial, last, c * (common // scale))
    return reduced(n, acc, common * den, w)


def shift(n: int, parts, values=None, bound: int = 0) -> list:
    """(terms, d, w), canonical, of each part P as P(z + values).

    values[j - 1] may involve z_1, ..., z_{j-1} only, as the nonlinear parts
    of a triangular map do.  Then P(z + values) is P with z_j replaced by
    z_j + values[j - 1] for j = 1, ..., n in ascending order, each a Taylor
    shift in one variable (von zur Gathen & Gerhard, ISSAC 1997): no shift
    touches the variables of an earlier value, as a descending order would.
    A shift groups each part's terms by their exponent e of z_j, with z_j^e
    divided out, steps the powers (z_j + value)^e up once for all parts, and
    sums group times power in one accumulation per part; a part without z_j
    passes unchanged.  A term z^a goes to degree at most
    sum_j a_j max(1, deg values_j), so every shift runs at the width of
    deg P times the largest such factor, and only the results are `reduced`.

    With values None the shift is lazy: step j takes values[j - 1] as part
    j shifted so far, so if part j reads z_1, ..., z_{j-1} only, the results
    h solve h = parts(z + h).  `bound` caps every term's degree, for the width.
    """
    if values is not None:
        stretch = max(max(1, degree(v._num, v._width)) for v in values)
        bound = stretch * max(degree(p._num, p._width) for p in parts)
    w = width(n, bound)
    out = [(repack(p._num, n, p._width, w), p._den) for p in parts]
    steps = out if values is None else [(repack(v._num, n, v._width, w), v._den) for v in values]
    mask = (1 << w) - 1
    for j, at in enumerate(range(0, n * w, w)):
        (value, d), start = steps[j], j + 1 if values is None else 0
        if not value:
            continue
        step = {**value, 1 << at: d}.items()
        powers, shifted = [{0: 1}.items(), step], []
        for num, den in out[start:]:
            groups: Dict[int, list] = {}
            for key, c in num.items():
                e = key >> at & mask
                groups.setdefault(e, []).append((key - (e << at), c))
            if not (top := max(groups, default=0)):  # no z_j in this part
                shifted.append((num, den))
                continue
            while len(powers) <= top:
                powers.append(_accumulate({}, powers[-1], step, 1).items())
            acc = {key: c * d**top for key, c in groups.pop(0, ())}
            for e, group in groups.items():
                _accumulate(acc, group, powers[e], d ** (top - e))
            shifted.append((acc, den * d**top))
        out[start:] = shifted
    return [reduced(n, num, den, w) for num, den in out]


def evaluate(terms: Dict, common: int, point, den: int, powers: Dict) -> Fraction:
    """Value of terms / common at the point (x_1/den, ..., x_n/den), on Python ints.

    terms holds integer numerators keyed by exponent tuples, decoded once
    per polynomial and not per point, and point the integers x_j.  Every
    term is made homogeneous of the map's total degree D with a power of
    den, so the value is one integer sum over (common * den^D).  The terms
    are multiplied column by column, one variable at a time.  `powers`
    caches x_j^e under (j, e), and den^e under (n, e), for the exponents
    that occur, each taken by repeated squaring; term maps evaluated at the
    same point share it.
    """
    if not terms:
        return Fraction(0)
    degrees = [*map(sum, terms)]
    top = max(degrees)
    columns = [*zip(*terms)] + ([[top - d for d in degrees]] if den != 1 else [])
    bases, values = [*point, den], terms.values()
    for j, column in enumerate(columns):
        table = {}
        for e in set(column):
            if (j, e) not in powers:
                powers[j, e] = bases[j] ** e
            table[e] = powers[j, e]
        values = map(mul, values, map(table.__getitem__, column))
    return Fraction(sum(values), common * den**top)


def _accumulate(acc: Dict[int, int], left, right, scale: int) -> Dict[int, int]:
    """Add scale times the product of two packed [(key, int)] factors into acc."""
    get = acc.get
    for ka, ca in left:
        ca *= scale
        for kb, cb in right:
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb
    return acc
