import inspect
import random
import sys
import tracemalloc
from fractions import Fraction
from math import comb, gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from quasicirc import (
    DimensionMismatch,
    DoesNotFixOrigin,
    IndexOutOfRange,
    LinearMap,
    ParseError,
    Polynomial,
    PolyMap,
    WeightVector,
    format_polynomial,
    parse_poly_map,
    parse_polynomial,
)
import quasicirc.intpoly
from quasicirc.intpoly import DIGIT_BITS, line_powers, width
from quasicirc.poly import _series_at
from oracles import (
    random_poly_map,
    random_polynomial,
    reference_parse_polynomial,
    schoolbook_evaluate,
    schoolbook_product,
    schoolbook_substitute,
    substitution_homogeneity,
)


def var(n, j):
    return Polynomial.variable(n, j)


coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def polynomials(n, max_degree=3, max_terms=5):
    exponents = st.tuples(*([st.integers(0, max_degree)] * n))
    return st.dictionaries(exponents, coefficients, max_size=max_terms).map(
        lambda terms: Polynomial(n, terms)
    )


def poly_triples():
    return st.integers(1, 3).flatmap(
        lambda n: st.tuples(polynomials(n), polynomials(n), polynomials(n))
    )


# construction and arithmetic


def test_zero_coefficients_are_dropped():
    p = Polynomial(2, {(1, 0): 0, (0, 1): 1})
    assert p.terms == {(0, 1): Fraction(1)}


def test_enforces_exponent_shape():
    with pytest.raises(DimensionMismatch):
        Polynomial(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1})


def test_rejects_float_coefficients():
    with pytest.raises(TypeError):
        Polynomial(1, {(1,): 0.5})


def test_addition_cancels():
    z1 = var(2, 1)
    assert (z1 + (-z1)).is_zero()


def test_addition_merges_terms():
    z1, z2 = var(2, 1), var(2, 2)
    assert z1**2 + z2 == Polynomial(2, {(2, 0): 1, (0, 1): 1})
    assert Fraction(1, 2) * z1 + Fraction(1, 3) * z1 == Fraction(5, 6) * z1


def test_multiplication():
    z1, z2 = var(2, 1), var(2, 2)
    assert (z1 + z2) * (z1 - z2) == z1**2 - z2**2
    p = 3 * z1**2 + z2
    assert p * 1 == p
    assert (z1 + z2 + z1**2) ** 2 == Polynomial(
        2, {(2, 0): 1, (1, 1): 2, (0, 2): 1, (3, 0): 2, (2, 1): 2, (4, 0): 1}
    )


@settings(max_examples=60)
@given(st.integers(1, 3).flatmap(polynomials))
def test_power_is_repeated_multiplication(p):
    # powers are built by substitute's routine, which steps by one factor
    expected = Polynomial.constant(p.n, 1)
    for e in range(7):
        assert p**e == expected
        expected = expected * p


def test_power_edge_cases():
    z1 = var(2, 1)
    zero = Polynomial.zero(2)
    assert zero**0 == 1 and zero**3 == zero and (zero**3).is_zero()
    # a one-term power is one key product, whatever the exponent
    big = z1 ** (2**20)
    assert big.terms == {(2**20, 0): Fraction(1)}
    assert (Fraction(-1, 2) * z1) ** 3 == Polynomial(2, {(3, 0): Fraction(-1, 8)})
    # a bool is refused as any other non-integer, as `as_fraction` refuses it
    for exponent in (-1, 2.5, True, False):
        with pytest.raises(ValueError):
            z1**exponent


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        var(2, 1) + var(3, 1)
    with pytest.raises(DimensionMismatch):
        var(2, 1) * var(3, 1)


@settings(max_examples=60)
@given(poly_triples())
def test_ring_laws(triple):
    p, q, r = triple
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(st.integers(1, 3).flatmap(polynomials))
def test_negation_and_subtraction(p):
    assert p - p == Polynomial.zero(p.n)
    assert -(-p) == p


# representation invariants: polynomials stay canonical whatever built them

# ints, Fractions and unreduced "p/q" strings, as the constructor accepts them
raw_coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.tuples(st.integers(-12, 12), st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
)


def raw_terms(n):
    return st.dictionaries(st.tuples(*([st.integers(0, 2)] * n)), raw_coefficients, max_size=4)


def as_text(terms):
    """The terms in the textual syntax, unreduced, with every exponent written out."""
    pieces = []
    for alpha, coeff in terms.items():
        c = Fraction(coeff)
        numerator, denominator = (coeff.split("/") if isinstance(coeff, str)
                                  else (c.numerator, c.denominator))
        sign = "-" if c < 0 else "+"
        monomial = " ".join(f"z{j}^{e}" for j, e in enumerate(alpha, start=1))
        pieces.append(f"{sign} {abs(int(numerator))}/{denominator} {monomial}")
    return " ".join(pieces) or "0"


def built_polynomials(n):
    """Polynomials made by the constructor, the parser, products, sums and negation."""
    leaves = st.one_of(
        raw_terms(n).map(lambda terms: Polynomial(n, terms)),
        raw_terms(n).map(lambda terms: parse_polynomial(as_text(terms), n)),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda pq: pq[0] * pq[1]),
            st.tuples(inner, inner).map(lambda pq: pq[0] + pq[1]),
            st.tuples(inner, inner).map(lambda pq: pq[0] - pq[1]),
            inner.map(lambda p: -p),
        ),
        max_leaves=4,
    )


def rebuilt(p):
    """p made again by other routes, each equal to p."""
    half, z1 = Fraction(1, 2), var(p.n, 1)
    return [
        Polynomial(p.n, dict(p.terms)),
        Polynomial(p.n, {alpha: str(c) for alpha, c in p.terms.items()}),
        parse_polynomial(format_polynomial(p), p.n),
        -(-p),
        (p * 2) * half,
        (p + half) - half,
        (p * (half * z1)) * 0 + p,
        (p * (half * z1)).derivative(1) * 2 - z1 * p.derivative(1),
    ]


def assert_canonical(p):
    for c in p.terms.values():
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    assert p._width == width(p.n, p.total_degree())
    absent = (99,) * p.n
    assert absent not in p.terms
    assert type(p.coefficient(absent)) is Fraction and p.coefficient(absent) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(built_polynomials(n), built_polynomials(n))))
def test_equality_is_equality_of_term_maps(pair):
    p, q = pair
    assert (p == q) == (dict(p.terms) == dict(q.terms))
    if p == q:
        assert hash(p) == hash(q)
    for other in rebuilt(p):
        assert_canonical(other)
        assert other == p and hash(other) == hash(p)
        assert dict(other.terms) == dict(p.terms)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(built_polynomials))
def test_built_polynomials_are_canonical(p):
    assert_canonical(p)
    assert set(p.exponents()) == set(p.terms)


def test_cancellation_to_integers_and_zero():
    z1 = var(1, 1)
    half = Fraction(1, 2) * z1
    for p, expected in [
        (half * (2 * z1), z1**2),
        (half + half, z1),
        (half - Polynomial(1, {(1,): "2/4"}), Polynomial.zero(1)),
        (parse_polynomial("1/3 z1 + 2/3 z1 - 3/3", 1), z1 - 1),
        (-(Fraction(-3, 2) * z1) * Fraction(2, 3), z1),
    ]:
        assert p == expected and hash(p) == hash(expected)
        assert dict(p.terms) == dict(expected.terms)
        assert all(type(c) is Fraction for c in p.terms.values())


def test_constants_hash_as_their_value():
    z1 = var(2, 1)
    for value in (3, Fraction(-5, 2), 0):
        for p in (Polynomial.constant(2, value), z1 - z1 + value, Polynomial.constant(4, value)):
            assert p == value and hash(p) == hash(value)
            assert len({p, value}) == 1
    assert hash(Polynomial.zero(3)) == hash(0) == hash(Fraction(0))


def test_comparing_with_a_bool_or_float_is_false():
    # as_fraction rejects a bool as it does a float, so neither is a constant
    p = Polynomial.constant(2, 1)
    for other in (True, 1.0):
        assert not p == other and p != other
        assert p not in [other]
    assert Polynomial.zero(2) != False  # noqa: E712


# the integer product kernel against the schoolbook Fraction product

# exponents up to 2**20 make the kernel pack keys at every field width
wide_exponents = st.one_of(st.integers(0, 3), st.integers(0, 2**20))
mixed_coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=9)
# few small exponents and unit-like coefficients make terms cancel often
cancelling_coefficients = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
)


def sparse_polynomials(n, exponents, coeffs=mixed_coefficients, max_terms=6):
    return st.dictionaries(
        st.tuples(*([exponents] * n)), coeffs, max_size=max_terms
    ).map(lambda terms: Polynomial(n, terms))


def assert_exact_terms(p, expected):
    assert dict(p.terms) == expected
    assert all(type(c) is Fraction for c in p.terms.values())


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            sparse_polynomials(n, wide_exponents), sparse_polynomials(n, wide_exponents)
        )
    )
)
def test_product_matches_schoolbook(pair):
    p, q = pair
    assert_exact_terms(p * q, schoolbook_product(p, q))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            sparse_polynomials(n, st.integers(0, 2), cancelling_coefficients),
            sparse_polynomials(n, st.integers(0, 2), cancelling_coefficients),
        )
    )
)
def test_product_with_cancellation_matches_schoolbook(pair):
    p, q = pair
    assert_exact_terms(p * q, schoolbook_product(p, q))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            sparse_polynomials(n, wide_exponents, max_terms=1),
            sparse_polynomials(n, wide_exponents),
            mixed_coefficients,
        )
    )
)
def test_one_term_factor_matches_schoolbook(case):
    monomial, p, scalar = case
    assert_exact_terms(monomial * p, schoolbook_product(monomial, p))
    assert_exact_terms(p * monomial, schoolbook_product(p, monomial))
    constant = Polynomial.constant(p.n, scalar)
    assert_exact_terms(scalar * p, schoolbook_product(constant, p))


@pytest.mark.parametrize("k", range(1, 21))
def test_product_fills_every_packing_width(k):
    # total degrees 2**k and 2**k - 1 sum to 2**(k+1) - 1: every bit of the
    # widest field is set in z1^D and z2^D, next to the other variable's field
    z1, z2, z3 = var(3, 1), var(3, 2), var(3, 3)
    p = z1 ** (2**k) + Fraction(1, 2) * z2 ** (2**k) - Fraction(2, 3) * z3
    q = z1 ** (2**k - 1) - Fraction(1, 2) * z2 ** (2**k - 1) + 3 * z1 * z3
    assert_exact_terms(p * q, schoolbook_product(p, q))
    assert (p * q).coefficient((2 ** (k + 1) - 1, 0, 0)) == 1
    assert (p * q).coefficient((0, 2 ** (k + 1) - 1, 0)) == Fraction(-1, 4)


def assert_canonical_width(p):
    assert p._width == width(p.n, p.total_degree())


@pytest.mark.parametrize("n", [2, 16, 30])
def test_packed_keys_never_alias_or_carry(n):
    # 30 // n is the smallest field width: 15, 1 and 1 bits, so at n = 16 and
    # n = 30 the widths below step at every degree 2**k - 1
    z1, z2 = var(n, 1), var(n, 2)
    unit = (0,) * (n - 2)
    w = z2._width
    assert z2.coefficient((1 << w, 0, *unit)) == 0
    assert z2.coefficient((0, 1, *unit)) == 1
    for p, q in [(z1**3, z1), (z1**7 + z2, z1 + z2**8), (z1**8 - z2**7, z1**7 * z2 + 1)]:
        product = p * q
        assert_exact_terms(product, schoolbook_product(p, q))
        for r in (p, q, product):
            assert_canonical_width(r)
    # the top degree cancels: the width narrows back to z2's
    difference = (z1**8 + z2) - z1**8
    assert difference == z2 and hash(difference) == hash(z2)
    assert difference._width == w
    for e in (8, 7, 4):
        derivative = (z1**e).derivative(1)
        assert derivative == e * z1 ** (e - 1) and hash(derivative) == hash(e * z1 ** (e - 1))
        assert_canonical_width(derivative)
    # a one-term power in substitute raises its key as key * e
    assert (z1**2).substitute([z1**4 * z2, *([z2] * (n - 1))]) == z1**8 * z2**2
    assert_canonical_width((z1**2).substitute([z1**4 * z2, *([z2] * (n - 1))]))


def test_product_cancelling_to_zero_terms():
    z1, z2 = var(2, 1), var(2, 2)
    a, b = z1 ** (2**20), Fraction(1, 3) * z2**5
    assert (a + b) * (a - b) == a * a - b * b
    assert ((a + b) * (a - b)).coefficient((2**20, 5)) == 0


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            sparse_polynomials(n, st.integers(0, 3), max_terms=4),
            st.lists(
                sparse_polynomials(n, wide_exponents, max_terms=3), min_size=n, max_size=n
            ),
        )
    )
)
def test_substitute_matches_schoolbook(case):
    p, values = case
    assert_exact_terms(p.substitute(values), schoolbook_substitute(p, values))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(sparse_polynomials(n, st.integers(0, 3), max_terms=4), min_size=n, max_size=n),
            st.lists(sparse_polynomials(n, st.integers(0, 2), cancelling_coefficients, max_terms=3),
                     min_size=n, max_size=n),
        )
    )
)
def test_compose_shared_power_cache_matches_schoolbook(case):
    outer, inner = (PolyMap(components) for components in case)
    composed = outer.compose(inner)
    for p, result in zip(outer.components, composed.components):
        assert_exact_terms(result, schoolbook_substitute(p, inner.components))


# the triangular shift against schoolbook substitution


def lower_polynomials(n, j):
    """Rational polynomials in z_1, ..., z_{j-1} only, zero included; constants for j = 1."""
    return st.dictionaries(
        st.tuples(*([st.integers(0, 3)] * (j - 1))), mixed_coefficients, max_size=4
    ).map(lambda terms: Polynomial(n, {a + (0,) * (n - j + 1): c for a, c in terms.items()}))


def assert_shift_matches_schoolbook(components, j, g):
    """One shift, z_j -> z_j + g, against substituting z with z_j + g in slot j."""
    n = len(components)
    values = [g if k == j else Polynomial.zero(n) for k in range(1, n + 1)]
    slots = [var(n, k) + value for k, value in enumerate(values, start=1)]
    result = PolyMap(components)._shift(values)
    for p, shifted in zip(components, result):
        assert_exact_terms(shifted, schoolbook_substitute(p, slots))
        assert shifted == Polynomial(n, shifted.terms)
        assert_canonical(shifted)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.integers(1, n).flatmap(
            lambda j: st.tuples(
                st.lists(
                    sparse_polynomials(n, st.integers(0, 4), max_terms=5), min_size=n, max_size=n
                ),
                st.just(j),
                lower_polynomials(n, j),
            )
        )
    )
)
def test_shift_matches_schoolbook(case):
    assert_shift_matches_schoolbook(*case)


def test_shift_high_exponents_and_widths():
    # z4^52 z1 shifted by a cubic reaches degree 157, past the 7-bit floor
    # width of n = 4; z1^100 alone keeps a result at the floor width though
    # the degree bound of the shift (300) needs 9 bits
    n = 4
    components = [
        parse_polynomial("z4^52 z1 - 2/3 z4^50 z2 + z3", n),
        parse_polynomial("z1^100 + 1/7 z4", n),
        Polynomial.zero(n),
        var(n, 4),
    ]
    for g in ("1/2 z1^3 - 3 z1 z2", "0"):
        assert_shift_matches_schoolbook(components, 4, parse_polynomial(g, n))
    # n = 1: only a constant is free of z_1
    z1_60 = parse_polynomial("z1^60 - 1", 1)
    assert_shift_matches_schoolbook([z1_60], 1, Polynomial.constant(1, Fraction(-2, 3)))


def test_shift_applies_a_triangular_map_in_ascending_order():
    rng = random.Random(17)
    for n in range(1, 5):
        for _ in range(3):
            f = random_poly_map(rng, n, max_degree=3, max_terms=4)
            # values[j - 1] is free of z_j, ..., z_n: a constant for j = 1
            values = [Polynomial.constant(n, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))]
            for j in range(2, n + 1):
                terms = random_polynomial(rng, j - 1).terms.items()
                values.append(Polynomial(n, {a + (0,) * (n - j + 1): c for a, c in terms}))
            sigma = PolyMap([var(n, j) + v for j, v in enumerate(values, start=1)])
            assert f._shift(values) == f.compose(sigma)


# composition


def test_compose_identity_laws():
    rng = random.Random(11)
    for _ in range(10):
        f = random_poly_map(rng, rng.randrange(1, 4))
        identity = PolyMap.identity(f.n)
        assert f.compose(identity) == f
        assert identity.compose(f) == f


def test_compose_inverse_pair():
    f = PolyMap((var(2, 1), var(2, 2) - var(2, 1) ** 2))
    g = PolyMap((var(2, 1), var(2, 2) + var(2, 1) ** 2))
    assert f.compose(g) == PolyMap.identity(2)


def test_compose_associative():
    # degree <= 3 throughout, but few terms: (f.g).h already reaches degree 27
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randrange(1, 4)
        degree = 3 if n < 3 else 2
        f, g, h = (random_poly_map(rng, n, max_degree=degree) for _ in range(3))
        assert f.compose(g).compose(h) == f.compose(g.compose(h))
    f, g, h = (random_poly_map(rng, 3, max_degree=3, max_terms=2) for _ in range(3))
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_compose_high_exponent():
    f = parse_poly_map("z1^3000\nz2")
    assert f.compose(f) == parse_poly_map("z1^9000000\nz2")


def test_substitute_builds_powers_without_recursion():
    # 300 steps of (z1 + 1)^k under a stack budget far below 300 frames
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        result = parse_polynomial("z1^300", 1).substitute([var(1, 1) + 1])
    finally:
        sys.setrecursionlimit(limit)
    assert result.terms == {(k,): Fraction(comb(300, k)) for k in range(301)}


def test_substitute_caches_only_the_powers_it_reads():
    z1, z2 = var(2, 1), var(2, 2)
    cache = {}
    result = Polynomial.monomial(2, (3, 5)).substitute([z1 + z2, z1 - z2], _cache=cache)
    assert list(cache) == [(0, 3), (1, 5)]
    assert cache[0, 3] == (z1 + z2) * (z1 + z2) * (z1 + z2)
    assert result == cache[0, 3] * cache[1, 5]
    # a later substitution steps up from the highest power cached below
    Polynomial.monomial(2, (4, 7)).substitute([z1 + z2, z1 - z2], _cache=cache)
    assert list(cache) == [(0, 3), (1, 5), (0, 4), (1, 7)]
    assert cache[1, 7] == cache[1, 5] * (z1 - z2) * (z1 - z2)


def test_power_keeps_no_intermediate_powers():
    # every step kept would peak at the sum of all 300 powers, about 5 MB
    z1, z2 = var(2, 1), var(2, 2)
    tracemalloc.start()
    try:
        result = (z1 + z2) ** 300
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert result.terms == {(k, 300 - k): Fraction(comb(300, k)) for k in range(301)}


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        PolyMap.identity(2).compose(PolyMap.identity(3))


def test_compose_degree_bound():
    rng = random.Random(5)
    checked = 0
    while checked < 20:
        n = rng.randrange(1, 4)
        f, g = random_poly_map(rng, n), random_poly_map(rng, n)
        if f.total_degree() < 1 or g.total_degree() < 1:
            continue
        assert f.compose(g).total_degree() <= f.total_degree() * g.total_degree()
        checked += 1


# degrees


def test_total_degree():
    assert Polynomial.zero(2).total_degree() == 0
    assert (var(2, 1) ** 2 * var(2, 2) + var(2, 2)).total_degree() == 3


def test_map_total_degree():
    z1, z2 = var(2, 1), var(2, 2)
    first = z1 + z2 + z1**2
    second = z2 + z1**2 - first**2
    assert PolyMap((first, second)).total_degree() == 4


# m-grading


def test_is_m_homogeneous_examples():
    w = WeightVector((1, 2))
    z1, z2 = var(2, 1), var(2, 2)
    assert (z1**2 + z2).is_m_homogeneous(w, 2)
    assert not (z1 + z2).is_m_homogeneous(w, 1)
    assert not (z1 + z2).is_m_homogeneous(w, 2)
    assert Polynomial.zero(2).is_m_homogeneous(w, 7)


@settings(max_examples=60)
@given(polynomials(2), st.integers(0, 8))
def test_homogeneity_matches_substitution_oracle(p, k):
    w = WeightVector((1, 2))
    assert p.is_m_homogeneous(w, k) == substitution_homogeneity(p, w, k)


def test_is_i_resonant():
    w = WeightVector((1, 2))
    z1, z2 = var(2, 1), var(2, 2)
    assert (z2 + z1**2).is_i_resonant(w, 2)
    assert not (z1**3).is_i_resonant(w, 2)
    assert z1.is_i_resonant(w, 1)
    with pytest.raises(IndexOutOfRange):
        z1.is_i_resonant(w, 3)


# linear part and evaluation


def test_linear_part():
    assert PolyMap.identity(3).linear_part() == LinearMap.identity(3)
    f = PolyMap((2 * var(2, 1), 3 * var(2, 2) - var(2, 1) ** 2))
    assert f.linear_part() == LinearMap(((2, 0), (0, 3)))


def test_from_linear_matches_the_constructor_row_by_row():
    # rows over denominators 2, 3 and 6, and an all-zero row
    h, t, s = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    linear = LinearMap(((h, 0, 3, 0), (0, t, 0, -2 * t), (s, -h, 2 * t, 0), (0, 0, 0, 0)))
    f = PolyMap.from_linear(linear)
    unit = [tuple(int(i == j) for i in range(4)) for j in range(4)]
    for row, p in zip(linear.rows, f, strict=True):
        assert_canonical(p)
        assert p == Polynomial(4, dict(zip(unit, row)))
    assert [p._den for p in f] == [2, 3, 6, 1]
    assert f.components[3].is_zero() and f.linear_part() == linear


def test_linear_part_requires_fixed_origin():
    f = PolyMap((var(2, 1) + 1, var(2, 2)))
    assert f.components[0].constant_term() == 1
    with pytest.raises(DoesNotFixOrigin):
        f.linear_part()


def test_evaluate():
    z1, z2 = var(2, 1), var(2, 2)
    assert (z1**2 + z2).evaluate((2, 3)) == 7
    p = 5 + z1**3
    assert p.evaluate((0, 0)) == 5
    assert (z1 * z2)((Fraction(1, 2), Fraction(2, 3))) == Fraction(1, 3)
    with pytest.raises(TypeError):
        (z1 * z2).evaluate((0.5, 1))
    with pytest.raises(DimensionMismatch):
        z1.evaluate((1,))
    # powers only for the exponents that occur, each by repeated squaring
    p = parse_polynomial("z1^1000000 - 3", 1)
    assert p.evaluate((2,)) == 2**1000000 - 3
    assert p.evaluate((Fraction(1, 2),)) == Fraction(1 - 3 * 2**1000000, 2**1000000)
    # at +-1 even a billionth power is one digit
    p = parse_polynomial("z1^1000000000 + z1 - 3", 1)
    assert p.evaluate((1,)) == -1
    assert p.evaluate((-1,)) == -3


@st.composite
def polynomials_and_points(draw):
    """A polynomial with exponents up to 90 and a point with mixed denominators.

    At n = 4 and 5 an exponent of 90 can take the total degree past
    2^(DIGIT_BITS // n) - 1, so the keys are wider than one CPython digit.
    """
    n = draw(st.integers(1, 5))
    p = draw(polynomials(n, max_degree=draw(st.sampled_from([0, 3, 40, 90]))))
    coordinate = st.fractions(min_value=-7, max_value=7, max_denominator=draw(st.sampled_from([1, 5])))
    return p, draw(st.lists(coordinate, min_size=n, max_size=n))


def values_at(polys, point):
    """The polynomials' values at one rational point, one `evaluate` each."""
    return [q.evaluate(point) for q in polys]


WIDE = Polynomial(5, {(90, 0, 3, 0, 1): Fraction(-3, 2), (0, 2, 0, 0, 0): 5, (0, 0, 0, 0, 0): 1})


@given(polynomials_and_points())
@example((WIDE, [Fraction(1, 5), Fraction(-2), Fraction(3, 5), Fraction(7), Fraction(-1, 5)]))
def test_evaluate_matches_schoolbook(case):
    p, point = case
    assert p.evaluate(point) == schoolbook_evaluate(p, point)
    assert p.evaluate([str(v) for v in point]) == schoolbook_evaluate(p, point)
    # polynomials with unlike denominators and degrees, the zero polynomial among them
    polys = [p, p * Fraction(2, 3) + Fraction(1, 5), p * p * Fraction(-5, 7), Polynomial.zero(p.n)]
    for at in (point, [Fraction(v.numerator) for v in point]):
        assert values_at(polys, at) == [schoolbook_evaluate(q, at) for q in polys]


def test_the_wide_example_has_keys_wider_than_one_digit():
    assert WIDE._width > DIGIT_BITS // WIDE.n


def test_evaluate_decodes_no_exponent_tuple():
    z = [var(3, j) for j in (1, 2, 3)]
    p = (z[0] + 2 * z[1] - Fraction(1, 3) * z[2]) ** 4 + z[0] * z[2]
    assert p._exps is None
    value = p.evaluate((2, Fraction(-1, 2), 5))
    values = values_at([p, p * p], [Fraction(1), Fraction(2), Fraction(3)])
    assert p._exps is None
    # the oracle reads the terms, which decodes them
    assert value == schoolbook_evaluate(p, (2, Fraction(-1, 2), 5))
    assert values == [schoolbook_evaluate(q, (1, 2, 3)) for q in (p, p * p)]


class CountingTerms(dict):
    """A term map that counts how often its keys and its values are read."""

    def __init__(self, terms):
        super().__init__(terms)
        self.reads = 0

    def keys(self):
        self.reads += 1
        return super().keys()

    def values(self):
        self.reads += 1
        return super().values()


def test_evaluate_reads_the_keys_and_numerators_once():
    z1, z2 = var(2, 1), var(2, 2)
    p = (z1 - 3 * z2) ** 5 * Fraction(1, 7) + z1 * z2**2
    for point in ((2, -1), (Fraction(1, 3), Fraction(-5, 2))):
        expected = schoolbook_evaluate(p, point)
        p._num = CountingTerms(p._num)
        assert p.evaluate(point) == expected
        # the keys once for the columns and the numerators once
        assert p._num.reads == 2


def test_a_stream_of_points_takes_each_columns_exponents_once(monkeypatch):
    z1, z2 = var(2, 1), var(2, 2)
    polys = [(z1 - 3 * z2) ** 5 * Fraction(1, 7), z1 * z2**2 + Fraction(1, 2)]
    built = []

    def counting_set(column):
        built.append(column)
        return set(column)

    monkeypatch.setattr(quasicirc.intpoly, "set", counting_set, raising=False)
    # two variables and the power of den at a rational point
    assert polys[0].evaluate((Fraction(1, 3), Fraction(2, 3))) == schoolbook_evaluate(
        polys[0], (Fraction(1, 3), Fraction(2, 3))
    )
    assert len(built) == 3
    # two variables at an integer point
    assert polys[1].evaluate((2, -1)) == Fraction(5, 2)
    assert len(built) == 5
    # and two variables per polynomial along all six lines
    points = [[k, 1 - k] for k in range(6)]
    assert len(list(_series_at(polys, 3, points))) == 6
    assert len(built) == 9


def series_by_degree(p, point, top):
    """p's coefficients of t^0, ..., t^top at t p, summed from its decoded terms."""
    coefficients = [Fraction(0)] * (top + 1)
    for alpha, c in p.terms.items():
        if sum(alpha) <= top:
            coefficients[sum(alpha)] += c * prod(map(pow, point, alpha))
    return coefficients


@given(polynomials_and_points(), st.integers(0, 12))
@example((WIDE, [Fraction(1), Fraction(-2), Fraction(3), Fraction(7), Fraction(-1)]), 4)
def test_series_along_lines_matches_the_terms_by_degree(case, top):
    p, point = case
    polys = [p, p * Fraction(2, 3) + Fraction(1, 5), p * p * Fraction(-5, 7), Polynomial.zero(p.n)]
    lines = [[v.numerator for v in point], [v.denominator - 3 for v in point]]
    for (coefficients, d), line in zip(_series_at(polys, top, lines), lines, strict=True):
        expected = [series_by_degree(q, line, top) for q in polys]
        assert [[Fraction(c, d) for c in row] for row in coefficients] == expected


def schoolbook_series_product(a, b):
    """All coefficients of the product of two series, by the plain double loop."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@given(
    st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=6), min_size=1, max_size=4),
    st.data(),
)
def test_line_powers_match_schoolbook_products(lines, data):
    exponents = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * len(lines)), max_size=6))
    top = data.draw(st.integers(max(map(sum, exponents), default=0), 14))
    powers = line_powers(lines, exponents, top)
    assert set(powers) == set(exponents)
    for alpha in exponents:
        full = [1]
        for line, e in zip(lines, alpha):
            for _ in range(e):
                full = schoolbook_series_product(full, line)
        # every coefficient up to t^(top - |alpha|) that the product has
        assert powers[alpha] == full[: top - sum(alpha) + 1]


def test_line_powers_build_each_power_once(monkeypatch):
    products = []
    truncated = quasicirc.intpoly._truncated
    monkeypatch.setattr(quasicirc.intpoly, "_truncated",
                        lambda *args: products.append(args) or truncated(*args))
    # v_1^1, v_1^2, v_1^3 and v_2^1 once each, then one product for (2, 1) and (3, 1)
    line_powers([[1, 2, 3], [4, 5]], [(3, 0), (2, 1), (3, 1), (2, 0), (3, 1)], 8)
    assert len(products) == 6


def test_derivative():
    z1, z2 = var(2, 1), var(2, 2)
    p = z1**3 * z2 + 2 * z2
    assert p.derivative(1) == 3 * z1**2 * z2
    assert p.derivative(2) == z1**3 + 2
    assert Polynomial.constant(2, 4).derivative(1).is_zero()


# textual syntax


def test_parse_reference_example():
    p = parse_polynomial("3/2 z1^2 z3 - z2 + 1", 3)
    assert p == Polynomial(3, {(2, 0, 1): Fraction(3, 2), (0, 1, 0): -1, (0, 0, 0): 1})


def test_parse_is_whitespace_insensitive():
    assert parse_polynomial("3/2z1^2z3-z2+1", 3) == parse_polynomial(
        " 3/2  z1^2 z3 -   z2 + 1 ", 3
    )


def test_parse_accepts_stars_and_repeats():
    assert parse_polynomial("2*z1*z2", 2) == 2 * var(2, 1) * var(2, 2)
    assert parse_polynomial("z1 z1", 2) == var(2, 1) ** 2
    z1, z2 = var(2, 1), var(2, 2)
    for text, expected in [("2*", 2), ("z1*", z1), ("z 1 ^ 2", z1**2), ("2 * z1", 2 * z1),
                           ("z1z2", z1 * z2), ("z1^0", 1)]:
        assert parse_polynomial(text, 2) == expected


def test_parse_zero_and_signs():
    assert parse_polynomial("0", 2).is_zero()
    assert parse_polynomial("-z1 + z1", 2).is_zero()
    assert parse_polynomial("-1/2 z2", 2) == Fraction(-1, 2) * var(2, 2)


@pytest.mark.parametrize(
    "bad",
    ["", "z0", "z3", "1 +", "x1", "1//2", "z1^", "1/0", "3 4", "z1 ^2 ^3",
     "2**z1", "z1 2", "+", "- -z1", "2/", "/3", "z1^2^3", "z1 + -z2"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_polynomial(bad, 2)


INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_MAX_STR_DIGITS, reason="no limit on int-string conversion")
@pytest.mark.parametrize("template", ["{} z1", "1/{} z1", "z{}", "z1^{}"])
def test_parse_rejects_overlong_numerals(template):
    # int() raises a bare ValueError past the limit; the parser names it
    with pytest.raises(ParseError):
        parse_polynomial(template.format("1" * (INT_MAX_STR_DIGITS + 1)), 2)


# tokens of the syntax, whitespace that ends a numeral, a Unicode digit and a
# stray character; whole tokens are drawn often enough to build accepted inputs
PARSER_TOKENS = ["z", "z1", "z2", "z3", "0", "1", "2", "12", "٣", "^", "/", "+", "-", "*",
                 " ", "\t", " ", "x"]


@settings(max_examples=2000, deadline=None)
@given(st.integers(1, 3),
       st.lists(st.sampled_from(PARSER_TOKENS), max_size=12).map("".join)
       | st.text(st.sampled_from("z0123456789^/+-* \t ٣x"), max_size=12))
def test_parse_matches_reference_parser(n, text):
    try:
        expected = reference_parse_polynomial(text, n)
    except ParseError:
        with pytest.raises(ParseError):
            parse_polynomial(text, n)
    else:
        assert parse_polynomial(text, n) == expected


@settings(max_examples=80)
@given(st.integers(1, 3).flatmap(polynomials))
def test_format_round_trip(p):
    assert parse_polynomial(format_polynomial(p), p.n) == p


def test_format_is_canonical():
    p = parse_polynomial("z2 + 1 + 3/2 z3 z1^2", 3)
    assert format_polynomial(p) == "3/2 z1^2 z3 + z2 + 1"
    assert format_polynomial(Polynomial.zero(2)) == "0"
    assert format_polynomial(-var(1, 1)) == "-z1"


def test_parse_poly_map():
    f = parse_poly_map("2 z1\n3 z2 - z1^2")
    assert f.n == 2
    assert f.components[0] == 2 * var(2, 1)
    with pytest.raises(ParseError):
        parse_poly_map("")
    with pytest.raises(ParseError):
        parse_poly_map("z1\nz3")  # z3 exceeds the two-line dimension
