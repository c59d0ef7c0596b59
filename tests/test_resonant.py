from fractions import Fraction

import pytest

from quasicirc import (
    DimensionMismatch,
    EmptyPool,
    IndexOutOfRange,
    NotNonlinear,
    NotResonant,
    ParseError,
    Polynomial,
    PolyMap,
    TriangularResonantMap,
    WeightMismatch,
    WeightVector,
    compose_sigma,
    identity_sigma,
    invert_sigma,
    make_sigma,
    nonlinear_resonant_monomials,
    random_sigma,
    resonance_profile,
)
from oracles import WEIGHT_SET, generic_compose_sigma, series_inverse


def var(n, j):
    return Polynomial.variable(n, j)


# construction


def test_make_sigma_basic():
    w = WeightVector((1, 2))
    s = make_sigma(w, {(2, (2, 0)): 1})
    assert s.as_poly_map() == PolyMap((var(2, 1), var(2, 2) + var(2, 1) ** 2))


def test_make_sigma_empty_is_identity():
    w = WeightVector((1, 2))
    s = make_sigma(w, {})
    assert s.is_identity()
    assert s.as_poly_map() == PolyMap.identity(2)
    assert identity_sigma(w) == s


def test_make_sigma_rejects_nonresonant():
    w = WeightVector((1, 2))
    with pytest.raises(NotResonant):
        make_sigma(w, {(1, (0, 1)): 1})


def test_make_sigma_rejects_linear():
    w = WeightVector((1, 2))
    with pytest.raises(NotNonlinear):
        make_sigma(w, {(2, (0, 1)): 1})
    with pytest.raises(NotNonlinear):
        # a zero term is dropped before TriangularResonantMap sees it
        make_sigma(w, {(2, (0, 1)): 0})


def test_make_sigma_rejects_bad_index_and_shape():
    w = WeightVector((1, 2))
    with pytest.raises(IndexOutOfRange):
        make_sigma(w, {(3, (2, 0)): 1})
    with pytest.raises(DimensionMismatch):
        make_sigma(w, {(2, (2, 0, 0)): 1})


def test_make_sigma_drops_zero_coefficients():
    w = WeightVector((1, 2))
    assert make_sigma(w, {(2, (2, 0)): 0}).is_identity()


def test_validation_has_no_unchecked_path():
    w = WeightVector((1, 2))
    with pytest.raises(NotResonant):
        TriangularResonantMap(w, (Polynomial.zero(2), var(2, 1) ** 3))


def test_linear_part_is_identity():
    w = WeightVector((1, 2, 4))
    s = make_sigma(w, {(2, (2, 0, 0)): 2, (3, (0, 2, 0)): Fraction(1, 2)})
    sigma_map = s.as_poly_map()
    assert sigma_map.fixes_origin()
    assert sigma_map.linear_part().rows == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )


# admissible monomials


def test_nonlinear_resonant_monomials_examples():
    assert nonlinear_resonant_monomials(WeightVector((1, 2)), 2) == ((2, 0),)
    w11 = WeightVector((1, 1))
    assert nonlinear_resonant_monomials(w11, 1) == ()
    assert nonlinear_resonant_monomials(w11, 2) == ()
    assert nonlinear_resonant_monomials(WeightVector((1, 2, 4)), 3) == (
        (0, 2, 0),
        (2, 1, 0),
        (4, 0, 0),
    )


def test_support_uses_only_smaller_weights():
    # forced by resonance plus nonlinearity, for every admissible monomial
    for m in WEIGHT_SET:
        w = WeightVector(m)
        for i in range(1, w.n + 1):
            for alpha in nonlinear_resonant_monomials(w, i):
                for j, e in enumerate(alpha):
                    if e:
                        assert w.m[j] < w.m[i - 1]


# random sampling


def test_random_sigma_deterministic():
    w = WeightVector((1, 2, 4))
    assert random_sigma(w, 42) == random_sigma(w, 42)
    assert random_sigma(w, 42, {1, 2}) == random_sigma(w, 42, (2, 1, 2))


def test_random_sigma_identity_when_no_monomials():
    assert random_sigma(WeightVector((1, 1, 1)), 7).is_identity()
    assert random_sigma(WeightVector((2, 3)), 7).is_identity()


def test_random_sigma_singleton_pool():
    w = WeightVector((1, 2))
    s = random_sigma(w, 123, pool=(1,))
    assert s == make_sigma(w, {(2, (2, 0)): 1})


def test_random_sigma_fills_every_monomial():
    w = WeightVector((1, 2, 4))
    s = random_sigma(w, 5, pool=(Fraction(1, 2),))
    for i in range(1, 4):
        assert set(s.g[i - 1].terms) == set(nonlinear_resonant_monomials(w, i))


def test_random_sigma_empty_pool():
    with pytest.raises(EmptyPool):
        random_sigma(WeightVector((1, 2)), 1, pool=())


# inversion


def test_invert_quadratic():
    w = WeightVector((1, 2))
    s = make_sigma(w, {(2, (2, 0)): 1})
    t = invert_sigma(s)
    assert t.as_poly_map() == PolyMap((var(2, 1), var(2, 2) - var(2, 1) ** 2))


def test_invert_identity():
    w = WeightVector((1, 2, 3))
    assert invert_sigma(identity_sigma(w)).is_identity()


def test_invert_chained_example():
    w = WeightVector((1, 2, 4))
    s = make_sigma(w, {(2, (2, 0, 0)): 1, (3, (0, 2, 0)): 1})
    t = invert_sigma(s)
    z1, z2, z3 = (var(3, j) for j in (1, 2, 3))
    assert t.as_poly_map() == PolyMap((z1, z2 - z1**2, z3 - (z2 - z1**2) ** 2))


def test_invert_round_trip_and_involution():
    for index, m in enumerate(WEIGHT_SET):
        w = WeightVector(m)
        for k in range(10):
            s = random_sigma(w, 1000 * index + k)
            t = invert_sigma(s)
            assert compose_sigma(s, t).is_identity()
            assert compose_sigma(t, s).is_identity()
            assert invert_sigma(t) == s


def test_invert_output_is_validated_resonant():
    w = WeightVector((1, 2, 6))
    s = random_sigma(w, 9)
    t = invert_sigma(s)
    # constructor revalidates, but assert the structure explicitly
    for i in range(1, 4):
        allowed = set(nonlinear_resonant_monomials(w, i))
        assert set(t.g[i - 1].terms) <= allowed


def test_invert_matches_series_oracle():
    for m in ((1, 2), (1, 1, 2), (1, 2, 3), (1, 2, 4)):
        w = WeightVector(m)
        mu = resonance_profile(w).order
        for seed in range(5):
            s = random_sigma(w, 17 + seed)
            assert invert_sigma(s).as_poly_map() == series_inverse(s, mu * mu)


# composition and group structure


def test_compose_with_inverse_is_identity():
    w = WeightVector((1, 2, 4))
    s = random_sigma(w, 3)
    assert compose_sigma(s, invert_sigma(s)).is_identity()
    assert compose_sigma(s, identity_sigma(w)) == s
    assert compose_sigma(identity_sigma(w), s) == s


# vectors whose triangular maps form a non-abelian group
NONCOMMUTING = {(1, 2, 3), (1, 2, 4), (1, 2, 6), (1, 2, 3, 4)}


@pytest.mark.parametrize("m", WEIGHT_SET)
def test_compose_matches_generic_composition(m):
    w = WeightVector(m)
    identity = identity_sigma(w)
    for seed in range(5):
        a = random_sigma(w, 2 * seed + 300)
        b = random_sigma(w, 2 * seed + 301)
        ab, ba = compose_sigma(a, b), compose_sigma(b, a)
        assert ab == generic_compose_sigma(a, b)
        assert ba == generic_compose_sigma(b, a)
        assert (ab != ba) == (m in NONCOMMUTING)
        assert compose_sigma(a, identity) == generic_compose_sigma(a, identity) == a
        assert compose_sigma(identity, a) == generic_compose_sigma(identity, a) == a
    assert compose_sigma(identity, identity) == generic_compose_sigma(identity, identity)


def test_compose_quadratic_example():
    w = WeightVector((1, 2))
    s = make_sigma(w, {(2, (2, 0)): 1})
    assert compose_sigma(s, s) == make_sigma(w, {(2, (2, 0)): 2})


def test_compose_requires_same_weights():
    with pytest.raises(WeightMismatch):
        compose_sigma(
            identity_sigma(WeightVector((1, 2))), identity_sigma(WeightVector((1, 3)))
        )


def test_group_closure_and_associativity():
    for m in ((1, 2, 3), (1, 2, 4), (1, 1, 2)):
        w = WeightVector(m)
        for seed in range(5):
            a = random_sigma(w, 3 * seed)
            b = random_sigma(w, 3 * seed + 1)
            c = random_sigma(w, 3 * seed + 2)
            ab = compose_sigma(a, b)  # constructor revalidates closure
            assert compose_sigma(ab, c) == compose_sigma(a, compose_sigma(b, c))


def test_degree_bounded_by_resonance_order():
    for m in WEIGHT_SET:
        w = WeightVector(m)
        mu = resonance_profile(w).order
        for seed in range(5):
            assert random_sigma(w, seed).as_poly_map().total_degree() <= mu


# serialization


def test_json_round_trip():
    w = WeightVector((1, 2, 4))
    s = make_sigma(w, {(2, (2, 0, 0)): Fraction(-1, 2), (3, (4, 0, 0)): 3})
    data = s.to_json_dict()
    assert data == {
        "weights": [1, 2, 4],
        "g": {"2": {"2,0,0": "-1/2"}, "3": {"4,0,0": "3"}},
    }
    assert TriangularResonantMap.from_json_dict(data) == s


def test_json_identity_omits_components():
    w = WeightVector((1, 1))
    assert identity_sigma(w).to_json_dict() == {"weights": [1, 1], "g": {}}


def test_json_rejects_malformed():
    with pytest.raises(ParseError):
        TriangularResonantMap.from_json_dict({"g": {}})
    with pytest.raises(ParseError):
        TriangularResonantMap.from_json_dict(
            {"weights": [1, 2], "g": {"2": {"bad": "1"}}}
        )
    with pytest.raises(NotResonant):
        TriangularResonantMap.from_json_dict(
            {"weights": [1, 2], "g": {"1": {"0,1": "1"}}}
        )
