import json
from fractions import Fraction
from pathlib import Path

import pytest

import quasicirc.conjugation
import quasicirc.intpoly
from quasicirc import (
    BlockDiagonalInput,
    DEFAULT_POOL,
    DimensionMismatch,
    DoesNotFixOrigin,
    LinearMap,
    NoResonantConjugacy,
    Polynomial,
    PolyMap,
    SingularLinearMap,
    SingularLinearPart,
    WeightMismatch,
    WeightVector,
    block_partition,
    check_theorem_instance,
    compose_sigma,
    conjugate,
    find_violation,
    identity_sigma,
    invert_sigma,
    is_block_diagonal,
    make_sigma,
    parse_poly_map,
    quasi_resonance_estimate,
    random_block_diagonal_map,
    random_linear_map,
    random_sigma,
    resonance_profile,
    solve_conjugacy,
    solve_exact,
)
from quasicirc.conjugation import _conjugate
from quasicirc.resonant import pool_choices
from oracles import WEIGHT_SET, generic_compose_sigma, series_inverse, unwind_inverse


def var(n, j):
    return Polynomial.variable(n, j)


W12 = WeightVector((1, 2))
SIGMA12 = make_sigma(W12, {(2, (2, 0)): 1})
OFFBLOCK = LinearMap(((1, 1), (0, 1)))  # z -> (z1 + z2, z2)
#: the weight vectors of the benchmark's conjugacy round trip
SOLVE_WEIGHTS = ((1, 2, 4), (1, 2, 6), (1, 3, 6), (1, 2, 3, 4), (1, 2, 3, 5))


# block diagonality


def test_block_diagonal_examples():
    assert is_block_diagonal(LinearMap(((2, 0), (0, 3))), block_partition(W12))
    assert not is_block_diagonal(OFFBLOCK, block_partition(W12))
    w = WeightVector((1, 1, 2))
    matrix = LinearMap(((1, 2, 0), (3, 4, 0), (0, 0, 5)))
    assert is_block_diagonal(matrix, block_partition(w))


def test_block_diagonal_dimension_check():
    with pytest.raises(DimensionMismatch):
        is_block_diagonal(LinearMap.identity(3), block_partition(W12))


# linear map plumbing


def test_linear_map_algebra():
    a = LinearMap(((1, 1), (0, 1)))
    b = LinearMap(((2, 0), (0, 3)))
    assert (a @ b).rows == ((2, 3), (0, 3))
    assert a.determinant() == 1
    assert b.determinant() == 6
    assert a.inverse() @ a == LinearMap.identity(2)
    assert LinearMap(((1, 2), (2, 4))).determinant() == 0
    with pytest.raises(SingularLinearMap):
        LinearMap(((1, 2), (2, 4))).inverse()


def test_linear_map_rejects_floats_and_nonsquare():
    with pytest.raises(TypeError):
        LinearMap(((0.5, 0), (0, 1)))
    with pytest.raises(ValueError):
        LinearMap(((1, 2, 3), (4, 5, 6)))


# conjugation


def test_conjugate_by_identity_linear():
    assert conjugate(SIGMA12, LinearMap.identity(2)) == PolyMap.identity(2)


def test_conjugate_block_diagonal_example():
    f = conjugate(SIGMA12, LinearMap(((2, 0), (0, 3))))
    assert f == PolyMap((2 * var(2, 1), 3 * var(2, 2) - var(2, 1) ** 2))
    assert f.total_degree() == 2


def test_conjugate_offblock_example():
    f = conjugate(SIGMA12, OFFBLOCK)
    first = var(2, 1) + var(2, 2) + var(2, 1) ** 2
    second = var(2, 2) + var(2, 1) ** 2 - first**2
    assert f == PolyMap((first, second))
    assert f.total_degree() == 4


def test_conjugate_linear_part_is_input():
    for seed in range(5):
        w = WeightVector((1, 2, 3))
        s = random_sigma(w, seed)
        linear = random_linear_map(3, seed + 50)
        assert conjugate(s, linear).linear_part() == linear


def test_conjugate_rejects_singular_and_mismatched():
    with pytest.raises(SingularLinearMap):
        conjugate(SIGMA12, LinearMap(((1, 1), (1, 1))))
    with pytest.raises(DimensionMismatch):
        conjugate(SIGMA12, LinearMap.identity(3))


def test_theorem_instance_block_diagonal():
    report = check_theorem_instance(W12, SIGMA12, LinearMap(((2, 0), (0, 3))))
    assert report.degree == 2
    assert report.resonance_order == 2
    assert report.within_bound
    assert report.block_diagonal
    assert report.component_resonant == (True, True)


def test_theorem_instance_offblock():
    report = check_theorem_instance(W12, SIGMA12, OFFBLOCK)
    assert report.degree == 4
    assert not report.within_bound
    assert not report.block_diagonal


def test_theorem_instance_identity_sigma():
    report = check_theorem_instance(W12, identity_sigma(W12), OFFBLOCK)
    assert report.degree == 1
    assert report.within_bound


def test_theorem_instance_weight_mismatch():
    with pytest.raises(WeightMismatch):
        check_theorem_instance(WeightVector((1, 3)), SIGMA12, OFFBLOCK)


def test_forward_direction_sample():
    # block-diagonal linear part: degree within bound, all components resonant
    for m in WEIGHT_SET:
        w = WeightVector(m)
        mu = resonance_profile(w).order
        for seed in range(20):
            s = random_sigma(w, seed)
            linear = random_block_diagonal_map(w, seed + 999)
            report = check_theorem_instance(w, s, linear)
            assert report.block_diagonal
            assert report.degree <= mu
            assert all(report.component_resonant)


def test_conjugation_is_multiplicative():
    # conjugates have degree up to mu^2 and their composition up to mu^4,
    # so keep the sampled weight vectors small
    for m in ((1, 2), (1, 1, 2)):
        w = WeightVector(m)
        for seed in range(5):
            s = random_sigma(w, seed)
            a = random_linear_map(w.n, seed + 10)
            b = random_linear_map(w.n, seed + 20)
            assert conjugate(s, a @ b) == conjugate(s, a).compose(conjugate(s, b))
    w = WeightVector((1, 2, 3))
    s = random_sigma(w, 0)
    a = random_linear_map(3, 10)
    b = random_linear_map(3, 20)
    assert conjugate(s, a @ b) == conjugate(s, a).compose(conjugate(s, b))


def test_conjugation_respects_inverses():
    for m in ((1, 2), (1, 1, 2)):
        w = WeightVector(m)
        for seed in range(5):
            s = random_sigma(w, seed)
            linear = random_linear_map(w.n, seed + 30)
            f = conjugate(s, linear)
            g = conjugate(s, linear.inverse())
            assert f.compose(g) == PolyMap.identity(w.n)
            assert g.compose(f) == PolyMap.identity(w.n)


# the two routes: the triangular recursion on L . sigma for a block-diagonal L,
# and (tau . L) . sigma with tau = sigma^-1 for any other L; both apply sigma
# as one shift z_j -> z_j + g_j at a time


@pytest.mark.parametrize("m", WEIGHT_SET)
def test_conjugate_solves_the_defining_identity(m):
    w = WeightVector(m)
    mu = resonance_profile(w).order
    partition = block_partition(w)
    for seed in range(5):
        sigma = random_sigma(w, seed + 500)
        mixing = random_linear_map(w.n, seed + 700)
        # the pool has no zero, so the map mixes blocks whenever there are two
        assert is_block_diagonal(mixing, partition) == (partition.block_count == 1)
        for linear in (random_block_diagonal_map(w, seed + 600), mixing):
            f = conjugate(sigma, linear)
            l_sigma = PolyMap.from_linear(linear).compose(sigma.as_poly_map())
            assert sigma.as_poly_map().compose(f) == l_sigma
            assert f == series_inverse(sigma, mu).compose(l_sigma)
            # each route is exact for every invertible L; the block structure
            # only decides which one is cheaper
            assert _conjugate(sigma, linear, True) == _conjugate(sigma, linear, False) == f


@pytest.mark.parametrize("m", SOLVE_WEIGHTS)
def test_mixing_route_multiplies_fewer_term_pairs(m, monkeypatch):
    """Term pairs, a cost that no host changes: the shifts against tau . (L . sigma)."""
    pairs = []
    accumulate = quasicirc.intpoly._accumulate

    def counting(acc, left, right, scale):
        pairs.append(len(left) * len(right))
        return accumulate(acc, left, right, scale)

    monkeypatch.setattr(quasicirc.intpoly, "_accumulate", counting)
    w = WeightVector(m)
    sigma, linear = random_sigma(w, 3), random_linear_map(w.n, 4)
    assert not is_block_diagonal(linear, block_partition(w))
    f = conjugate(sigma, linear)
    shifted = sum(pairs)
    pairs.clear()
    inner = PolyMap.from_linear(linear).compose(sigma.as_poly_map())
    assert f == invert_sigma(sigma).as_poly_map().compose(inner)
    assert shifted < sum(pairs)


def test_only_the_shift_composes_with_sigma_on_the_right(monkeypatch):
    calls = {"substitute": 0, "compose": 0, "_shift": 0}
    for cls, name in ((Polynomial, "substitute"), (PolyMap, "compose"), (PolyMap, "_shift")):
        def counting(*args, _method=getattr(cls, name), _name=name, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(cls, name, counting)
    w = WeightVector((1, 2, 3, 5))
    a, b, linear = random_sigma(w, 1), random_sigma(w, 2), random_block_diagonal_map(w, 3)
    ab = compose_sigma(a, b)
    assert calls == {"substitute": 0, "compose": 0, "_shift": 1}
    # the recursion substitutes into g, but builds its base L . sigma by a shift
    f = conjugate(a, linear)
    assert calls["compose"] == 0 and calls["_shift"] == 2
    # the inverse is one lazy shift, with no substitution
    calls.update(substitute=0, _shift=0)
    inverse = invert_sigma(a)
    assert calls == {"substitute": 0, "compose": 0, "_shift": 1}
    monkeypatch.undo()
    assert ab == generic_compose_sigma(a, b)
    assert a.as_poly_map().compose(f) == PolyMap.from_linear(linear).compose(a.as_poly_map())
    assert inverse == unwind_inverse(a)


@pytest.mark.parametrize("m", SOLVE_WEIGHTS)
def test_lazy_inverse_multiplies_fewer_term_pairs(m, monkeypatch):
    """Term pairs, a cost that no host changes: the lazy shift against the substitutions."""
    pairs = []
    accumulate = quasicirc.intpoly._accumulate

    def counting(acc, left, right, scale):
        pairs.append(len(left) * len(right))
        return accumulate(acc, left, right, scale)

    monkeypatch.setattr(quasicirc.intpoly, "_accumulate", counting)
    sigma = random_sigma(WeightVector(m), 3)
    tau = invert_sigma(sigma)
    shifted = sum(pairs)
    pairs.clear()
    assert tau == unwind_inverse(sigma)
    assert shifted < sum(pairs)


def test_only_a_mixing_linear_map_builds_the_inverse(monkeypatch):
    inversions, block_tests = [], []
    invert, block_test = quasicirc.conjugation.invert_sigma, is_block_diagonal
    monkeypatch.setattr(quasicirc.conjugation, "invert_sigma",
                        lambda s: inversions.append(s) or invert(s))
    monkeypatch.setattr(quasicirc.conjugation, "is_block_diagonal",
                        lambda *args: block_tests.append(args) or block_test(*args))
    w = WeightVector((1, 2, 3))
    sigma = random_sigma(w, 4)
    conjugate(sigma, random_block_diagonal_map(w, 5))
    assert check_theorem_instance(w, sigma, random_block_diagonal_map(w, 6)).block_diagonal
    assert inversions == [] and len(block_tests) == 2
    conjugate(sigma, random_linear_map(3, 7))
    assert not check_theorem_instance(w, sigma, random_linear_map(3, 8)).block_diagonal
    assert inversions == [sigma, sigma] and len(block_tests) == 4
    # the violation search sees only mixing maps: one inverse per trial
    inversions.clear()
    assert find_violation(WeightVector((2, 3)), OFFBLOCK, trials=3, seed=1) is None
    assert len(inversions) == 3


# violation search


def test_find_violation_returns_witness():
    witness = find_violation(W12, OFFBLOCK, trials=8, seed=0)
    assert witness is not None
    # soundness: re-check the degree through the public conjugate path
    mu = resonance_profile(W12).order
    assert conjugate(witness, OFFBLOCK).total_degree() > mu


def test_find_violation_rejects_block_diagonal():
    with pytest.raises(BlockDiagonalInput):
        find_violation(W12, LinearMap(((2, 0), (0, 3))), trials=4, seed=0)
    # equal weights form a single block, so every linear map is rejected
    with pytest.raises(BlockDiagonalInput):
        find_violation(WeightVector((1, 1)), OFFBLOCK, trials=4, seed=0)


def test_find_violation_absent_when_sigma_forced_identity():
    w = WeightVector((2, 3))
    assert find_violation(w, OFFBLOCK, trials=16, seed=1) is None


def test_find_violation_takes_the_determinant_once(monkeypatch):
    # the search checks L once up front; the per-trial conjugations skip it
    calls = []
    determinant = LinearMap.determinant

    def counted(self):
        calls.append(self)
        return determinant(self)

    monkeypatch.setattr(LinearMap, "determinant", counted)
    rows = json.loads((Path(__file__).parent / "data" / "linear_offblock.json").read_text())
    assert find_violation(W12, LinearMap.from_string_rows(rows), trials=8, seed=3) is not None
    assert len(calls) == 1


def test_find_violation_validates_input():
    with pytest.raises(ValueError):
        find_violation(W12, OFFBLOCK, trials=0, seed=0)
    with pytest.raises(SingularLinearMap):
        find_violation(W12, LinearMap(((1, 1), (1, 1))), trials=4, seed=0)


# quasi-resonance estimation


def test_estimator_examples():
    assert quasi_resonance_estimate(WeightVector((1, 1, 1)), 4, seed=1).observed_max == 1
    estimate = quasi_resonance_estimate(W12, 16, seed=1)
    assert estimate.observed_max == 4
    assert estimate.cap == 4
    assert quasi_resonance_estimate(WeightVector((2, 3)), 4, seed=1).observed_max == 1


def test_estimator_deterministic_and_monotone():
    w = WeightVector((1, 2, 3))
    small = quasi_resonance_estimate(w, 4, seed=5)
    again = quasi_resonance_estimate(w, 4, seed=5)
    large = quasi_resonance_estimate(w, 12, seed=5)
    assert small == again
    assert small.observed_max <= large.observed_max
    assert large.observed_max <= large.cap


def test_estimator_never_exceeds_cap():
    for m in WEIGHT_SET:
        w = WeightVector(m)
        estimate = quasi_resonance_estimate(w, 6, seed=3)
        assert 1 <= estimate.observed_max <= estimate.cap


# samplers


def test_random_linear_map_deterministic_invertible():
    a = random_linear_map(3, 7)
    assert a == random_linear_map(3, 7)
    assert a.determinant() != 0


def test_random_block_diagonal_sampler():
    w = WeightVector((1, 1, 2))
    linear = random_block_diagonal_map(w, 11)
    assert linear.determinant() != 0
    assert is_block_diagonal(linear, block_partition(w))
    assert linear == random_block_diagonal_map(w, 11)


def test_sampler_draw_sequences_are_pinned():
    # fixed outputs: the shared pool handling and bounded retries must leave
    # the random draw sequence of a valid pool unchanged
    assert random_linear_map(3, 11).to_string_rows() == [
        ["1/2", "1", "1/2"], ["1/2", "1", "1"], ["-1", "-1", "1"],
    ]
    w = WeightVector((1, 2, 2, 3))
    assert random_block_diagonal_map(w, 11).to_string_rows() == [
        ["1/2", "0", "0", "0"], ["0", "1", "1/2", "0"], ["0", "1/2", "1", "0"], ["0", "0", "0", "1"],
    ]
    # with zero in the pool the 2x2 block is resampled after singular draws
    assert random_block_diagonal_map(w, 4, pool=(0, 1)).to_string_rows() == [
        ["1", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "1"],
    ]


def test_default_pool_samples_as_its_copies():
    # DEFAULT_POOL's choices are prepared once, at import; a copy, a set and a
    # list with repeats and other spellings go through the general normaliser
    copies = [
        list(DEFAULT_POOL),
        set(DEFAULT_POOL),
        [*DEFAULT_POOL[::-1], *DEFAULT_POOL, "1/2", -2, Fraction(4, 2)],
    ]
    for pool in copies:
        assert pool_choices(pool) == pool_choices(DEFAULT_POOL)
    for m in WEIGHT_SET:
        w = WeightVector(m)
        for seed in range(3):
            sigma = random_sigma(w, seed)
            linear = random_linear_map(w.n, seed)
            block = random_block_diagonal_map(w, seed)
            for pool in copies:
                assert random_sigma(w, seed, pool) == sigma
                assert random_linear_map(w.n, seed, pool) == linear
                assert random_block_diagonal_map(w, seed, pool) == block


def test_samplers_give_up_on_a_singular_pool():
    with pytest.raises(SingularLinearMap):
        random_linear_map(2, 5, pool=[0])
    with pytest.raises(SingularLinearMap):
        random_block_diagonal_map(WeightVector((1, 2, 2)), 5, pool=[0])


# conjugacy solver


def test_solve_recovers_quadratic_example():
    f = PolyMap((2 * var(2, 1), 3 * var(2, 2) - var(2, 1) ** 2))
    solution = solve_conjugacy(f, W12)
    assert solution.sigma == SIGMA12
    assert solution.linear == LinearMap(((2, 0), (0, 3)))
    assert solution.residual_zero
    assert solution.free_parameters == 0


def test_solve_linear_input_gives_identity_sigma():
    f = PolyMap.from_linear(OFFBLOCK)
    solution = solve_conjugacy(f, W12)
    assert solution.sigma.is_identity()
    assert solution.linear == OFFBLOCK
    assert solution.residual_zero


def test_solve_identity_reports_free_family():
    # every sigma conjugates the identity to itself, so the system is fully
    # underdetermined; the zero solution is picked and the slack is reported
    solution = solve_conjugacy(PolyMap.identity(2), W12)
    assert solution.sigma.is_identity()
    assert solution.residual_zero
    assert solution.free_parameters == 1


def test_solve_detects_unsolvable():
    f = parse_poly_map("z1\nz2 + z1^3")
    with pytest.raises(NoResonantConjugacy):
        solve_conjugacy(f, W12)


def test_solve_rejects_bad_inputs():
    with pytest.raises(DoesNotFixOrigin):
        solve_conjugacy(parse_poly_map("z1 + 1\nz2"), W12)
    with pytest.raises(SingularLinearPart):
        solve_conjugacy(parse_poly_map("z1\nz1^2"), W12)
    with pytest.raises(DimensionMismatch):
        solve_conjugacy(PolyMap.identity(3), W12)


def test_solve_round_trip_reproduces_map():
    for m in ((1, 2), (1, 1, 2), (1, 2, 3)):
        w = WeightVector(m)
        for seed in range(8):
            s = random_sigma(w, seed)
            linear = random_linear_map(w.n, seed + 77)
            f = conjugate(s, linear)
            solution = solve_conjugacy(f, w)
            assert solution.residual_zero
            assert conjugate(solution.sigma, solution.linear) == f


def record_systems(monkeypatch):
    """(rows, right-hand sides, unknowns) of every system solve_conjugacy eliminates."""
    seen = []

    def recording_solve_exact(rows, rhs, n_cols):
        seen.append((len(rows), len(rhs), n_cols))
        return solve_exact(rows, rhs, n_cols)

    monkeypatch.setattr(quasicirc.conjugation, "solve_exact", recording_solve_exact)
    return seen


def test_solve_builds_a_pinned_system(monkeypatch):
    seen = record_systems(monkeypatch)
    text = (Path(__file__).parent / "data" / "map_solvable.txt").read_text(encoding="utf-8")
    assert solve_conjugacy(parse_poly_map(text), W12).residual_zero
    w = WeightVector((1, 2, 3, 5))
    f = conjugate(random_sigma(w, 5), random_linear_map(w.n, 6))
    assert solve_conjugacy(f, w).residual_zero
    # one point system per solve: J mixes every component, so ceil(K/n) + 1
    # points of n rows each
    assert seen == [(4, 4, 1), (12, 12, 8)]


def test_block_diagonal_linear_part_needs_points_per_block(monkeypatch):
    # at weights (1, 2, 3) a block-diagonal J is diagonal: the two unknowns of
    # component 3 see only the third row of each point, so three points fix
    # them and check consistency
    seen = record_systems(monkeypatch)
    w = WeightVector((1, 2, 3))
    f = conjugate(random_sigma(w, 3), LinearMap(((2, 0, 0), (0, 3, 0), (0, 0, 5))))
    assert solve_conjugacy(f, w).residual_zero
    with pytest.raises(NoResonantConjugacy, match="no triangular"):
        solve_conjugacy(bumped(f, w), w)
    assert seen == [(9, 9, 3), (9, 9, 3)]


def test_solve_rejects_a_map_above_the_degree_bound(monkeypatch):
    # every conjugate at weights (1, 2) has degree at most 2^2, so no system
    # is built, and no point is evaluated, for a degree-100000 map
    seen = record_systems(monkeypatch)
    with pytest.raises(NoResonantConjugacy, match="no triangular"):
        solve_conjugacy(parse_poly_map("z1 + z1^100000\nz2"), W12)
    assert seen == []


def test_rank_deficient_points_fall_back_to_coefficients(monkeypatch):
    seen = record_systems(monkeypatch)
    # under diag(2, 3, 4) at weights (1, 1, 2) the monomial z1^2 is resonant
    # (4 = 2 * 2), so its coefficient is free and the other two are fixed
    w = WeightVector((1, 1, 2))
    sigma = make_sigma(w, {(3, (1, 1, 0)): 1, (3, (0, 2, 0)): -2})
    f = conjugate(sigma, LinearMap(((2, 0, 0), (0, 3, 0), (0, 0, 4))))
    solution = solve_conjugacy(f, w)
    assert solution.sigma == sigma
    assert solution.residual_zero
    assert solution.free_parameters == 1
    # the point system, then the coefficient system
    assert seen == [(12, 12, 3), (2, 2, 3)]


def test_solve_rejects_the_only_candidate_by_its_residual(monkeypatch):
    # J is one block, so two points of three rows; but only the third row of
    # each sees the two unknowns of component 3 (J[1][3] = J[2][3] = 0), so
    # the points fix them without a consistency check, and only the exact
    # residual sees the z1^4 bump
    seen = record_systems(monkeypatch)
    with pytest.raises(NoResonantConjugacy, match="only candidate"):
        solve_conjugacy(parse_poly_map("2 z1\n3 z2\nz1 + 5 z3 + z1^4"), WeightVector((1, 2, 3)))
    assert seen == [(6, 6, 3)]


def bumped(f, weights):
    """f + z1^(m_n+1) e_n: provably unsolvable when f conjugates a block-diagonal map."""
    n, m = weights.n, weights.m
    bump = Polynomial.monomial(n, (m[-1] + 1,) + (0,) * (n - 1))
    return PolyMap(f.components[:-1] + (f.components[-1] + bump,))


def differential_cases():
    """(f, weights): mixing and block-diagonal conjugates, bumped, and free families."""
    for m in SOLVE_WEIGHTS:
        w = WeightVector(m)
        for seed in range(2):
            yield conjugate(random_sigma(w, seed), random_linear_map(w.n, seed + 40)), w
        f = conjugate(random_sigma(w, 7), random_block_diagonal_map(w, 8))
        yield f, w
        yield bumped(f, w), w
        yield PolyMap.identity(w.n), w
    yield PolyMap.from_linear(LinearMap(((2, 0), (0, 4)))), W12


def solve_outcome(f, weights):
    try:
        solution = solve_conjugacy(f, weights)
    except NoResonantConjugacy:
        return NoResonantConjugacy
    return solution.sigma, solution.linear, solution.residual_zero, solution.free_parameters


def test_point_system_agrees_with_coefficient_system(monkeypatch):
    coefficient_system = quasicirc.conjugation._coefficient_system
    fell_back = []

    def recording(*args):
        fell_back.append(True)
        return coefficient_system(*args)

    monkeypatch.setattr(quasicirc.conjugation, "_coefficient_system", recording)
    paths = set()
    for f, w in differential_cases():
        fell_back.clear()
        outcome = solve_outcome(f, w)
        # only unknowns that are free in the coefficient system too leave the
        # point path: the identity, diag(2, 4), and the resonant eigenvalues
        # random_block_diagonal_map draws at some weights
        free = outcome is not NoResonantConjugacy and outcome[3] > 0
        assert fell_back == [True] * free
        paths.add(free)
        with monkeypatch.context() as patch:
            # no point rows leave every unknown free, so the coefficient
            # system alone decides
            patch.setattr(quasicirc.conjugation, "_point_system", lambda *args: ([], []))
            assert solve_outcome(f, w) == outcome
    assert paths == {False, True}
