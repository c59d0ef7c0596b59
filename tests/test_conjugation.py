import json
import random
from fractions import Fraction
from itertools import islice, repeat
from pathlib import Path

import pytest

import quasicirc.conjugation
import quasicirc.intpoly
import quasicirc.resonant
import quasicirc.weights
from quasicirc import (
    BlockDiagonalInput,
    BudgetExceeded,
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
    cli,
    compose_sigma,
    conjugate,
    find_violation,
    identity_sigma,
    invert_sigma,
    is_block_diagonal,
    make_sigma,
    nonlinear_resonant_monomials,
    parse_poly_map,
    quasi_resonance_estimate,
    random_block_diagonal_map,
    random_linear_map,
    random_sigma,
    resonance_profile,
    solve_conjugacy,
    solve_exact,
)
from quasicirc.conjugation import _coefficient_system, _conjugate, _line_count, _line_degree
from quasicirc.conjugation import _line_rows, _violation
from quasicirc.linalg import _integral, _primitive
from quasicirc.resonant import _inverse_part, pool_choices
from oracles import (
    WEIGHT_SET,
    box_resonance_order,
    coefficient_solve,
    generic_compose_sigma,
    reference_line_rows,
    reference_quasi_order,
    reference_violation,
    series_inverse,
    unwind_inverse,
)


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
    invert, block_test = quasicirc.conjugation._inverse_part, is_block_diagonal
    monkeypatch.setattr(quasicirc.conjugation, "_inverse_part",
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
    assert find_violation(W12, LinearMap(rows), trials=8, seed=3) is not None
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


def random_block_lower_map(weights, seed):
    """An invertible L with L_ij = 0 whenever m_i < m_j: diagonal blocks plus seeded entries below."""
    rng = random.Random(seed)
    rows = [list(row) for row in random_block_diagonal_map(weights, seed).rows]
    for i, j in ((i, j) for i in range(weights.n) for j in range(weights.n)):
        if weights.m[i] > weights.m[j]:
            rows[i][j] = Fraction(rng.choice(DEFAULT_POOL))
    return LinearMap(rows)


@pytest.mark.parametrize("m", WEIGHT_SET)
def test_line_degree_never_exceeds_the_degree(m):
    # deg_t F(tp) <= deg F <= mu^2 for mixing and block-lower L alike; the
    # line is never taken for an identity sigma, forced at (1, 1) and (2, 3)
    w = WeightVector(m)
    cap = box_resonance_order(m) ** 2
    checked = 0
    for seed in range(6):
        sigma = random_sigma(w, seed)
        if sigma.is_identity():
            continue
        h = _inverse_part(sigma)
        for linear in (random_linear_map(w.n, seed + 10), random_block_lower_map(w, seed + 20)):
            assert 1 <= _line_degree(sigma, linear, h, cap) <= conjugate(sigma, linear).total_degree() <= cap
            checked += 1
    assert checked or not any(nonlinear_resonant_monomials(w, i) for i in range(1, w.n + 1))


@pytest.mark.parametrize("m", WEIGHT_SET)
def test_trials_agree_with_a_full_conjugate_per_trial(m):
    w = WeightVector(m)
    for seed in range(10):
        estimate = quasi_resonance_estimate(w, 4, seed)
        assert (estimate.observed_max, estimate.cap) == reference_quasi_order(w, 4, seed)
        linear = random_linear_map(w.n, seed + 100)
        if is_block_diagonal(linear, block_partition(w)):
            with pytest.raises(BlockDiagonalInput):
                find_violation(w, linear, 4, seed)
            continue
        expected = reference_violation(w, linear, 4, seed)
        assert _violation(w, linear, 4, seed, DEFAULT_POOL) == expected
        assert find_violation(w, linear, 4, seed) == (expected and expected[0])


def record_draws_and_conjugates(monkeypatch):
    """Lists that fill with the trials' sigma draws and mixing conjugates."""
    draws, conjugates = [], []
    draw, mixing = quasicirc.conjugation.random_sigma, quasicirc.conjugation._mixing
    monkeypatch.setattr(quasicirc.conjugation, "random_sigma",
                        lambda *args: draws.append(args) or draw(*args))
    monkeypatch.setattr(quasicirc.conjugation, "_mixing",
                        lambda *args: conjugates.append(args) or mixing(*args))
    return draws, conjugates


def test_one_line_at_the_cap_ends_the_estimate(monkeypatch):
    draws, conjugates = record_draws_and_conjugates(monkeypatch)
    estimate = quasi_resonance_estimate(W12, 100_000_000, seed=1)
    assert (estimate.observed_max, estimate.cap, estimate.trials) == (4, 4, 100_000_000)
    assert len(draws) == 1 and conjugates == []


def test_violate_builds_no_second_conjugate(monkeypatch, capsys):
    # each trial builds at most one conjugate, and the witness's degree is
    # read from its trial, not from a conjugate built after the search
    draws, conjugates = record_draws_and_conjugates(monkeypatch)
    monkeypatch.setattr(quasicirc.conjugation, "_conjugate", None)
    data = Path(__file__).parent / "data"
    golden = Path(__file__).parent / "golden" / "violate_found.json"
    assert cli.run(["violate", "--weights", "1,2", "--linear", str(data / "linear_offblock.json"),
                    "--trials", "8", "--seed", "3"]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
    assert draws and len(conjugates) <= len(draws)


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
    # one line system per solve, of n (mu - 1) rows: at (1, 2) the unknown
    # z1^2 has the one row of degree 2 in component 2, and at (1, 2, 3, 5)
    # the five unknowns of component 4, of degrees 2 to 5, fill at most two
    # rows of each degree, so one line of 4 * 4 rows fixes all eight
    assert seen == [(2, 2, 1), (16, 16, 8)]


def test_block_diagonal_linear_part_needs_lines_per_block(monkeypatch):
    # at weights (1, 2, 3) a block-diagonal J is diagonal: the two unknowns of
    # component 3, of degrees 2 and 3, see only its rows of degrees 2 and 3,
    # so one line of 3 * 2 rows fixes them
    seen = record_systems(monkeypatch)
    w = WeightVector((1, 2, 3))
    f = conjugate(random_sigma(w, 3), LinearMap(((2, 0, 0), (0, 3, 0), (0, 0, 5))))
    assert solve_conjugacy(f, w).residual_zero
    # the bump z1^4 in component 3 has weighted degree 4, not m_3 = 3, and
    # under a block-diagonal J every conjugate's component i is
    # m_i-homogeneous, so the map is rejected before any line
    with pytest.raises(NoResonantConjugacy, match="no triangular"):
        solve_conjugacy(bumped(f, w), w)
    assert seen == [(6, 6, 3)]


def test_solve_rejects_a_map_above_the_degree_bound(monkeypatch):
    # every conjugate at weights (1, 2) has degree at most 2^2, so no system
    # is built, and no line is read, for a degree-100000 map; under the
    # identity every component must also be i-resonant, and under a J that
    # mixes blocks only the degree bound applies
    seen = record_systems(monkeypatch)
    with pytest.raises(NoResonantConjugacy, match="no triangular"):
        solve_conjugacy(parse_poly_map("z1 + z1^100000\nz2"), W12)
    with pytest.raises(NoResonantConjugacy, match="no triangular"):
        solve_conjugacy(parse_poly_map("z1 + z1^100000\nz1 + z2"), W12)
    assert seen == []


def test_a_solve_reads_each_resonance_set_once(monkeypatch):
    # mu comes from `weights.resonance_order`, which reads the sets the
    # unknowns already listed, so no resonance profile lists them a second time
    w = WeightVector((1, 2, 3, 5))
    f = conjugate(random_sigma(w, 3), random_linear_map(w.n, 4))
    calls = []
    resonance_set = quasicirc.weights.resonance_set

    def counting_resonance_set(weights, i):
        calls.append(i)
        return resonance_set(weights, i)

    for module in (quasicirc.weights, quasicirc.resonant):
        monkeypatch.setattr(module, "resonance_set", counting_resonance_set)
    assert solve_conjugacy(f, w).residual_zero
    assert sorted(calls) == [1, 2, 3, 4]


def test_bound_checks_build_no_resonance_profile(monkeypatch):
    # mu comes from `weights.resonance_order`, never from a whole profile
    def refuse(*args, **kwargs):
        raise AssertionError("a ResonanceProfile was built")

    monkeypatch.setattr(quasicirc.weights.ResonanceProfile, "__init__", refuse)
    w = WeightVector((1, 2, 4))
    sigma = random_sigma(w, 3)
    report = check_theorem_instance(w, sigma, random_block_diagonal_map(w, 4))
    assert report.within_bound and report.resonance_order == 4
    mixing = LinearMap(((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    find_violation(w, mixing, trials=2, seed=1)
    assert quasi_resonance_estimate(w, trials=2, seed=1).cap == 16
    assert solve_conjugacy(report.result, w).residual_zero
    with pytest.raises(AssertionError, match="ResonanceProfile"):
        resonance_profile(w)


def test_rank_deficient_lines_add_lines_up_to_js_free_count(monkeypatch):
    # under diag(2, 3, 4) at weights (1, 1, 2) the monomial z1^2 is resonant
    # (4 = 2 * 2), so its coefficient is free and the other two are fixed
    w = WeightVector((1, 1, 2))
    sigma = make_sigma(w, {(3, (1, 1, 0)): 1, (3, (0, 2, 0)): -2})
    f = conjugate(sigma, LinearMap(((2, 0, 0), (0, 3, 0), (0, 0, 4))))
    seen = record_systems(monkeypatch)
    solution = solve_conjugacy(f, w)
    assert solution.sigma == sigma
    assert solution.residual_zero
    assert solution.free_parameters == 1
    # the three unknowns, all of degree mu = 2, share component 3's one row
    # a line, so three lines; they leave one unknown free, so J's own system
    # is solved, one row per monomial (J z)^alpha, and its free count 1 ends
    # the solve
    assert seen == [(9, 9, 3), (3, 3, 3)]
    # from one line, which fixes one of the three unknowns, one line more
    # brings the free count down to J's
    seen.clear()
    monkeypatch.setattr(quasicirc.conjugation, "_line_count", lambda *args: 1)
    assert solve_conjugacy(f, w) == solution
    assert seen == [(3, 3, 3), (3, 3, 3), (6, 6, 3)]


def test_mixing_solve_at_n5_stays_on_the_line_path(monkeypatch):
    # component 5 holds 13 of the 21 unknowns, of degrees 2 to mu = 8, and
    # fills at most two rows of each degree a line, so one line of
    # 5 * 7 rows fixes them all
    seen = record_systems(monkeypatch)

    def no_commutant(*args):
        raise AssertionError("a unique line solution needed J's free count")

    monkeypatch.setattr(quasicirc.conjugation, "_coefficient_system", no_commutant)
    w = WeightVector((1, 2, 3, 5, 8))
    f = conjugate(random_sigma(w, 1), random_linear_map(w.n, 101))
    solution = solve_conjugacy(f, w)
    assert solution.residual_zero and solution.free_parameters == 0
    assert seen == [(35, 35, 21)]


def test_lines_that_gain_no_rank_exceed_the_budget(monkeypatch, capsys):
    # J = diag(-1, -1/2, -2, 2): the four unknowns of component 4 of degree
    # at least 3 fill one row of each of the degrees 3, 4 and 5 a line, so
    # two lines are taken
    w = WeightVector((1, 2, 3, 5))
    f = conjugate(random_sigma(w, 3), random_block_diagonal_map(w, 4))
    line_rows = quasicirc.conjugation._line_rows
    # a stream that repeats its first line
    monkeypatch.setattr(
        quasicirc.conjugation, "_line_rows", lambda *args: repeat(next(line_rows(*args)))
    )
    seen = record_systems(monkeypatch)
    with pytest.raises(BudgetExceeded):
        solve_conjugacy(f, w)
    # a repeated line fixes no more than one line, against J's 0 free: the
    # first 2 lines of 16 rows, J's system (one row per component and
    # monomial, as (J z)^alpha is one monomial), then K + 1 = 9 lines more
    assert seen == [(32, 32, 8), (8, 8, 8), *((16 * k, 16 * k, 8) for k in range(3, 12))]
    # the CLI exits 1 on it, as on every QuasicircError
    data = Path(__file__).parent / "data" / "map_free_112.txt"
    assert cli.run(["solve", "--weights", "1,1,2", "--map", str(data)]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "BudgetExceeded"}


def test_solve_substitutes_nothing_into_the_map(monkeypatch):
    # J's linear forms are substituted for its own system; f is only read
    # along lines
    text = (Path(__file__).parent / "data" / "map_free_112.txt").read_text(encoding="utf-8")
    w = WeightVector((1, 2, 3, 5))
    cases = [
        (parse_poly_map(text), WeightVector((1, 1, 2))),
        (conjugate(random_sigma(w, 1), lower_mixing(w)), w),
        (conjugate(random_sigma(w, 5), random_linear_map(w.n, 6)), w),
    ]
    substitute = Polynomial.substitute
    values_seen = []

    def recording(self, values, _cache=None):
        values_seen.append(tuple(values))
        return substitute(self, values, _cache=_cache)

    monkeypatch.setattr(Polynomial, "substitute", recording)
    for f, weights in cases:
        solve_conjugacy(f, weights)
    # the two free solves substitute J's forms, and nothing substitutes f
    assert values_seen
    assert not any(f.components in values_seen for f, _ in cases)


def test_solve_rejects_the_only_candidate_by_its_residual(monkeypatch):
    # one line of three components times the degrees 2 and 3 fixes the
    # three unknowns; the z1^4 bump lies above mu = 3, where no line row
    # looks, so only the exact residual sees it
    seen = record_systems(monkeypatch)
    with pytest.raises(NoResonantConjugacy, match="only candidate"):
        solve_conjugacy(parse_poly_map("2 z1\n3 z2\nz1 + 5 z3 + z1^4"), WeightVector((1, 2, 3)))
    assert seen == [(6, 6, 3)]


def bumped(f, weights):
    """f + z1^(m_n+1) e_n: provably unsolvable when f conjugates a block-diagonal map."""
    n, m = weights.n, weights.m
    bump = Polynomial.monomial(n, (m[-1] + 1,) + (0,) * (n - 1))
    return PolyMap(f.components[:-1] + (f.components[-1] + bump,))


def no_lines(monkeypatch):
    """Make building a line row fail the test."""
    def refuse(*args):
        raise AssertionError("a line was built")

    monkeypatch.setattr(quasicirc.conjugation, "_line_rows", refuse)


def oracle_finds_no_sigma(f, weights):
    outcome = solve_outcome(coefficient_solve, f, weights)
    return outcome is NoResonantConjugacy or not outcome[2]


@pytest.mark.parametrize("m", WEIGHT_SET)
def test_resonant_gate_passes_every_block_diagonal_conjugate(m, monkeypatch):
    # sigma^-1 J sigma for a block-diagonal J has m_i-homogeneous components,
    # so the gate lets it through, and the solve finds what the coefficient
    # oracle finds; its bump z1^(m_n+1) in component n is not m_n-homogeneous,
    # so it is rejected before any line or system
    w = WeightVector(m)
    for seed in range(3):
        f = conjugate(random_sigma(w, seed), random_block_diagonal_map(w, seed + 20))
        solution = solve_conjugacy(f, w)
        expected = coefficient_solve(f, w)
        assert solution.residual_zero and expected.residual_zero
        assert json.dumps(solution.sigma.to_json_dict()) == json.dumps(expected.sigma.to_json_dict())
        assert solution.free_parameters == expected.free_parameters
        with monkeypatch.context() as patch:
            seen = record_systems(patch)
            no_lines(patch)
            with pytest.raises(NoResonantConjugacy, match="no triangular"):
                solve_conjugacy(bumped(f, w), w)
        assert seen == []
        if w.n <= 3:
            assert oracle_finds_no_sigma(bumped(f, w), w)


def test_resonant_gate_rejects_a_wrong_weight_term_below_mu(monkeypatch):
    # z2^2 has degree 2 <= mu = 3 but weighted degree 4, not m_2 = 2, under
    # the diagonal J = diag(2, 3, 5)
    w = WeightVector((1, 2, 3))
    f = parse_poly_map("2 z1\n3 z2 + z2^2\n5 z3")
    assert f.total_degree() <= 3
    assert oracle_finds_no_sigma(f, w)
    seen = record_systems(monkeypatch)
    no_lines(monkeypatch)
    with pytest.raises(NoResonantConjugacy, match="no triangular"):
        solve_conjugacy(f, w)
    assert seen == []


def lower_mixing(w):
    """diag(2^m_i) plus ones below the diagonal: mixing, with free parameters."""
    return LinearMap([[2 ** m_i if i == j else int(j == i - 1) for j in range(w.n)]
                      for i, m_i in enumerate(w.m)])


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
    # one component holds all ten unknowns, of degree mu = 2, which fill at
    # most two rows a line, so five lines
    w = WeightVector((1, 1, 1, 1, 2))
    for seed in range(2):
        yield conjugate(random_sigma(w, seed), random_linear_map(w.n, seed + 100)), w
    # free families at n = 5, with 1 to 25 free parameters, and each bumped
    for m in ((1, 2, 3, 5, 8), (1, 1, 2, 3, 5)):
        w = WeightVector(m)
        scaling = LinearMap([[2 ** m_i * (i == j) for j in range(w.n)] for i, m_i in enumerate(m)])
        for f in (
            PolyMap.identity(w.n),
            conjugate(random_sigma(w, 0), scaling),
            conjugate(random_sigma(w, 7), random_block_diagonal_map(w, 8)),
        ):
            yield f, w
            yield bumped(f, w), w
    # a lower-triangular mixing J with diagonal 2^m_i leaves 2 free parameters
    w = WeightVector((1, 2, 3, 5))
    yield PolyMap.from_linear(lower_mixing(w)), w
    yield conjugate(random_sigma(w, 1), lower_mixing(w)), w


def solve_outcome(solve, f, weights):
    try:
        solution = solve(f, weights)
    except NoResonantConjugacy:
        return NoResonantConjugacy
    return solution.sigma, solution.linear, solution.residual_zero, solution.free_parameters


def test_line_system_agrees_with_coefficient_system():
    paths = set()
    for f, w in differential_cases():
        outcome = solve_outcome(solve_conjugacy, f, w)
        # the oracle matches coefficients monomial by monomial, at no point
        assert outcome == solve_outcome(coefficient_solve, f, w)
        paths.add("none" if outcome is NoResonantConjugacy else "free" if outcome[3] else "unique")
    assert paths == {"none", "free", "unique"}


def row_cases():
    """(f, weights) whose line rows are checked against the Fraction rows."""
    for m in SOLVE_WEIGHTS:
        w = WeightVector(m)
        yield conjugate(random_sigma(w, 3), random_linear_map(w.n, 4)), w
        f = conjugate(random_sigma(w, 7), random_block_diagonal_map(w, 8))
        yield f, w
        yield bumped(f, w), w
    w = WeightVector((1, 2, 3, 5, 8))
    yield conjugate(random_sigma(w, 1), random_linear_map(w.n, 101)), w
    # rational coefficients in f, and a J whose denominators' lcm is 4 * 7 * 9
    w = WeightVector((1, 2, 4))
    pool = (Fraction(1, 3), Fraction(-5, 7), Fraction(2, 9), Fraction(11, 4))
    yield conjugate(random_sigma(w, 2, pool), random_linear_map(w.n, 5, pool)), w
    # component denominators 2, 4, 4 and 32 under a J with halves
    text = (Path(__file__).parent / "data" / "map_mixing_1235.txt").read_text(encoding="utf-8")
    yield parse_poly_map(text), WeightVector((1, 2, 3, 5))
    # no unknowns: mu = 1, so a line has no rows
    yield PolyMap.from_linear(random_linear_map(3, 9)), WeightVector((1, 1, 1))


def unknowns_and_mu(w):
    unknowns = [(i, a) for i in range(1, w.n + 1) for a in nonlinear_resonant_monomials(w, i)]
    return unknowns, max((sum(alpha) for _, alpha in unknowns), default=1)


def first_rows(stream, lines=6):
    """The rows [A | b] of the first lines, each primitive, and the sign it was scaled by."""
    out = []
    for rows, rhs in islice(stream, lines):
        for row, b in zip(rows, rhs):
            vector, _ = _integral([*row, b])
            out.append((_primitive(vector), next((x > 0 for x in vector if x), None)))
    return out


def test_line_rows_are_positive_multiples_of_the_fraction_rows():
    dens = set()
    for f, w in row_cases():
        j_matrix = f.linear_part()
        unknowns, top = unknowns_and_mu(w)
        expected = first_rows(reference_line_rows(f, j_matrix, unknowns, top))
        assert first_rows(_line_rows(f, j_matrix, unknowns, top)) == expected
        dens.add(max(x.denominator for row in j_matrix.rows for x in row))
    assert max(dens) > 2


class SpiedTerms(dict):
    """A term map that records each key whose coefficient is read, and refuses a bulk read."""

    def __init__(self, terms):
        super().__init__(terms)
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)

    def items(self):
        raise AssertionError("every term of f was read")

    values = items


def test_terms_of_f_above_mu_are_never_read(monkeypatch):
    w = WeightVector((1, 2, 3, 5))
    f = conjugate(random_sigma(w, 5), random_linear_map(w.n, 6))
    unknowns, mu = unknowns_and_mu(w)
    # the bump z1^6 lies above mu = 5 and changes no line row, so the
    # altered map's line system keeps f's solution, and only the exact
    # residual rejects it
    altered = bumped(f, w)
    j_matrix = f.linear_part()
    expected = first_rows(_line_rows(f, j_matrix, unknowns, mu), lines=2)
    assert first_rows(_line_rows(altered, j_matrix, unknowns, mu), lines=2) == expected
    with pytest.raises(NoResonantConjugacy, match="only candidate"):
        solve_conjugacy(altered, w)
    # up to the residual, a solve reads no coefficient of f's terms above mu,
    # which are most of f's terms
    for part in f.components:
        part._num = SpiedTerms(part._num)
    reads = []
    residual = quasicirc.conjugation._conjugate

    def spying_conjugate(*args):
        reads.extend(list(part._num.read) for part in f.components)
        return residual(*args)

    monkeypatch.setattr(quasicirc.conjugation, "_conjugate", spying_conjugate)
    assert solve_conjugacy(f, w).residual_zero
    low_count = 0
    for part, read in zip(f.components, reads):
        mask = (1 << part._width) - 1
        low = {key for key in part._num if key % mask <= mu}
        low_count += len(low)
        # the terms of degree at most mu for the line rows, and J's entries
        # and the constant term (key 0, absent) for the linear part
        assert set(read) == low | {0}
    assert f.total_degree() == mu**2
    assert low_count < sum(len(part._num) for part in f.components) / 2


def test_benchmark_round_trips_solve_with_one_elimination(monkeypatch):
    # the solvable inputs of bench/workloads.py's solve_roundtrip, rounds 0 to
    # 29 at seeds 1 and 3, drawn as it draws them: the first line fixes every
    # unknown, so no line is added and J's system is never built
    def no_commutant(*args):
        raise AssertionError("a unique line solution needed J's free count")

    monkeypatch.setattr(quasicirc.conjugation, "_coefficient_system", no_commutant)
    seen = record_systems(monkeypatch)
    for seed in (1, 3):
        for r in range(30):
            rng = random.Random(f"solve_roundtrip/{seed}/{r}")
            for m in SOLVE_WEIGHTS:
                w = WeightVector(m)
                sigma = random_sigma(w, rng.getrandbits(32))
                linear = random_linear_map(w.n, rng.getrandbits(32))
                unknowns, mu = unknowns_and_mu(w)
                seen.clear()
                solution = solve_conjugacy(conjugate(sigma, linear), w)
                assert solution.linear == linear and solution.free_parameters == 0
                assert seen == [(w.n * (mu - 1), w.n * (mu - 1), len(unknowns))]


def test_line_count_is_the_fewest_lines_that_fix_every_unknown():
    # where J's own system leaves nothing free, `_line_count` lines are
    # exactly as many as the rows need to fix every unknown or be inconsistent
    counted = 0
    for f, w in differential_cases():
        unknowns, mu = unknowns_and_mu(w)
        j_matrix = f.linear_part()
        if not unknowns or _coefficient_system(j_matrix, unknowns):
            continue
        rows, rhs, needed = [], [], 0
        for line_rows, line_rhs in _line_rows(f, j_matrix, unknowns, mu):
            rows, rhs, needed = rows + line_rows, rhs + line_rhs, needed + 1
            solved = solve_exact(rows, rhs, len(unknowns))
            if solved is None or not solved[1]:
                break
        assert _line_count(j_matrix, unknowns, mu) == needed
        counted += needed > 1
    assert counted


@pytest.mark.parametrize("m", [(1, 1), (1, 1, 1)])
def test_solve_with_no_unknowns(m):
    # equal weights leave no nonlinear resonant monomial, so sigma is the
    # identity, mu = 1 and a line has no rows: the residual alone decides
    w = WeightVector(m)
    assert not any(nonlinear_resonant_monomials(w, i) for i in range(1, w.n + 1))
    linear = random_linear_map(w.n, 9)
    assert all(x for row in linear.rows for x in row)  # J mixes every component
    solution = solve_conjugacy(PolyMap.from_linear(linear), w)
    assert solution.sigma.is_identity()
    assert solution.linear == linear
    assert solution.residual_zero and solution.free_parameters == 0
