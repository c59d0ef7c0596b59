"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (zero tolerance): the library works over rationals, so
every assertion is an identity, not an approximation.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager

import pytest

from quasicirc import (
    LinearMap,
    NoResonantConjugacy,
    Polynomial,
    PolyMap,
    WeightVector,
    check_sigma_jacobian_structure,
    compose_sigma,
    conjugate,
    invert_sigma,
    is_block_diagonal,
    make_sigma,
    block_partition,
    parse_poly_map,
    quasi_resonance_estimate,
    random_block_diagonal_map,
    random_linear_map,
    random_sigma,
    resonance_profile,
    resonance_set,
    solve_conjugacy,
    tensor_block_pattern,
    unit_index,
)
from oracles import WEIGHT_SET, all_weight_tuples, box_resonance_set


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_resonance_oracle_equivalence():
    with criterion(1, "resonance oracle equivalence, n<=4, entries<=8"):
        start = time.monotonic()
        vectors = all_weight_tuples(4, 8)
        assert len(vectors) > 200  # "a few hundred" candidates
        for m in vectors:
            w = WeightVector(m)
            for i in range(1, w.n + 1):
                computed = resonance_set(w, i)
                assert set(computed) == box_resonance_set(m, i)
                assert max(sum(alpha) for alpha in computed) <= m[i - 1]
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"


def test_criterion_2_golden_resonance_fixtures():
    with criterion(2, "golden resonance fixtures"):
        w = WeightVector((1, 2))
        assert resonance_profile(w).order == 2
        assert set(resonance_set(w, 2)) == {(0, 1), (2, 0)}
        w = WeightVector((1, 2, 3))
        assert resonance_profile(w).order == 3
        assert set(resonance_set(w, 3)) == {(0, 0, 1), (1, 1, 0), (3, 0, 0)}
        assert resonance_profile(WeightVector((2, 3))).order == 1


def test_criterion_3_inversion_round_trip():
    with criterion(3, "inversion round trip, 100 random maps per vector"):
        start = time.monotonic()
        for index, m in enumerate(WEIGHT_SET):
            w = WeightVector(m)
            for k in range(100):
                sigma = random_sigma(w, 7919 * index + k)
                tau = invert_sigma(sigma)
                assert compose_sigma(tau, sigma).is_identity()
                assert invert_sigma(tau) == sigma
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"


def test_criterion_4_theorem_forward_direction():
    with criterion(4, "degree bound under block-diagonal linear parts"):
        for index, m in enumerate(WEIGHT_SET):
            w = WeightVector(m)
            mu = resonance_profile(w).order
            for k in range(200):
                sigma = random_sigma(w, 104729 * index + 2 * k)
                linear = random_block_diagonal_map(w, 104729 * index + 2 * k + 1)
                result = conjugate(sigma, linear)
                assert result.total_degree() <= mu
                for i in range(1, w.n + 1):
                    assert result.components[i - 1].is_i_resonant(w, i)


def test_criterion_5_counterexample_witness():
    with criterion(5, "degree-4 witness for weights (1, 2)"):
        w = WeightVector((1, 2))
        sigma = make_sigma(w, {(2, (2, 0)): 1})
        linear = LinearMap(((1, 1), (0, 1)))
        result = conjugate(sigma, linear)
        assert result.total_degree() == 4
        assert resonance_profile(w).order == 2
        assert not is_block_diagonal(linear, block_partition(w))
        first = Polynomial.variable(2, 1) + Polynomial.variable(2, 2) + Polynomial.variable(2, 1) ** 2
        second = Polynomial.variable(2, 2) + Polynomial.variable(2, 1) ** 2 - first**2
        assert result == PolyMap((first, second))


def test_criterion_6_conjugacy_solver_round_trip():
    with criterion(6, "conjugacy solver round trip, 50 pairs per vector"):
        for index, m in enumerate(WEIGHT_SET):
            w = WeightVector(m)
            for k in range(50):
                sigma = random_sigma(w, 15485863 * index + 2 * k)
                linear = random_linear_map(w.n, 15485863 * index + 2 * k + 1)
                f = conjugate(sigma, linear)
                solution = solve_conjugacy(f, w)
                assert solution.residual_zero
                assert conjugate(solution.sigma, solution.linear) == f
        with pytest.raises(NoResonantConjugacy):
            solve_conjugacy(parse_poly_map("z1\nz2 + z1^3"), WeightVector((1, 2)))


def test_criterion_7_bergman_pattern_duality():
    with criterion(7, "admissibility duality and block vanishing"):
        from quasicirc import admissible_exponents

        for m in all_weight_tuples(4, 8):
            w = WeightVector(m)
            for i in range(1, w.n + 1):
                resonant = set(resonance_set(w, i))
                for j in range(1, w.n + 1):
                    e_j = unit_index(w.n, j)
                    admissible = set(admissible_exponents(w, i, j))
                    shifted = {
                        tuple(a + e for a, e in zip(alpha, e_j)) for alpha in admissible
                    }
                    assert shifted == {beta for beta in resonant if beta[j - 1] >= 1}
            pattern = tensor_block_pattern(w)
            blocks = pattern.partition.block_count
            for p in range(1, blocks + 1):
                for q in range(p, blocks + 1):
                    assert not pattern.may_be_nonzero[p - 1][q - 1]
        for index, m in enumerate(WEIGHT_SET):
            w = WeightVector(m)
            for k in range(20):
                report = check_sigma_jacobian_structure(
                    random_sigma(w, 32452843 * index + k)
                )
                assert report.ok, report.violations


def test_criterion_8_estimator_sanity():
    with criterion(8, "quasi-resonance estimator fixtures"):
        first = quasi_resonance_estimate(WeightVector((1, 2)), trials=32, seed=2026)
        again = quasi_resonance_estimate(WeightVector((1, 2)), trials=32, seed=2026)
        assert first == again  # deterministic under a fixed seed
        assert first.observed_max == 4
        assert first.cap == 4
        assert quasi_resonance_estimate(WeightVector((1, 1, 1)), 32, seed=2026).observed_max == 1
        assert quasi_resonance_estimate(WeightVector((2, 3)), 32, seed=2026).observed_max == 1


def test_criterion_9_cli_determinism(capsys):
    with criterion(9, "CLI golden outputs, byte-identical reruns"):
        from test_cli import ERROR_CASES, GOLDEN, GOLDEN_CASES
        from quasicirc import cli

        def capture(argv):
            code = cli.run(list(argv))
            return code, capsys.readouterr().out

        for golden_name, expected_code, argv in GOLDEN_CASES:
            expected = (GOLDEN / golden_name).read_text(encoding="utf-8")
            first = capture(argv)
            second = capture(argv)
            assert first == second == (expected_code, expected)
        for error_name, argv in ERROR_CASES:
            first = capture(argv)
            second = capture(argv)
            assert first == second
            assert first[0] == 1
            assert f'"{error_name}"' in first[1]
