import pytest

from quasicirc import (
    IndexOutOfRange,
    Polynomial,
    WeightVector,
    admissibility_pattern,
    admissible_exponents,
    check_sigma_jacobian_structure,
    identity_sigma,
    make_sigma,
    random_sigma,
    resonance_set,
    tensor_block_pattern,
    unit_index,
)
from quasicirc import bergman
from oracles import WEIGHT_SET, box_weighted_exponents


def test_admissible_exponents_examples():
    w = WeightVector((1, 2))
    assert admissible_exponents(w, 2, 1) == ((1, 0),)
    assert admissible_exponents(w, 1, 2) == ()
    assert admissible_exponents(w, 1, 1) == ((0, 0),)
    assert admissible_exponents(w, 2, 2) == ((0, 0),)


def test_admissible_exponents_index_check():
    with pytest.raises(IndexOutOfRange):
        admissible_exponents(WeightVector((1, 2)), 3, 1)
    with pytest.raises(IndexOutOfRange):
        admissible_exponents(WeightVector((1, 2)), 1, 0)


def test_admissible_matches_box_oracle():
    for m in ((1, 2, 3), (1, 1, 2), (2, 3), (1, 2, 6)):
        w = WeightVector(m)
        for i in range(1, w.n + 1):
            for j in range(1, w.n + 1):
                expected = box_weighted_exponents(m, w.m[i - 1] - w.m[j - 1])
                assert set(admissible_exponents(w, i, j)) == expected


def test_duality_with_resonance_sets():
    # alpha admissible at (i, j) iff alpha + e_j is an i-th resonance exponent
    for m in WEIGHT_SET:
        w = WeightVector(m)
        for i in range(1, w.n + 1):
            resonant = set(resonance_set(w, i))
            for j in range(1, w.n + 1):
                e_j = unit_index(w.n, j)
                admissible = set(admissible_exponents(w, i, j))
                shifted = {
                    tuple(a + e for a, e in zip(alpha, e_j)) for alpha in admissible
                }
                assert shifted == {
                    beta for beta in resonant if beta[j - 1] >= 1
                }


def test_pattern_table_shape():
    w = WeightVector((1, 2))
    pattern = admissibility_pattern(w)
    assert pattern.at(2, 1) == ((1, 0),)
    assert pattern.entries[0][1] == ()


def test_block_pattern_examples():
    assert tensor_block_pattern(WeightVector((1, 2))).may_be_nonzero == (
        (False, False),
        (True, False),
    )
    assert tensor_block_pattern(WeightVector((1, 1, 1))).may_be_nonzero == ((False,),)
    assert tensor_block_pattern(WeightVector((1, 2, 2))).may_be_nonzero == (
        (False, False),
        (True, False),
    )


def test_block_pattern_gap_weights():
    # weighted degree 1 is unreachable with weights (2, 3), so even the
    # below-diagonal block stays forbidden
    assert tensor_block_pattern(WeightVector((2, 3))).may_be_nonzero == (
        (False, False),
        (False, False),
    )


def test_block_pattern_strictly_lower():
    for m in WEIGHT_SET:
        pattern = tensor_block_pattern(WeightVector(m))
        blocks = pattern.partition.block_count
        for p in range(1, blocks + 1):
            for q in range(p, blocks + 1):
                assert not pattern.allowed(p, q)


def test_jacobian_structure_quadratic():
    w = WeightVector((1, 2))
    report = check_sigma_jacobian_structure(make_sigma(w, {(2, (2, 0)): 1}))
    assert report.ok
    assert bool(report)
    assert report.violations == ()
    z1 = Polynomial.variable(2, 1)
    assert report.jacobian[1][0] == 2 * z1
    assert report.jacobian[0][0] == Polynomial.constant(2, 1)
    assert report.jacobian[0][1].is_zero()


def test_jacobian_structure_identity():
    w = WeightVector((1, 2, 3))
    report = check_sigma_jacobian_structure(identity_sigma(w))
    assert report.ok
    for i in range(3):
        for j in range(3):
            expected = Polynomial.constant(3, int(i == j))
            assert report.jacobian[i][j] == expected


def test_every_random_sigma_passes():
    for m in WEIGHT_SET:
        w = WeightVector(m)
        for seed in range(10):
            report = check_sigma_jacobian_structure(random_sigma(w, seed))
            assert report.ok, report.violations


def test_jacobian_diagonal_constant_one():
    one = None
    for m in WEIGHT_SET:
        w = WeightVector(m)
        report = check_sigma_jacobian_structure(random_sigma(w, 4))
        one = Polynomial.constant(w.n, 1)
        for i in range(w.n):
            assert report.jacobian[i][i] == one


def test_jacobian_structure_reports_each_violation():
    # g_1 = z2^2 puts 2 z2 at (1, 2), above the block diagonal; g_2 = z1^3
    # puts 3 z1^2 at (2, 1), of weighted degree 2 where m_2 - m_1 = 1
    z1, z2 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    sigma = identity_sigma(WeightVector((1, 2)))
    object.__setattr__(sigma, "g", (z2**2, z1**3))
    report = check_sigma_jacobian_structure(sigma)
    assert not report.ok
    assert report.violations == (
        "entry (1, 2) must vanish on or above the block diagonal",
        "entry (2, 1) carries inadmissible exponent (2, 0)",
    )
    # below the required degree counts too: 2 z1 where m_2 - m_1 = 2
    sigma = identity_sigma(WeightVector((1, 3)))
    object.__setattr__(sigma, "g", (z2 - z2, z1**2))
    assert check_sigma_jacobian_structure(sigma).violations == (
        "entry (2, 1) carries inadmissible exponent (1, 0)",
    )
    # within one block, m_i - m_j = 0: even a constant entry must vanish
    sigma = identity_sigma(WeightVector((1, 1)))
    object.__setattr__(sigma, "g", (z2 - z2, 3 * z1))
    assert check_sigma_jacobian_structure(sigma).violations == (
        "entry (2, 1) must vanish on or above the block diagonal",
    )


def test_jacobian_structure_lists_no_exponents(monkeypatch):
    # admissibility is the weighted degree m_i - m_j, not a listed table
    def listing(*args):
        raise AssertionError("the structure check listed exponents")

    for name in ("admissibility_pattern", "block_partition", "weighted_exponents"):
        monkeypatch.setattr(bergman, name, listing)
    for m in (*WEIGHT_SET, (1, 1, 1, 1, 1, 20)):
        report = check_sigma_jacobian_structure(random_sigma(WeightVector(m), 0))
        assert report.ok, report.violations
