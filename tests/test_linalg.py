"""solve_exact against sympy's exact RREF and an exact check that A x = b,
LinearMap.inverse, which solves for its columns with it, against sympy's inv,
and LinearMap.determinant against sympy's det.

sympy is only a test-time reference; the library itself stays stdlib-only.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasicirc import (
    BudgetExceeded,
    LinearMap,
    SingularLinearMap,
    random_linear_map,
    solve_exact,
)
from quasicirc.linalg import as_fraction, exact_text


def rref_reference(rows, rhs, n_cols):
    """(solution with free variables zero, free count) from sympy, or None."""
    sympy = pytest.importorskip("sympy")
    if not rows:
        return [Fraction(0)] * n_cols, n_cols
    augmented = sympy.Matrix(
        [[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator) for x in [*row, b]]
         for row, b in zip(rows, rhs)]
    )
    reduced, pivots = augmented.rref()
    if n_cols in pivots:
        return None
    solution = [Fraction(0)] * n_cols
    for i, col in enumerate(pivots):
        value = reduced[i, n_cols]
        solution[col] = Fraction(int(value.p), int(value.q))
    return solution, n_cols - len(pivots)


def check_against_reference(rows, rhs, n_cols):
    result = solve_exact(rows, rhs, n_cols)
    assert result == rref_reference(rows, rhs, n_cols)
    if result is not None:
        solution, _ = result
        assert all(type(x) is Fraction for x in solution)
        for row, b in zip(rows, rhs):
            assert sum(a * x for a, x in zip(row, solution)) == b
    return result


def F(*values):
    return [Fraction(v) for v in values]


def test_unique_solution():
    result = check_against_reference([F(2, 1), F(1, -3)], F(3, "1/2"), 2)
    assert result == (F("19/14", "2/7"), 0)


def test_inconsistent_system():
    assert check_against_reference([F(1, 1), F(2, 2)], F(1, 3), 2) is None


def test_zero_row_with_nonzero_rhs_is_inconsistent():
    assert check_against_reference([F(1, 0), F(0, 0)], F(1, 1), 2) is None


def test_all_zero_system():
    assert check_against_reference([F(0, 0, 0)] * 3, F(0, 0, 0), 3) == (F(0, 0, 0), 3)


def test_no_rows():
    assert solve_exact([], [], 3) == (F(0, 0, 0), 3)


def test_duplicated_and_scaled_rows():
    rows = [F(1, 2), F(1, 2), F("1/2", 1), F(-1, -2), F(3, 6)]
    rhs = F(3, 3, "3/2", -3, 9)
    assert check_against_reference(rows, rhs, 2) == (F(3, 0), 1)


def test_rank_deficient_with_free_columns():
    rows = [F(0, 1, 2, 0, 1), F(0, 2, 4, 1, 3), F(0, 1, 2, 1, 2), F("1/3", 0, 0, 0, 0)]
    rhs = F(1, 3, 2, "2/3")
    result = check_against_reference(rows, rhs, 5)
    assert result[1] == 2


def test_large_entries():
    rows = [F(10**30 + 1, 3, "7/11"), F(2, 10**25, 5), F("1/99991", 4, 10**20)]
    check_against_reference(rows, F(1, 2, 3), 3)


entries = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=6)
)


@st.composite
def systems(draw):
    """Rows built from a few base rows (rank deficiency, exact and scaled
    duplicates, zero rows) with a consistent or an arbitrary right side."""
    n_cols = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(entries, min_size=n_cols, max_size=n_cols), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        i, j = draw(st.integers(0, len(base) - 1)), draw(st.integers(0, len(base) - 1))
        a, b = draw(entries), draw(entries)
        rows.append([a * x + b * y for x, y in zip(base[i], base[j])])
        if rows and draw(st.booleans()):
            rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        point = draw(st.lists(entries, min_size=n_cols, max_size=n_cols))
        rhs = [sum(a * x for a, x in zip(row, point)) for row in rows]
    else:
        rhs = [draw(entries) for _ in rows]
    return rows, rhs, n_cols


@settings(max_examples=200, deadline=None)
@given(systems())
def test_matches_sympy_rref(system):
    check_against_reference(*system)


# LinearMap.inverse


def to_fractions(matrix):
    return tuple(
        tuple(Fraction(int(matrix[i, j].p), int(matrix[i, j].q)) for j in range(matrix.cols))
        for i in range(matrix.rows)
    )


#: a pool with 0 in it, so that drawn matrices have zero entries
INVERSE_POOL = (-2, -1, 0, "1/2", 1, 3)


@pytest.mark.parametrize("n", range(1, 6))
def test_inverse_is_two_sided(n):
    for seed in range(6):
        a = random_linear_map(n, seed, INVERSE_POOL)
        assert a.inverse() @ a == LinearMap.identity(n)
        assert a @ a.inverse() == LinearMap.identity(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_inverse_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    for seed in range(6):
        a = random_linear_map(n, seed, INVERSE_POOL)
        reference = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a.rows]
        ).inv()
        assert a.inverse().rows == to_fractions(reference)


@pytest.mark.parametrize(
    "rows",
    [
        ((1, 2, 3), (0, 0, 0), (4, 5, 6)),  # a zero row
        ((1, 2, 3), (4, 5, 6), (5, 7, 9)),  # row 3 = row 1 + row 2
        (("1/2", 1), (1, 2)),  # row 2 = 2 * row 1
        ((0,),),
    ],
    ids=["zero_row", "sum_of_rows", "scaled_row", "zero_1x1"],
)
def test_inverse_of_singular_matrix_raises(rows):
    with pytest.raises(SingularLinearMap):
        LinearMap(rows).inverse()


# LinearMap.determinant


def check_determinant(rows):
    sympy = pytest.importorskip("sympy")
    matrix = LinearMap(rows)
    reference = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in matrix.rows]
    ).det()
    det = matrix.determinant()
    assert type(det) is Fraction
    assert det == Fraction(int(reference.p), int(reference.q))
    return det


#: few distinct values, zero weighted up, so that draws repeat: singular
#: matrices and zero leading pivots that force a row swap are common
det_entries = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-2, 3)]),
)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    return [draw(st.lists(det_entries, min_size=n, max_size=n)) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_determinant_matches_sympy(rows):
    check_determinant(rows)


@pytest.mark.parametrize(
    "rows, det",
    [
        (((0, 1, 2), (0, 3, 4), (0, 5, 6)), 0),
        (((0, 1), (1, 0)), -1),
        (((1, 1, 0), (1, 1, 1), (0, 1, 1)), -1),
        ((("1/2", "1/3"), ("1/5", "1/7")), Fraction(1, 14) - Fraction(1, 15)),
        ((("-3/4",),), Fraction(-3, 4)),
        (((0,),), 0),
    ],
    ids=["zero_first_column", "swap_2x2", "swap_in_second_step", "row_denominators",
         "1x1", "zero_1x1"],
)
def test_determinant_directed_cases(rows, det):
    assert check_determinant(rows) == det


# as_fraction


def test_as_fraction_returns_a_fraction_as_given():
    x = Fraction(-3, 4)
    assert as_fraction(x) is x


def test_as_fraction_makes_a_fraction_subclass_plain():
    class Tagged(Fraction):
        pass

    x = as_fraction(Tagged(3, 4))
    assert type(x) is Fraction and x == Fraction(3, 4)
    assert all(type(v) is Fraction for row in LinearMap(((Tagged(1, 2),),)).rows for v in row)


@pytest.mark.parametrize("value", [0.5, 1.0, float("nan")])
def test_as_fraction_rejects_floats(value):
    with pytest.raises(TypeError):
        as_fraction(value)


@pytest.mark.parametrize("value", [True, False])
def test_as_fraction_rejects_bools(value):
    # a JSON true or false, which Fraction would read as 1 or 0
    with pytest.raises(TypeError, match="bool"):
        as_fraction(value)


def test_as_fraction_reads_decimal_exponents_up_to_the_digit_limit(int_string_limit):
    assert as_fraction("1e3") == 1000
    assert as_fraction("2.5e-1") == Fraction(1, 4)
    assert as_fraction(f"1e{int_string_limit}") == 10**int_string_limit
    # past the limit the power of ten is never built, as int() never reads
    # the same value written out in digits
    for text in ("1e999999999", "1e-999999999", f"1E+{int_string_limit + 1}"):
        with pytest.raises(ValueError, match="exponent"):
            as_fraction(text)


def test_exact_text_names_the_budget_error(int_string_limit):
    edge = 10 ** (int_string_limit - 1)  # the longest that still prints
    assert exact_text(Fraction(-edge, 3)) == f"-{edge}/3"
    with pytest.raises(BudgetExceeded):
        exact_text(10 ** int_string_limit)
    with pytest.raises(BudgetExceeded):
        exact_text(Fraction(1, 10 ** int_string_limit))
