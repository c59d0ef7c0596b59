"""Exact rational linear algebra: square matrices and linear-system solving.

Everything here takes and returns `fractions.Fraction`s; there are no
tolerances anywhere, and singularity/inconsistency detection is exact.
Both eliminations run on Python ints inside.

Two routines own the package's rational boundary.  `as_fraction` is the way
in: every rational the library accepts passes through it, `--pool` too, and
it rejects a float or a bool (a JSON true or false) with `TypeError`.
`exact_text` is the way out: every writer prints an exact rational through
it, and it turns an integer past `sys.get_int_max_str_digits()` into
`BudgetExceeded`.

`solve_exact` is the one linear solver, and `LinearMap.inverse` solves for
its columns with it.  `LinearMap.determinant` runs Bareiss's fraction-free
elimination (Math. Comp. 22, 1968), the invertibility test before every
conjugation and every sampled matrix, on matrices of size 1 to about 4.
`_integral` clears a vector's denominators and returns their lcm, for the
rows of `solve_exact`, `LinearMap.determinant`, J in the conjugacy line rows
and `PolyMap.from_linear`, the `Polynomial` constructor's terms and the
point of `Polynomial.evaluate`.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded, SingularLinearMap

# the exponent of a decimal string as `Fraction` reads it, e.g. the -1 of 2.5e-1
_EXPONENT = re.compile(r"e([-+]?\d[\d_]*)\s*\Z", re.IGNORECASE)


def as_fraction(value) -> Fraction:
    """Promote an exact rational literal (int, Fraction, or 'p/q' string).

    A Fraction is immutable and already exact, so it is returned as given.
    Floats are rejected: they would silently break the exactness contract.
    So are bools, which `Fraction` would read as 1 and 0.  A string's decimal
    exponent, as in `2.5e-1`, past `sys.get_int_max_str_digits()` in magnitude
    raises ValueError, as `int` does for that power of ten in digits.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"exact rational required, got {type(value).__name__} {value!r}")
    if isinstance(value, str) and (exponent := _EXPONENT.search(value)):
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        if limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"decimal exponent {exponent[1]} exceeds the limit of {limit} digits")
    return Fraction(value)


def exact_text(value) -> str:
    """`str(value)`, or BudgetExceeded past `sys.get_int_max_str_digits()`."""
    try:
        return str(value)
    except ValueError as exc:
        raise BudgetExceeded(f"number too long to print: {exc}") from None


@dataclass(frozen=True)
class LinearMap:
    """An n-by-n matrix of exact rationals, acting on column vectors."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(as_fraction(x) for x in row) for row in self.rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    def entry(self, i: int, j: int) -> Fraction:
        """Entry in row i, column j (1-based)."""
        return self.rows[i - 1][j - 1]

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        if self.n != other.n:
            raise ValueError("matrix sizes differ")
        n = self.n
        return LinearMap(
            tuple(
                tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            )
        )

    def determinant(self) -> Fraction:
        """Bareiss elimination on the rows, each scaled by the lcm of its denominators."""
        rows, dens = map(list, zip(*map(_integral, self.rows)))
        sign, prev = 1, 1
        while len(rows) > 1:
            # pivot on the first nonzero leading entry, then drop its row and column
            k = next((k for k, r in enumerate(rows) if r[0]), None)
            if k is None:
                return Fraction(0)
            if k:
                rows[0], rows[k], sign = rows[k], rows[0], -sign
            (p, *pivot), *rest = rows
            rows = [[(p * x - r[0] * y) // prev for x, y in zip(r[1:], pivot)] for r in rest]
            prev = p
        return Fraction(sign * rows[0][0], prod(dens))

    def inverse(self) -> "LinearMap":
        """The inverse matrix; column j solves A x = e_j with `solve_exact`.

        Raises SingularLinearMap when a solve is inconsistent or leaves a
        free variable, which happens exactly when the matrix is singular.
        """
        n = self.n
        columns = []
        for j in range(n):
            solved = solve_exact(self.rows, [Fraction(int(i == j)) for i in range(n)], n)
            if solved is None or solved[1]:
                raise SingularLinearMap("matrix is singular")
            columns.append(solved[0])
        return LinearMap(tuple(zip(*columns)))

    def to_string_rows(self) -> list:
        """Rows as 'p/q' strings, the wire format used by the CLI."""
        return [[exact_text(x) for x in row] for row in self.rows]

    @classmethod
    def from_string_rows(cls, rows: Iterable[Iterable]) -> "LinearMap":
        return cls(rows)


def solve_exact(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], n_cols: int
) -> Optional[tuple]:
    """Solve A x = b exactly over the rationals (A has n_cols columns).

    Returns (solution, free_count) with every free variable set to zero, or
    None when the system is inconsistent.

    The elimination is fraction-free and runs on Python ints.  Each row
    [A | b] is scaled to a primitive integer vector (content 1, first nonzero
    entry positive), so all-zero rows and exact duplicates, scaled copies
    included, are dropped; a row that is zero on the A side with nonzero b
    means the system is inconsistent.  Pivots are taken in column order.
    Clearing a column from a row takes an integer combination of it and the
    pivot row and divides by its content again, which keeps entries small
    where Bareiss (Math. Comp. 22, 1968) divides by the previous pivot.  The
    pivot column is cleared from every other row, earlier pivot rows
    included, so the result is the reduced row echelon form; that form is
    unique, so the solution and free_count do not depend on which row
    serves as a pivot.
    """
    pending = _distinct(_primitive(_integral([*row, b])[0]) for row, b in zip(rows, rhs))
    if pending is None:
        return None
    pivots = {}  # pivot column -> its row
    for c in range(n_cols):
        candidates = [row for row in pending if row[c]]
        if not candidates:
            continue
        pivot = min(candidates, key=lambda row: abs(row[c]))
        pivots = {col: _eliminate(row, pivot, c) for col, row in pivots.items()}
        pending = _distinct(_eliminate(row, pivot, c) for row in pending if row is not pivot)
        if pending is None:
            return None
        pivots[c] = pivot
    solution = [Fraction(0)] * n_cols
    for c, row in pivots.items():
        solution[c] = Fraction(row[n_cols], row[c])
    return solution, n_cols - len(pivots)


def _eliminate(row: tuple, pivot: tuple, c: int) -> Optional[tuple]:
    """row with column c cleared by the pivot row, primitive; None if it vanishes."""
    if not row[c]:
        return row
    g = gcd(pivot[c], row[c])
    p, q = pivot[c] // g, row[c] // g
    return _primitive([p * x - q * y for x, y in zip(row, pivot)])


def _primitive(vec) -> Optional[tuple]:
    """vec over its content, first nonzero entry positive; None if all zero."""
    g = gcd(*vec)
    if not g:
        return None
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)


def _integral(vec) -> tuple:
    """(integers, lcm): an exact rational vector scaled by the lcm of its denominators.

    With no zero entry, as in the `Polynomial` constructor, the result is
    canonical without a gcd: a prime's top power in the lcm divides some
    denominator, and so not its numerator.  An all-int vector, as a conjugacy
    line row, is returned as a list over 1 at once.
    """
    if all(type(x) is int for x in vec):
        return list(vec), 1
    den = lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec], den


def _distinct(rows) -> Optional[list]:
    """The distinct rows, skipping None (a zero row), in first-seen order.

    Returns None instead when a row is zero on the A side and nonzero in
    its last (b) entry, which makes the system inconsistent.
    """
    out = {}
    for row in rows:
        if row is None:
            continue
        if not any(row[:-1]):
            return None
        out[row] = None
    return list(out)
