"""Conjugation of linear maps by triangular resonant coordinates.

Given sigma = id + g and an invertible linear map L, the conjugate
sigma^{-1} . L . sigma is an origin-fixing polynomial map with linear part
L.  When L is block-diagonal for the weight partition, the conjugate has
total degree at most the resonance order and each component is resonant;
when L mixes blocks, the degree can exceed the bound, and `find_violation`
searches for an explicit witness.  The block structure also picks the
route: a block-diagonal conjugate is built from sigma . f = L . sigma one
component at a time, by the recursion `resonant._unwind`, while a mixing L
takes (tau . L) . sigma with tau = sigma^{-1}, one lazy shift, because
there the recursion swells (see `_conjugate`); both apply sigma one shift
z_j -> z_j + g_j at a time.  `solve_conjugacy` goes the other way: it
recovers (sigma, J) with sigma . f = J . sigma from f alone by solving an
exact linear system for the finitely many admissible coefficients of g.

A map above the degree any conjugate can reach is rejected at once.
Otherwise the system is first taken at a few fixed integer points, enough
for each diagonal block of J, where it has about as many rows as unknowns.
Each point row is a linear combination of the rows that match coefficients
monomial by monomial, so an inconsistent point system proves that no sigma
exists, and a unique point solution is the only candidate, which one exact
conjugation accepts or rejects.  Points that leave a direction unseen (a
free parameter, or unlucky points) send the solve to the full coefficient
system, whose free count is exact; see Schwartz, J. ACM 27(4), 1980, and
Zippel, EUROSAM 1979, on why generic points lose no rank.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    BlockDiagonalInput,
    DimensionMismatch,
    NoResonantConjugacy,
    SingularLinearMap,
    SingularLinearPart,
    WeightMismatch,
)
from .linalg import LinearMap, solve_exact
from .poly import Polynomial, PolyMap, _evaluate_at
from .resonant import (
    DEFAULT_POOL,
    TriangularResonantMap,
    _unwind,
    invert_sigma,
    make_sigma,
    nonlinear_resonant_monomials,
    pool_choices,
    random_sigma,
)
from .weights import BlockPartition, WeightVector, block_partition, resonance_set


def _subseed(seed: int, index: int) -> int:
    # per-trial seed, a pure function of (seed, index) so trial streams are
    # prefix-stable and order-independent
    return (seed * 1_000_003 + index) & ((1 << 63) - 1)


def _resonance_order(weights: WeightVector) -> int:
    """The resonance order mu, read from the sets the weight vector keeps."""
    return max(max(map(sum, resonance_set(weights, i))) for i in range(1, weights.n + 1))


def is_block_diagonal(linear: LinearMap, partition: BlockPartition) -> bool:
    """True iff every entry outside the partition's diagonal blocks is zero."""
    if linear.n != partition.n:
        raise DimensionMismatch(
            f"matrix is {linear.n}x{linear.n}, partition covers {partition.n}"
        )
    blocks = [partition.block_of(i) for i in range(1, linear.n + 1)]
    return not any(
        x for row, p in zip(linear.rows, blocks) for x, q in zip(row, blocks) if p != q
    )


def conjugate(sigma: TriangularResonantMap, linear: LinearMap) -> PolyMap:
    """The exact conjugate sigma^{-1} . L . sigma as a polynomial map.

    A block-diagonal L takes the triangular recursion, any other L the
    shifts of tau . L with tau = sigma^{-1}; see `_conjugate`.
    """
    _check_conjugable(sigma, linear)
    return _conjugate(sigma, linear, is_block_diagonal(linear, block_partition(sigma.weight)))


def _check_conjugable(sigma: TriangularResonantMap, linear: LinearMap) -> None:
    if linear.n != sigma.n:
        raise DimensionMismatch(
            f"matrix is {linear.n}x{linear.n}, map has dimension {sigma.n}"
        )
    if linear.determinant() == 0:
        raise SingularLinearMap("conjugation needs an invertible linear map")


def _conjugate(sigma: TriangularResonantMap, linear: LinearMap, block_diagonal: bool) -> PolyMap:
    """`conjugate` for an invertible L of sigma's dimension, unchecked.

    Two exact routes give the same map.  The conjugate f solves
    sigma . f = L . sigma, that is f + g(f) = L . sigma, so for a
    block-diagonal L it is built component by component by the recursion
    `resonant._unwind`, with L . sigma as its base:

        f_i = (L . sigma)_i - g_i(f_1, ..., f_{i-1}, 0, ..., 0).

    There every f_j has degree at most the resonance order mu, and no
    inverse is built.  A block-mixing L pushes the f_j up to degree mu^2, and
    g_i(f_1, ...) swells before it cancels, so such an L takes
    f = (tau . L) . sigma with tau = sigma^{-1}, built by one lazy shift
    (`invert_sigma`).  Both routes apply sigma = id + g by `PolyMap._shift`,
    z_j -> z_j + g_j in ascending j, exact because g_j reads only
    z_1, ..., z_{j-1}, which no later shift touches.  A shift makes one
    product per component and power of z_j, where substituting L . sigma
    into tau makes one per term of tau: 1.5 to 3 times the term pairs at the
    benchmark's weight vectors.  Best of 3 x 25 rounds on a shared 2-vCPU
    host (sigma seed 3, L seed 4), the recursion took 0.67 and 0.66 times
    the shift route's time at (1,2,6) and (1,2,3,5) for a block-diagonal L,
    and 7.5 and 5.4 times for a mixing one (tau . (L . sigma) 2.2 and 2.4).
    """
    if block_diagonal:
        return PolyMap(_unwind(sigma, PolyMap.from_linear(linear)._shift(sigma.g)))
    tau_l = invert_sigma(sigma).as_poly_map().compose(PolyMap.from_linear(linear))
    return tau_l._shift(sigma.g)


@dataclass(frozen=True)
class ConjugationReport:
    """Everything the degree-bound check learns about one conjugation."""

    result: PolyMap
    degree: int
    resonance_order: int
    within_bound: bool
    block_diagonal: bool
    component_resonant: tuple


def check_theorem_instance(
    weights: WeightVector, sigma: TriangularResonantMap, linear: LinearMap
) -> ConjugationReport:
    """Conjugate and report degree, block structure, and component resonance.

    A block-diagonal linear map always produces within_bound=True with every
    component resonant; a non-block map may or may not exceed the bound.
    """
    if sigma.weight != weights:
        raise WeightMismatch(
            f"weight vectors differ: {weights.m} vs {sigma.weight.m}"
        )
    _check_conjugable(sigma, linear)
    block_diagonal = is_block_diagonal(linear, block_partition(weights))
    result = _conjugate(sigma, linear, block_diagonal)
    mu = _resonance_order(weights)
    degree = result.total_degree()
    flags = tuple(
        result.components[i - 1].is_i_resonant(weights, i)
        for i in range(1, weights.n + 1)
    )
    return ConjugationReport(
        result=result,
        degree=degree,
        resonance_order=mu,
        within_bound=degree <= mu,
        block_diagonal=block_diagonal,
        component_resonant=flags,
    )


def find_violation(
    weights: WeightVector,
    linear: LinearMap,
    trials: int,
    seed: int,
    pool: Sequence = DEFAULT_POOL,
) -> Optional[TriangularResonantMap]:
    """Search for sigma whose conjugate with L exceeds the resonance order.

    Only meaningful for non-block-diagonal L (for block-diagonal input the
    bound always holds, so the call is rejected).  Returns the first witness
    in a deterministic seeded stream, or None after the trial budget; absence
    of a witness is not a proof that none exists.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if linear.n != weights.n:
        raise DimensionMismatch(
            f"matrix is {linear.n}x{linear.n}, weights have dimension {weights.n}"
        )
    if linear.determinant() == 0:
        raise SingularLinearMap("violation search needs an invertible linear map")
    if is_block_diagonal(linear, block_partition(weights)):
        raise BlockDiagonalInput(
            "block-diagonal maps never exceed the resonance order"
        )
    mu = _resonance_order(weights)
    for trial in range(trials):
        candidate = random_sigma(weights, _subseed(seed, trial), pool)
        if _conjugate(candidate, linear, block_diagonal=False).total_degree() > mu:
            return candidate
    return None


@dataclass(frozen=True)
class QuasiResonanceEstimate:
    """Max conjugate degree observed over a sampled (sigma, L) family.

    observed_max is a lower bound for the true maximal degree; cap is the
    a-priori upper bound mu^2 (degree of the inverse times degree of the
    map, both at most the resonance order).
    """

    observed_max: int
    cap: int
    trials: int


def quasi_resonance_estimate(
    weights: WeightVector,
    trials: int,
    seed: int,
    pool: Sequence = DEFAULT_POOL,
) -> QuasiResonanceEstimate:
    """Estimate the maximal conjugate degree by seeded random sampling."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    mu = _resonance_order(weights)
    partition = block_partition(weights)
    observed = 0
    for trial in range(trials):
        sigma = random_sigma(weights, _subseed(seed, 2 * trial), pool)
        linear = random_linear_map(weights.n, _subseed(seed, 2 * trial + 1), pool)
        block_diagonal = is_block_diagonal(linear, partition)
        observed = max(observed, _conjugate(sigma, linear, block_diagonal).total_degree())
    return QuasiResonanceEstimate(observed_max=observed, cap=mu * mu, trials=trials)


#: whole-matrix draws a sampler makes before it gives up on the pool
MATRIX_DRAWS = 200


def _draw_invertible(rng: random.Random, size: int, choices: tuple) -> LinearMap:
    """Resample size-by-size matrices from the choices until one is invertible."""
    for _ in range(MATRIX_DRAWS):
        candidate = LinearMap([[rng.choice(choices) for _ in range(size)] for _ in range(size)])
        if candidate.determinant() != 0:
            return candidate
    raise SingularLinearMap(
        f"no invertible {size}x{size} matrix in {MATRIX_DRAWS} draws from the pool"
    )


def random_linear_map(n: int, seed: int, pool: Sequence = DEFAULT_POOL) -> LinearMap:
    """A random invertible n-by-n matrix with entries from the pool.

    Deterministic in (n, seed, pool); resamples whole matrices until the
    determinant is nonzero, and raises SingularLinearMap after MATRIX_DRAWS
    singular draws.
    """
    return _draw_invertible(random.Random(seed), n, pool_choices(pool))


def random_block_diagonal_map(
    weights: WeightVector, seed: int, pool: Sequence = DEFAULT_POOL
) -> LinearMap:
    """A random invertible block-diagonal matrix for the weight partition.

    Each diagonal block is drawn as random_linear_map draws a whole matrix.
    """
    choices = pool_choices(pool)
    rng = random.Random(seed)
    rows = [[Fraction(0)] * weights.n for _ in range(weights.n)]
    for start, end in block_partition(weights).blocks():
        block = _draw_invertible(rng, end - start + 1, choices)
        for row, block_row in zip(rows[start - 1 : end], block.rows):
            row[start - 1 : end] = block_row
    return LinearMap(rows)


@dataclass(frozen=True)
class ConjugacySolution:
    """A linearizing pair: sigma . f = linear . sigma, verified exactly.

    When the underlying linear system is underdetermined, free coefficients
    are set to zero, so sigma is one valid choice among a
    free_parameters-dimensional family.
    """

    sigma: TriangularResonantMap
    linear: LinearMap
    residual_zero: bool
    free_parameters: int


def solve_conjugacy(f: PolyMap, weights: WeightVector) -> ConjugacySolution:
    """Recover (sigma, J) with sigma . f = J . sigma, or prove none exists.

    J is forced to be the linear part of f.  The unknowns are the nonlinear
    resonant coefficients of g (sigma = id + g); both sides of the equation
    are affine in them -- the left through g_i(f), the right through J g --
    so the equation is an exact linear system.  sigma and its inverse are
    triangular resonant, of total degree at most the resonance order mu
    (the largest degree of an unknown monomial, or 1), so every conjugate
    sigma^{-1} . J . sigma has degree at most mu^2, and a map of higher
    degree is rejected at once.  Otherwise the system is solved first at a
    few integer points (see `_point_count`), and one of three things
    follows:

    - the point system is inconsistent: NoResonantConjugacy.  Every point
      row is a linear combination of the coefficient rows (the rows that
      match coefficients monomial by monomial), so those are inconsistent
      too;
    - it has one solution: any solution of the coefficient system solves
      the point system, so this is the only candidate.  The exact residual
      conjugate(sigma, J) == f, equivalent to sigma . f == J . sigma because
      sigma is invertible, accepts it or proves NoResonantConjugacy;
    - it leaves free unknowns: the coefficient system is built and solved,
      which gives the exact free_parameters, with the free ones set to zero.
    """
    if f.n != weights.n:
        raise DimensionMismatch(
            f"map has dimension {f.n}, weights have dimension {weights.n}"
        )
    n = weights.n
    j_matrix = f.linear_part()
    if j_matrix.determinant() == 0:
        raise SingularLinearPart("the linear part of the map is singular")

    unknowns: List[Tuple[int, tuple]] = [
        (i, alpha)
        for i in range(1, n + 1)
        for alpha in nonlinear_resonant_monomials(weights, i)
    ]
    if f.total_degree() > _resonance_order(weights) ** 2:
        raise NoResonantConjugacy(
            "no triangular resonant map conjugates this map to its linear part"
        )
    solved = solve_exact(*_point_system(f, j_matrix, unknowns), len(unknowns))
    unique = solved is not None and not solved[1]
    if solved and solved[1]:
        # unknowns free at these points: only the coefficient system counts
        # the free parameters exactly
        solved = solve_exact(*_coefficient_system(f, j_matrix, unknowns), len(unknowns))
    if solved is None:
        raise NoResonantConjugacy(
            "no triangular resonant map conjugates this map to its linear part"
        )
    solution, free_count = solved
    sigma = make_sigma(
        weights,
        {key: value for key, value in zip(unknowns, solution) if value},
    )
    block_diagonal = is_block_diagonal(j_matrix, block_partition(weights))
    residual_zero = _conjugate(sigma, j_matrix, block_diagonal) == f
    if unique and not residual_zero:
        raise NoResonantConjugacy(
            "the only candidate map does not conjugate this map to its linear part"
        )
    return ConjugacySolution(
        sigma=sigma,
        linear=j_matrix,
        residual_zero=residual_zero,
        free_parameters=free_count,
    )


def _point_system(f: PolyMap, j_matrix: LinearMap, unknowns: list) -> tuple:
    """Rows and right-hand sides of sigma . f = J . sigma at fixed points.

    At a point p, row i holds [comp_k == i] f(p)^alpha_k - J[i][comp_k] p^alpha_k
    for each unknown (comp_k, alpha_k), with right-hand side (J p)_i - f_i(p).
    The points are the same for every solve: a fresh seeded stream of integer
    coordinates in [-1000, 1000].  Each point's f(p), f(p)^alpha_k and J are
    put over one positive denominator, so its rows are that multiple of these
    rows, in integers; `solve_exact` scales every row to a primitive one.
    """
    n = f.n
    monomials = [Polynomial.monomial(n, alpha) for _, alpha in unknowns]
    j_den = lcm(*(x.denominator for row in j_matrix.rows for x in row))
    j_int = [[x.numerator * (j_den // x.denominator) for x in row] for row in j_matrix.rows]
    rng = random.Random(12345)
    rows: List[List[int]] = []
    rhs: List[int] = []
    for _ in range(_point_count(j_matrix, unknowns)):
        point = [rng.randint(-1000, 1000) for _ in range(n)]
        # f_1(p), ..., f_n(p), then the integer p^alpha_k for each unknown
        values = _evaluate_at([*f.components, *monomials], point)
        # f_1(p), ..., f_n(p), then f(p)^alpha_k, as numerators over den
        image = values[:n] + _evaluate_at(monomials, values[:n])
        den = lcm(j_den, *(v.denominator for v in image))
        image = [v.numerator * (den // v.denominator) for v in image]
        for i in range(1, n + 1):
            j_row = [x * (den // j_den) for x in j_int[i - 1]]
            rows.append([
                (value if comp == i else 0) - j_row[comp - 1] * plain.numerator
                for (comp, _), value, plain in zip(unknowns, image[n:], values[n:])
            ])
            rhs.append(sum(map(operator.mul, j_row, point)) - image[i - 1])
    return rows, rhs


def _point_count(j_matrix: LinearMap, unknowns: list) -> int:
    """Points enough for each diagonal block of J: ceil(K_B / |B|) + 1.

    An unknown of component k appears only in the rows of k's block B, so
    the K_B unknowns of B need ceil(K_B / |B|) points to be fixed, and one
    more point checks consistency.  The blocks are the finest contiguous
    ones that J is block-diagonal in.
    """
    rows = j_matrix.rows
    n = len(rows)
    count, start, end = 1, 0, 0
    for i in range(n):
        # the block that holds i reaches the furthest index i is linked to
        end = max(end, i, *(j for j in range(n) if rows[i][j] or rows[j][i]))
        if end == i:
            k = sum(start < comp <= i + 1 for comp, _ in unknowns)
            count = max(count, -(-k // (i + 1 - start)) + 1)
            start = i + 1
    return count


def _coefficient_system(f: PolyMap, j_matrix: LinearMap, unknowns: list) -> tuple:
    """Rows and right-hand sides of sigma . f = J . sigma, one per monomial."""
    n = f.n
    j_poly = PolyMap.from_linear(j_matrix)
    power_cache: Dict = {}
    f_powers = [
        Polynomial.monomial(n, alpha).substitute(f.components, _cache=power_cache)
        for _, alpha in unknowns
    ]
    zero = Polynomial.zero(n)
    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
    absent = Fraction(0)
    # affine expression per component: base_i + sum_k column_k * c_k == 0, where
    # column_k is f^alpha_k (in component comp_k only) minus J[i][comp_k] z^alpha_k
    for i in range(1, n + 1):
        j_row = j_matrix.rows[i - 1]
        col_terms = []
        for (comp, alpha), f_alpha in zip(unknowns, f_powers):
            column = f_alpha if comp == i else zero
            if j_row[comp - 1]:
                column = column + Polynomial.monomial(n, alpha, -j_row[comp - 1])
            col_terms.append(column.terms)
        base = (f.components[i - 1] - j_poly.components[i - 1]).terms
        for beta in sorted(set(base).union(*col_terms)):
            rows.append([terms.get(beta, absent) for terms in col_terms])
            rhs.append(-base.get(beta, absent))
    return rows, rhs
