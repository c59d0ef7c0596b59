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
Otherwise the system is taken only at fixed integer points: enough for each
diagonal block of J and each component's unknowns, about as many rows as
unknowns, and then one more point at a time while they leave more unknowns
free than J's own system g . J = J . g, the one coefficient system built.
Then an inconsistent point system proves that no sigma exists, and the
point solution with its free unknowns zero is the candidate that one exact
conjugation accepts or rejects; see Schwartz, J. ACM 27(4), 1980, and
Zippel, EUROSAM 1979, on why generic points lose no rank.
"""

from __future__ import annotations

import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, tee
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    BlockDiagonalInput,
    BudgetExceeded,
    DimensionMismatch,
    NoResonantConjugacy,
    SingularLinearMap,
    SingularLinearPart,
    WeightMismatch,
)
from .linalg import LinearMap, _integral, solve_exact
from .poly import Polynomial, PolyMap, _evaluate_at, _monomials_at
from .resonant import (
    DEFAULT_POOL,
    TriangularResonantMap,
    _inverse_part,
    _unwind,
    make_sigma,
    nonlinear_resonant_monomials,
    pool_choices,
    random_sigma,
)
from .weights import BlockPartition, WeightVector, block_partition, resonance_profile


def _subseed(seed: int, index: int) -> int:
    # per-trial seed, a pure function of (seed, index) so trial streams are
    # prefix-stable and order-independent
    return (seed * 1_000_003 + index) & ((1 << 63) - 1)


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
    _check_conjugable(sigma.n, linear)
    return _conjugate(sigma, linear, is_block_diagonal(linear, block_partition(sigma.weight)))


def _check_conjugable(n: int, linear: LinearMap) -> None:
    """Reject an L that is not an invertible n-by-n matrix."""
    if linear.n != n:
        raise DimensionMismatch(f"matrix is {linear.n}x{linear.n}, expected dimension {n}")
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
    f = (tau . L) . sigma with tau = sigma^{-1} = id + h, h by one lazy
    shift (`resonant._inverse_part`, with no revalidation), so tau . L is
    L + h . L.  Both routes apply sigma = id + g by `PolyMap._shift`,
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
    l_map = PolyMap.from_linear(linear)
    h_l = PolyMap(_inverse_part(sigma)).compose(l_map)
    return PolyMap([l_i + h_i for l_i, h_i in zip(l_map, h_l)])._shift(sigma.g)


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
    _check_conjugable(weights.n, linear)
    block_diagonal = is_block_diagonal(linear, block_partition(weights))
    result = _conjugate(sigma, linear, block_diagonal)
    mu = resonance_profile(weights).order
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
    _check_conjugable(weights.n, linear)
    if is_block_diagonal(linear, block_partition(weights)):
        raise BlockDiagonalInput(
            "block-diagonal maps never exceed the resonance order"
        )
    mu = resonance_profile(weights).order
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
    mu = resonance_profile(weights).order
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

    residual_zero is true on every returned solution.  The solutions form
    a free_parameters-dimensional family, as many as J's commutant among
    the maps id + g, and sigma is the one with the free coefficients zero.
    """

    sigma: TriangularResonantMap
    linear: LinearMap
    residual_zero: bool
    free_parameters: int


_NO_SIGMA = "no triangular resonant map conjugates this map to its linear part"


def solve_conjugacy(f: PolyMap, weights: WeightVector) -> ConjugacySolution:
    """Recover (sigma, J) with sigma . f = J . sigma, or prove none exists.

    J is forced to be the linear part of f.  The unknowns are the nonlinear
    resonant coefficients of g (sigma = id + g); both sides of the equation
    are affine in them -- the left through g_i(f), the right through J g --
    so the equation is an exact linear system.  sigma and its inverse are
    triangular resonant, of total degree at most the resonance order mu
    (the largest degree of an unknown monomial, or 1), so every conjugate
    sigma^{-1} . J . sigma has degree at most mu^2, and a map of higher
    degree is rejected at once.

    Otherwise the system is taken at integer points: enough for each
    diagonal block of J and each component's unknowns (`_point_count`),
    then one more at a time while more unknowns are free than in J's own
    system g . J = J . g (`_coefficient_system`).  Every point row is a
    linear combination of the coefficient rows, which match sigma . f and
    J . sigma monomial by monomial, so the point solutions contain theirs.
    If sigma_0 solves f, psi -> psi . sigma_0 is a polynomial bijection,
    with polynomial inverse, from the solutions for J onto those for f, so
    the coefficient rows leave J's free count.  Once the counts agree, the
    two systems share their solutions and reduced row echelon form, and:

    - an inconsistent point system means NoResonantConjugacy;
    - otherwise sigma, the free unknowns zero, is the candidate.  The exact
      residual conjugate(sigma, J) == f, equivalent to sigma . f == J . sigma
      because sigma is invertible, accepts it or proves NoResonantConjugacy.

    Generic points lose no rank, but fixed ones can: if K + 1 points past
    `_point_count`, for K unknowns, still leave more free than J's count,
    the solve raises BudgetExceeded.
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
    # every resonance set E_i holds e_i, so this is the resonance order
    mu = max((sum(alpha) for _, alpha in unknowns), default=1)
    if f.total_degree() > mu**2:
        raise NoResonantConjugacy(_NO_SIGMA)
    points = _point_rows(f, j_matrix, unknowns, mu)
    rows: List[List[int]] = []
    rhs: List[int] = []
    commutant = None
    # the `_point_count` points, then one point at a time, at most K + 1 more
    for extra in range(len(unknowns) + 2):
        for point_rows, point_rhs in islice(points, 1 if extra else _point_count(j_matrix, unknowns)):
            rows += point_rows
            rhs += point_rhs
        solved = solve_exact(rows, rhs, len(unknowns))
        if solved is None:
            raise NoResonantConjugacy(_NO_SIGMA)
        if solved[1] and commutant is None:
            commutant = _coefficient_system(j_matrix, unknowns)
        if not solved[1] or solved[1] <= commutant:
            break
    else:
        raise BudgetExceeded(f"{len(unknowns) + 1} more points left more free than J's system")
    solution, free_count = solved
    sigma = make_sigma(weights, {key: value for key, value in zip(unknowns, solution) if value})
    if _conjugate(sigma, j_matrix, is_block_diagonal(j_matrix, block_partition(weights))) != f:
        raise NoResonantConjugacy(
            "the only candidate map does not conjugate this map to its linear part"
        )
    return ConjugacySolution(sigma, j_matrix, residual_zero=True, free_parameters=free_count)


def _point_rows(f: PolyMap, j_matrix: LinearMap, unknowns: list, top: int) -> Iterator[tuple]:
    """Rows and right-hand sides of sigma . f = J . sigma, n at each point.

    At a point p, row i holds [comp_k == i] f(p)^alpha_k - J[i][comp_k] p^alpha_k
    for each unknown (comp_k, alpha_k), with right-hand side (J p)_i - f_i(p).
    The points are the same for every solve: an endless seeded stream of
    integer coordinates in [-1000, 1000].  f's columns and the unknowns'
    are read once per solve, and f(p) comes as integers y over den, the lcm
    of f's denominators.  With top = max |alpha_k| (1 with no unknowns),
    den^top f(p)^alpha_k is y^alpha_k den^(top - |alpha_k|) and den^top f_i(p)
    is den^(top - 1) y_i, so row i here is the row above times d_i den^top,
    for the lcm d_i of the denominators in row i of J: a positive multiple,
    which `solve_exact` scales to the same primitive row, and no Fraction is
    made.
    """
    n, comps = f.n, [comp for comp, _ in unknowns]
    monomials_at = _monomials_at([alpha for _, alpha in unknowns], top)
    j_rows = [_integral(row) for row in j_matrix.rows]
    rng = random.Random(12345)
    points, stream = tee(iter(lambda: [rng.randint(-1000, 1000) for _ in range(n)], None))
    for point, (y, den) in zip(points, _evaluate_at(f.components, stream)):
        plain, image = monomials_at(point, 1), monomials_at(y, den)
        rows: List[List[int]] = []
        rhs: List[int] = []
        for i, ((j_row, j_den), y_i) in enumerate(zip(j_rows, y), start=1):
            j_row = [x * den**top for x in j_row]
            rows.append([
                (j_den * value if comp == i else 0) - j_row[comp - 1] * p_alpha
                for comp, value, p_alpha in zip(comps, image, plain)
            ])
            rhs.append(sum(map(operator.mul, j_row, point)) - j_den * den ** (top - 1) * y_i)
        yield rows, rhs


def _point_count(j_matrix: LinearMap, unknowns: list) -> int:
    """Points enough for each diagonal block of J and for each component.

    An unknown of component c appears only in the rows of c's block B, so
    the K_B unknowns of B need ceil(K_B / |B|) points to be fixed, and one
    more point checks consistency.  The blocks are the finest contiguous
    ones that J is block-diagonal in.  At one point, c's unknowns fill row c
    and, in every other row i, J[i][c] times one vector (p^alpha_k), so they
    span r_c = 1 row when column c of J is zero off the diagonal, 2
    otherwise, and need ceil(K_c / r_c) points.  That term takes no extra
    point: a unique candidate still has to pass the exact residual.
    """
    rows = j_matrix.rows
    n = len(rows)
    per_component = Counter(comp for comp, _ in unknowns)
    count, start, end = 1, 0, 0
    for i in range(n):
        # the block that holds i reaches the furthest index i is linked to
        end = max(end, i, *(j for j in range(n) if rows[i][j] or rows[j][i]))
        spans = 1 + any(rows[j][i] for j in range(n) if j != i)
        count = max(count, -(-per_component[i + 1] // spans))
        if end == i:
            k = sum(per_component[c] for c in range(start + 1, i + 2))
            count = max(count, -(-k // (i + 1 - start)) + 1)
            start = i + 1
    return count


def _coefficient_system(j_matrix: LinearMap, unknowns: list) -> int:
    """The free count of g . J = J . g over the unknowns: J's commutant.

    These are the rows of sigma . f = J . sigma for f = J, one per component
    and monomial, with zero right-hand sides: unknown (comp, alpha) puts
    (J z)^alpha into component comp and -J[i][comp] z^alpha into each
    component i.  J is linear, so nothing is substituted above degree mu.
    """
    n = j_matrix.n
    j_forms = PolyMap.from_linear(j_matrix).components
    power_cache: Dict = {}
    columns = []
    for comp, alpha in unknowns:
        image = Polynomial.monomial(n, alpha).substitute(j_forms, _cache=power_cache)
        column = {(comp, beta): c for beta, c in image.terms.items()}
        for i, row in enumerate(j_matrix.rows, start=1):
            if row[comp - 1]:
                column[i, alpha] = column.get((i, alpha), 0) - row[comp - 1]
        columns.append(column)
    rows = [[column.get(key, 0) for column in columns] for key in set().union(*columns)]
    return solve_exact(rows, [0] * len(rows), len(unknowns))[1]
