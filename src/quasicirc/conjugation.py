"""Conjugation of linear maps by triangular resonant coordinates.

Given sigma = id + g and an invertible linear map L, the conjugate
sigma^{-1} . L . sigma is an origin-fixing polynomial map with linear part
L.  When L is block-diagonal for the weight partition, the conjugate has
total degree at most the resonance order and each component is resonant;
when L mixes blocks, the degree can exceed the bound, and `find_violation`
searches for an explicit witness, reading each trial's degree along one line
first (`_line_degree`).  The block structure also picks the
route: a block-diagonal conjugate is built from sigma . f = L . sigma one
component at a time, by the recursion `resonant._unwind`, while a mixing L
takes (tau . L) . sigma with tau = sigma^{-1}, one lazy shift, because
there the recursion swells (see `_conjugate`); both apply sigma one shift
z_j -> z_j + g_j at a time.  `solve_conjugacy` goes the other way: it
recovers (sigma, J) with sigma . f = J . sigma from f alone by solving an
exact linear system for the finitely many admissible coefficients of g.

The solve first applies the paper's bound.  When J is block-diagonal,
every conjugate has m_i-homogeneous components, so a map with a component
that is not i-resonant is rejected before any line; when J mixes blocks,
only a map above degree mu^2 is.  As sigma and J . sigma have degree at
most the resonance order mu, the equations of degree at most mu leave at
most J's free count and fix sigma whenever one exists.  They are taken on
fixed lines t p through the origin, reading only f's terms of degree at
most mu, one line more at a time while more unknowns stay free than in J's
own system g . J = J . g, the one coefficient system built.  Then an
inconsistent line system proves that no sigma exists, and its solution
with the free unknowns zero is the candidate that one exact conjugation
accepts or rejects; that residual serves a mixing J and faults above mu.
Generic lines lose no rank (Schwartz, J. ACM 27(4), 1980; Zippel,
EUROSAM 1979).
"""

from __future__ import annotations

import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, tee
from math import prod
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
from .poly import Polynomial, PolyMap, _line_powers, _series_at
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
from .weights import BlockPartition, WeightVector, block_partition, resonance_order


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
    return _mixing(sigma, linear, _inverse_part(sigma))


def _mixing(sigma: TriangularResonantMap, linear: LinearMap, h: tuple) -> PolyMap:
    """The mixing route of `_conjugate`, (tau . L) . sigma, given tau = id + h."""
    l_map = PolyMap.from_linear(linear)
    h_l = PolyMap(h).compose(l_map)
    return PolyMap([l_i + h_i for l_i, h_i in zip(l_map, h_l)])._shift(sigma.g)


def _line_degree(sigma: TriangularResonantMap, linear: LinearMap, h: tuple, cap: int) -> int:
    """deg_t F(tp) for F = sigma^{-1} . L . sigma, tau = id + h, on one line t p.

    The point p is the first of `_line_points`.  The coefficient of t^k in
    F(tp) is F_k(p), the degree-k part of F at p, so deg_t F(tp) <= deg F,
    and F has degree at most cap, mu^2.  With sigma(tp) = t s(t) and
    u = L sigma(tp) = t v(t) / D over a common integer denominator D,
    F(tp) = u + h(u) is, times D^M H_i for M = deg h and H_i the lcm of h_i's
    denominators, the integer series t v_i D^(M - 1) H_i plus
    c D^(M - |beta|) t^|beta| v^beta for each term c z^beta of H_i h_i, with
    v^beta from `_line_powers` cut at t^cap: n univariate series and
    no multivariate product.  sigma must not be the identity.
    """
    point = next(_line_points(sigma.n))
    top = max(g_j.total_degree() for g_j in sigma.g)
    ((series, den),) = _series_at(sigma.g, top, [point])
    s = [[den * x] + g_j[2:] for x, g_j in zip(point, series)]
    l_rows, l_den = _integral([x for row in linear.rows for x in row])
    v = [[sum(map(operator.mul, l_rows[i : i + sigma.n], column)) for column in zip(*s)]
         for i in range(0, len(l_rows), sigma.n)]
    h_terms = [h_i.terms for h_i in h]
    powers = _line_powers(v, [beta for terms in h_terms for beta in terms], cap)
    top_h = max(h_i.total_degree() for h_i in h)
    scales = [(den * l_den) ** k for k in range(top_h + 1)]
    degree = 0
    for v_i, terms in zip(v, h_terms):
        numerators, h_den = _integral(list(terms.values()))
        line = [0] + [c * h_den * scales[top_h - 1] for c in v_i] + [0] * (cap - len(v_i))
        for beta, c in zip(terms, numerators):
            size = sum(beta)
            for k, x in enumerate(powers[beta], start=size):
                line[k] += c * scales[top_h - size] * x
        degree = max([degree] + [k for k, c in enumerate(line) if c])
    return degree


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
    mu = resonance_order(weights)
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

    Each trial first reads its conjugate F along one line t p
    (`_line_degree`).  As deg_t F(tp) <= deg F <= mu^2, a line degree of
    mu^2 proves the trial a witness of degree mu^2 with no conjugate built;
    any other trial builds F, as a line degree above mu proves a witness but
    not its degree.  So the witness and its degree are those of one full
    conjugate per trial, on every input.

    Why the bound holds.  Call a map filtered when its component i has only
    monomials of weighted degree at most m_i.  Filtered maps are closed
    under composition: substituting terms of weighted degree at most m_j
    for z_j keeps a monomial of weighted degree at most m_i there.  sigma
    and tau = sigma^{-1} are filtered, being triangular resonant, and so is
    a block-lower L, with L_ij = 0 whenever m_i < m_j.  So the conjugate of
    a block-lower L is filtered, of degree at most max{|alpha| : m . alpha
    <= m_i} in component i, which is mu_i when m_1 = 1.  A block-diagonal L
    is also block-upper, so the same argument with "at least" bounds every
    monomial from below: component i of its conjugate is m_i-homogeneous,
    i-resonant, of degree at most mu.  `solve_conjugacy` rejects a map that
    is not, under a block-diagonal linear part, before it builds any line.
    """
    found = _violation(weights, linear, trials, seed, pool)
    return None if found is None else found[0]


def _violation(
    weights: WeightVector, linear: LinearMap, trials: int, seed: int, pool: Sequence
) -> Optional[Tuple[TriangularResonantMap, int]]:
    """`find_violation`'s witness and the degree of its conjugate, or None."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_conjugable(weights.n, linear)
    if is_block_diagonal(linear, block_partition(weights)):
        raise BlockDiagonalInput(
            "block-diagonal maps never exceed the resonance order"
        )
    mu = resonance_order(weights)
    for trial in range(trials):
        candidate = random_sigma(weights, _subseed(seed, trial), pool)
        degree = _trial_degree(candidate, linear, mu * mu)
        if degree > mu:
            return candidate, degree
    return None


def _trial_degree(sigma: TriangularResonantMap, linear: LinearMap, cap: int) -> int:
    """deg sigma^{-1} . L . sigma for a mixing L: cap if one line reaches it, else the conjugate's.

    tau = sigma^{-1} is built once, for the line and the conjugate.  An
    identity sigma takes no line: its conjugate is L.
    """
    h = _inverse_part(sigma)
    if not sigma.is_identity() and _line_degree(sigma, linear, h, cap) == cap:
        return cap
    return _mixing(sigma, linear, h).total_degree()


@dataclass(frozen=True)
class QuasiResonanceEstimate:
    """Max conjugate degree observed over a sampled (sigma, L) family.

    observed_max is a lower bound for the true maximal degree; cap is the
    a-priori upper bound mu^2 (degree of the inverse times degree of the
    map, both at most the resonance order); trials is the number asked for.

    Once observed_max reaches the cap no trial can raise it, so the sampling
    stops there, and one line t p proves it whenever a mixing conjugate's
    degree along it is mu^2 (`_line_degree`).  Every other trial builds its
    conjugate, so observed_max is that of one conjugate per trial.  The
    stop skips the later trials' matrix draws: the result can differ only
    where a skipped trial would have drawn MATRIX_DRAWS singular matrices in
    a row and raised SingularLinearMap.
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
    """Estimate the maximal conjugate degree by seeded random sampling, up to the cap."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    cap = resonance_order(weights) ** 2
    partition = block_partition(weights)
    observed = 0
    for trial in range(trials):
        sigma = random_sigma(weights, _subseed(seed, 2 * trial), pool)
        linear = random_linear_map(weights.n, _subseed(seed, 2 * trial + 1), pool)
        if is_block_diagonal(linear, partition):
            degree = _conjugate(sigma, linear, block_diagonal=True).total_degree()
        else:
            degree = _trial_degree(sigma, linear, cap)
        observed = max(observed, degree)
        if observed == cap:  # no later trial can raise it
            break
    return QuasiResonanceEstimate(observed_max=observed, cap=cap, trials=trials)


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
    so the equation is an exact linear system.

    The paper's bound comes first, and rejects a map before any line.  For
    a block-diagonal J every conjugate sigma^{-1} . J . sigma has component
    i m_i-homogeneous (i-resonant; see `find_violation`), so a map with a
    component that is not is rejected.  For a mixing J, sigma and its
    inverse are triangular resonant, of total degree at most the resonance
    order mu (`weights.resonance_order`), so every conjugate has degree at
    most mu^2, and a map of higher degree is rejected.  Either check is
    necessary, so every solvable map passes it.

    Otherwise the system is taken on lines t p through the origin, as the
    coefficients of t^2, ..., t^mu: enough lines for each component's
    unknowns (`_line_count`), then one more at a time while more unknowns
    are free than in J's own system g . J = J . g (`_coefficient_system`).
    J . sigma has degree at most mu, so the coefficient rows of degree at
    most mu, which match sigma . f and J . sigma monomial by monomial, are
    some of all the coefficient rows, and each line row combines them.  An
    unknown of degree d first appears at degree d, through the lowest part
    (J z)^alpha of f^alpha as in J's system, so degree by degree those rows
    leave at most J's free count.  If sigma_0 solves f, psi -> psi . sigma_0
    is a polynomial bijection, with polynomial inverse, from the solutions
    for J onto those for f, so all the rows leave exactly J's free count.
    Once the counts agree, the line and full systems share their solutions
    and reduced row echelon form, and:

    - an inconsistent line system means NoResonantConjugacy;
    - otherwise sigma, the free unknowns zero, is the candidate.  The exact
      residual conjugate(sigma, J) == f, equivalent to sigma . f == J . sigma
      because sigma is invertible, accepts it or proves NoResonantConjugacy;
      it alone reads f's terms above degree mu, so it serves a mixing J and
      a fault above mu.

    Generic lines lose no rank, but fixed ones can: if K + 1 lines past
    `_line_count`, for K unknowns, still leave more free than J's count,
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
    mu = resonance_order(weights)
    block_diagonal = is_block_diagonal(j_matrix, block_partition(weights))
    if block_diagonal:
        admissible = all(part.is_i_resonant(weights, i) for i, part in enumerate(f.components, 1))
    else:
        admissible = f.total_degree() <= mu**2
    if not admissible:
        raise NoResonantConjugacy(_NO_SIGMA)
    lines = _line_rows(f, j_matrix, unknowns, mu)
    rows: List[List[int]] = []
    rhs: List[int] = []
    commutant = None
    # the `_line_count` lines, then one line at a time, at most K + 1 more
    for extra in range(len(unknowns) + 2):
        for line_rows, line_rhs in islice(lines, 1 if extra else _line_count(j_matrix, unknowns, mu)):
            rows += line_rows
            rhs += line_rhs
        solved = solve_exact(rows, rhs, len(unknowns))
        if solved is None:
            raise NoResonantConjugacy(_NO_SIGMA)
        if solved[1] and commutant is None:
            commutant = _coefficient_system(j_matrix, unknowns)
        if not solved[1] or solved[1] <= commutant:
            break
    else:
        raise BudgetExceeded(f"{len(unknowns) + 1} more lines left more free than J's system")
    solution, free_count = solved
    sigma = make_sigma(weights, {key: value for key, value in zip(unknowns, solution) if value})
    if _conjugate(sigma, j_matrix, block_diagonal) != f:
        raise NoResonantConjugacy(
            "the only candidate map does not conjugate this map to its linear part"
        )
    return ConjugacySolution(sigma, j_matrix, residual_zero=True, free_parameters=free_count)


def _line_rows(f: PolyMap, j_matrix: LinearMap, unknowns: list, top: int) -> Iterator[tuple]:
    """Rows and right-hand sides of sigma . f = J . sigma, n (top - 1) on each line.

    On the line t p, row (i, d), 2 <= d <= top, holds the coefficient of t^d
    in [comp_k == i] f(tp)^alpha_k - J[i][comp_k] (tp)^alpha_k for each
    unknown (comp_k, alpha_k), with right-hand side -[t^d] f_i(tp), as
    (J tp)_i is linear in t.  The points p are those of `_line_points`.
    `_series_at` reads f's terms of degree at most top once per solve, and
    gives f(tp) as integer series over den, the lcm of f's denominators.
    Each f_j(tp) is t u_j(t), so f(tp)^alpha is t^|alpha| u^alpha /
    den^|alpha|, with u^alpha needed only up to t^(top - |alpha|), which
    `_line_powers` gives for every unknown from powers built once.  Row
    (i, d) here is the row above times d_i den^top, for the lcm d_i of the
    denominators in row i of J: a positive multiple, which `solve_exact`
    scales to the same primitive row.
    """
    n, degrees = f.n, [sum(alpha) for _, alpha in unknowns]
    j_rows = [_integral(row) for row in j_matrix.rows]
    points, stream = tee(_line_points(n))
    for point, (series, den) in zip(points, _series_at(f.components, top, stream)):
        powers = _line_powers([s[1:] for s in series], [alpha for _, alpha in unknowns], top)
        images = [[0] * size + [den ** (top - size) * c for c in powers[alpha]]
                  for (_, alpha), size in zip(unknowns, degrees)]
        plain = [den**top * prod(map(pow, point, alpha)) for _, alpha in unknowns]
        rows = [
            [(j_den * image[d] if comp == i else 0) - (j_row[comp - 1] * p if size == d else 0)
             for (comp, _), image, p, size in zip(unknowns, images, plain, degrees)]
            for i, (j_row, j_den) in enumerate(j_rows, start=1) for d in range(2, top + 1)
        ]
        yield rows, [-j_den * den ** (top - 1) * s[d] for (_, j_den), s in zip(j_rows, series)
                     for d in range(2, top + 1)]


def _line_points(n: int) -> Iterator[list]:
    """The lines' points, the same for every solve: a seeded stream in [-1000, 1000]^n."""
    rng = random.Random(12345)
    while True:
        yield [rng.randint(-1000, 1000) for _ in range(n)]


def _line_count(j_matrix: LinearMap, unknowns: list, top: int) -> int:
    """Lines enough for each component's unknowns, at least one.

    On a line, an unknown (c, alpha) appears only in rows of degree at least
    |alpha|: in row (c, d), and in each other row as J[i][c] times one number
    at d = |alpha|.  So c's K_c(d) unknowns of degree at least d fill
    r_c (top - d + 1) rows a line, r_c = 1 when column c of J is zero off the
    diagonal and 2 otherwise, and need ceil(K_c(d) / (r_c (top - d + 1)))
    lines.  No line is added to check consistency: a unique candidate still
    has to pass the exact residual.
    """
    rows = j_matrix.rows
    spans = [1 + any(row[c] for i, row in enumerate(rows) if i != c) for c in range(len(rows))]
    needs = Counter((comp, d) for comp, alpha in unknowns for d in range(2, sum(alpha) + 1))
    return max([1, *(-(-k // (spans[comp - 1] * (top - d + 1))) for (comp, d), k in needs.items())])


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
