"""Exact resonance combinatorics and triangular polynomial automorphisms
for quasi-circular weight vectors.

Everything is computed over exact rationals; there is no floating point
anywhere in the library.
"""

from .bergman import (
    AdmissibilityPattern,
    BlockPattern,
    JacobianStructureReport,
    admissibility_pattern,
    admissible_exponents,
    check_sigma_jacobian_structure,
    tensor_block_pattern,
)
from .conjugation import (
    ConjugacySolution,
    ConjugationReport,
    QuasiResonanceEstimate,
    check_theorem_instance,
    conjugate,
    find_violation,
    is_block_diagonal,
    quasi_resonance_estimate,
    random_block_diagonal_map,
    random_linear_map,
    solve_conjugacy,
)
from .errors import (
    BlockDiagonalInput,
    BudgetExceeded,
    DimensionMismatch,
    DoesNotFixOrigin,
    EmptyPool,
    IndexOutOfRange,
    NoResonantConjugacy,
    NonPositiveWeight,
    NotCoprime,
    NotNonlinear,
    NotResonant,
    ParseError,
    QuasicircError,
    SingularLinearMap,
    SingularLinearPart,
    Unsorted,
    WeightMismatch,
)
from .linalg import LinearMap, solve_exact
from .poly import (
    Polynomial,
    PolyMap,
    format_poly_map,
    format_polynomial,
    parse_poly_map,
    parse_polynomial,
)
from .resonant import (
    DEFAULT_POOL,
    TriangularResonantMap,
    compose_sigma,
    identity_sigma,
    invert_sigma,
    make_sigma,
    nonlinear_resonant_monomials,
    random_sigma,
)
from .weights import (
    BlockPartition,
    MultiIndex,
    ResonanceProfile,
    WeightVector,
    block_partition,
    canonicalize_weights,
    component_order,
    resonance_order,
    resonance_profile,
    resonance_set,
    unit_index,
    weighted_degree,
    weighted_exponents,
)

__version__ = "0.1.0"
