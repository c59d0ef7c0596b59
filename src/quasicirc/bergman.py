"""Support patterns forced on metric-tensor coefficients by the weights.

Only the combinatorics is computed here, never any actual kernel or tensor
value: which exponents may carry a nonzero coefficient at matrix entry
(i, j), which blocks of the nonconstant tensor part may be nonzero at all,
and the matching structure check for the Jacobian of a triangular resonant
map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Polynomial
from .resonant import TriangularResonantMap
from .weights import (
    BlockPartition,
    WeightVector,
    block_partition,
    has_weighted_exponents,
    weighted_degree,
    weighted_exponents,
)


def admissible_exponents(weights: WeightVector, i: int, j: int):
    """Exponents alpha with m . alpha = m_i - m_j, in lexicographic order.

    Equivalently alpha + e_j lies in the i-th resonance set.  Empty when
    m_i < m_j; exactly the zero multi-index when m_i = m_j.
    """
    weights.check_index(i)
    weights.check_index(j)
    return weighted_exponents(weights, weights.m[i - 1] - weights.m[j - 1])


@dataclass(frozen=True)
class AdmissibilityPattern:
    """The full n-by-n table of admissible exponent sets."""

    weight: WeightVector
    entries: tuple

    def at(self, i: int, j: int):
        """Admissible exponents for entry (i, j), 1-based."""
        self.weight.check_index(i)
        self.weight.check_index(j)
        return self.entries[i - 1][j - 1]


def admissibility_pattern(weights: WeightVector) -> AdmissibilityPattern:
    """The table of `admissible_exponents`; equal m_i - m_j share one listing."""
    m = weights.m
    listing = {t: weighted_exponents(weights, t) for t in {a - b for a in m for b in m}}
    table = tuple(tuple(listing[a - b] for b in m) for a in m)
    return AdmissibilityPattern(weight=weights, entries=table)


@dataclass(frozen=True)
class BlockPattern:
    """Which blocks of the nonconstant tensor part may be nonzero.

    Strictly block-lower by construction: may_be_nonzero[p-1][q-1] is False
    whenever p <= q, because the required weighted degree m_i - m_j is then
    nonpositive and admits no nonzero exponent.
    """

    partition: BlockPartition
    may_be_nonzero: tuple


def tensor_block_pattern(weights: WeightVector) -> BlockPattern:
    """Derive the block pattern from admissibility, not from position.

    A block (p, q) is marked only when some entry in it admits a nonzero
    exponent; below the diagonal that can still fail (for example weights
    (2, 3), where weighted degree 1 is unreachable).
    """
    partition = block_partition(weights)
    blocks = partition.blocks()
    flags = []
    for p_start, _ in blocks:
        row = []
        for q_start, _ in blocks:
            target = weights.m[p_start - 1] - weights.m[q_start - 1]
            row.append(target > 0 and has_weighted_exponents(weights, target))
        flags.append(tuple(row))
    return BlockPattern(partition=partition, may_be_nonzero=tuple(flags))


@dataclass(frozen=True)
class JacobianStructureReport:
    """Outcome of the Jacobian structure check, with any violations listed."""

    ok: bool
    violations: tuple
    jacobian: tuple

    def __bool__(self) -> bool:
        return self.ok


def check_sigma_jacobian_structure(sigma: TriangularResonantMap) -> JacobianStructureReport:
    """Check that Jac(sigma) = I + N with N strictly block-lower admissible.

    Diagonal entries must be identically 1; an entry (i, j) with block(i) <=
    block(j), which for sorted weights is m_i <= m_j, must vanish; and every
    exponent alpha of a block-lower entry must be admissible for (i, j),
    which is the weighted degree m . alpha = m_i - m_j, so nothing is
    listed.  A validated map always passes -- a failure indicates an
    internal inconsistency, so callers should treat False as fatal.
    """
    weights = sigma.weight
    n, m = weights.n, weights.m
    sigma_map = sigma.as_poly_map()
    jacobian = tuple(
        tuple(sigma_map.components[i - 1].derivative(j) for j in range(1, n + 1))
        for i in range(1, n + 1)
    )
    one = Polynomial.constant(n, 1)
    violations = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entry = jacobian[i - 1][j - 1]
            if i == j:
                if entry != one:
                    violations.append(f"diagonal entry ({i}, {i}) is not 1")
                continue
            target = m[i - 1] - m[j - 1]
            if target <= 0:
                if not entry.is_zero():
                    violations.append(
                        f"entry ({i}, {j}) must vanish on or above the block diagonal"
                    )
                continue
            for alpha in entry.exponents():
                if weighted_degree(m, alpha) != target:
                    violations.append(
                        f"entry ({i}, {j}) carries inadmissible exponent {alpha}"
                    )
    return JacobianStructureReport(
        ok=not violations, violations=tuple(violations), jacobian=jacobian
    )
