"""Triangular resonant maps and their exact closed-form inversion.

A triangular resonant map for a weight vector m is sigma = id + g where each
nonlinear part g_i is a sum of monomials with exponent alpha in the i-th
resonance set and total degree |alpha| >= 2.  Those two conditions force
every variable appearing in g_i to carry strictly smaller weight than m_i,
which is what makes the closed-form inversion below work: the inverse
id + h is again of the same shape, and h = -g(z + h) is one lazy shift.
The recursion `_unwind` solves u + g(u) = b for any base b; with
b = L . sigma it gives the conjugate by a block-diagonal L.  Any map is
composed with sigma on the right by `PolyMap._shift`, as here in
`compose_sigma`: one shift z_j -> z_j + g_j per variable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    EmptyPool,
    NotNonlinear,
    NotResonant,
    ParseError,
    WeightMismatch,
)
from .linalg import as_fraction, exact_text
from .poly import Polynomial, PolyMap
from .weights import (
    MultiIndex,
    WeightVector,
    resonance_set,
    weighted_degree,
)

#: Coefficient pool used by the random samplers unless the caller overrides it.
DEFAULT_POOL = (
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)


def pool_choices(pool: Sequence) -> tuple:
    """The pool as exact rationals, deduplicated and sorted; rejects an empty pool.

    Every sampler draws from this tuple, so a pool given as a set or with
    repeats samples the same as its sorted distinct values; DEFAULT_POOL's is built at import.
    """
    if pool is DEFAULT_POOL:
        return _DEFAULT_CHOICES
    choices = tuple(sorted({as_fraction(x) for x in pool}))
    if not choices:
        raise EmptyPool("coefficient pool must be nonempty")
    return choices


_DEFAULT_CHOICES = pool_choices(list(DEFAULT_POOL))  # a copy, so it is normalised


def nonlinear_resonant_monomials(weights: WeightVector, i: int) -> Tuple[MultiIndex, ...]:
    """Exponents alpha in the i-th resonance set with |alpha| >= 2, lex order."""
    return tuple(alpha for alpha in resonance_set(weights, i) if sum(alpha) >= 2)


def _validate_part(weights: WeightVector, i: int, alpha: MultiIndex) -> None:
    if len(alpha) != weights.n:
        raise DimensionMismatch(
            f"exponent {alpha} has length {len(alpha)}, expected {weights.n}"
        )
    if weighted_degree(weights.m, alpha) != weights.m[i - 1]:
        raise NotResonant(
            f"exponent {alpha} has weighted degree "
            f"{weighted_degree(weights.m, alpha)}, component {i} needs {weights.m[i - 1]}"
        )
    if sum(alpha) < 2:
        raise NotNonlinear(f"exponent {alpha} has total degree {sum(alpha)} < 2")


@dataclass(frozen=True)
class TriangularResonantMap:
    """sigma = id + g with every g_i built from nonlinear resonant monomials.

    Validation is eager: constructing an instance re-checks every stored
    term, so there is no unchecked path to an invalid map.
    """

    weight: WeightVector
    g: tuple

    def __post_init__(self):
        g = tuple(self.g)
        if len(g) != self.weight.n:
            raise DimensionMismatch(
                f"need {self.weight.n} nonlinear parts, got {len(g)}"
            )
        for i, part in enumerate(g, start=1):
            if part.n != self.weight.n:
                raise DimensionMismatch(
                    f"component {i} lives in {part.n} variables, expected {self.weight.n}"
                )
            for alpha in part.exponents():
                _validate_part(self.weight, i, alpha)
        object.__setattr__(self, "g", g)

    @property
    def n(self) -> int:
        return self.weight.n

    def as_poly_map(self) -> PolyMap:
        n = self.n
        return PolyMap(
            tuple(Polynomial.variable(n, i) + self.g[i - 1] for i in range(1, n + 1))
        )

    def is_identity(self) -> bool:
        return all(part.is_zero() for part in self.g)

    def inverse(self) -> "TriangularResonantMap":
        return invert_sigma(self)

    def compose(self, other: "TriangularResonantMap") -> "TriangularResonantMap":
        return compose_sigma(self, other)

    def coefficients(self) -> Dict:
        """All stored coefficients as a {(i, alpha): Fraction} map."""
        out = {}
        for i, part in enumerate(self.g, start=1):
            for alpha in sorted(part.terms):
                out[(i, alpha)] = part.terms[alpha]
        return out

    def to_json_dict(self) -> dict:
        """Serializable form: exponents comma-joined, coefficients 'p/q'."""
        g_obj = {}
        for i, part in enumerate(self.g, start=1):
            if part.is_zero():
                continue
            g_obj[str(i)] = {
                ",".join(str(a) for a in alpha): exact_text(part.terms[alpha])
                for alpha in sorted(part.terms)
            }
        return {"weights": list(self.weight.m), "g": g_obj}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TriangularResonantMap":
        try:
            weights = WeightVector(data["weights"])
            coeffs = {}
            for key, part in data.get("g", {}).items():
                i = int(key)
                for alpha_text, coeff_text in part.items():
                    alpha = tuple(int(a) for a in alpha_text.split(","))
                    coeffs[(i, alpha)] = as_fraction(coeff_text)
        except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed triangular map object: {exc}") from exc
        return make_sigma(weights, coeffs)

    def __str__(self) -> str:
        return str(self.as_poly_map())


def make_sigma(weights: WeightVector, coeffs: Mapping) -> TriangularResonantMap:
    """Build sigma = id + g from a {(i, alpha): coefficient} map.

    Every supplied exponent must be a nonlinear resonant monomial for its
    component, whatever its coefficient, zero included: an inadmissible
    exponent is malformed input.  Unsupplied coefficients are zero.
    """
    parts = [dict() for _ in range(weights.n)]
    for (i, alpha), coeff in coeffs.items():
        weights.check_index(i)
        alpha = tuple(int(a) for a in alpha)
        _validate_part(weights, i, alpha)
        coeff = as_fraction(coeff)
        if coeff:
            parts[i - 1][alpha] = coeff
    return TriangularResonantMap(
        weights, tuple(Polynomial(weights.n, part) for part in parts)
    )


def identity_sigma(weights: WeightVector) -> TriangularResonantMap:
    return make_sigma(weights, {})


def random_sigma(
    weights: WeightVector, seed: int, pool: Sequence = DEFAULT_POOL
) -> TriangularResonantMap:
    """Draw a random triangular resonant map, deterministically from the seed.

    Every admissible monomial receives an independent coefficient from the
    pool; the pool is deduplicated and sorted first, so passing a set is
    safe.  The same (weights, seed, pool) always yields the same map.
    """
    choices = pool_choices(pool)
    rng = random.Random(seed)
    parts = []
    for i in range(1, weights.n + 1):
        monomials = nonlinear_resonant_monomials(weights, i)
        parts.append(Polynomial(weights.n, {alpha: rng.choice(choices) for alpha in monomials}))
    return TriangularResonantMap(weights, tuple(parts))


def _check_support(sigma: TriangularResonantMap) -> None:
    """Assert, not trust, that each g_i reads only variables of weight below m_i."""
    for i, (m_i, g_i) in enumerate(zip(sigma.weight.m, sigma.g), start=1):
        heavy = sigma.weight.m.index(m_i)  # the weights are sorted
        for alpha in g_i.exponents():
            assert not any(alpha[heavy:]), f"component {i} uses a variable of weight >= {m_i}"


def _unwind(sigma: TriangularResonantMap, base: Sequence[Polynomial]) -> list:
    """Solve u + g(u) = base for u, one component at a time.

    g_i reads only z_1, ..., z_{i-1} (`_check_support`), so

        u_i = base_i - g_i(u_1, ..., u_{i-1}, 0, ..., 0)

    is exact: every step is a finite polynomial substitution, with no series
    truncation.  For the same reason the substitutions share one power
    cache: g_i reads only slots that already hold their final u_j, never a
    zero placeholder.  Base L . sigma gives the block-diagonal conjugate in
    `conjugation`; sigma^{-1} is one lazy shift instead (`invert_sigma`).
    """
    _check_support(sigma)
    slots = [Polynomial.zero(sigma.n)] * sigma.n
    power_cache: Dict = {}
    for i, (g_i, base_i) in enumerate(zip(sigma.g, base)):
        slots[i] = base_i - g_i.substitute(slots, _cache=power_cache)
    return slots


def _inverse_part(sigma: TriangularResonantMap) -> tuple:
    """h with sigma^{-1} = id + h, by one lazy triangular shift, unvalidated.

    sigma(id + h) = z means h = -g(z + h), and g_j reads only z_1, ...,
    z_{j-1}: `PolyMap._shift` of -g with no values takes h_j as -g_j shifted
    so far.  Every term keeps weighted degree m_i, so total degree at most
    m_i / m_1 <= m_n, which fixes the width.
    """
    _check_support(sigma)
    return PolyMap([-g_j for g_j in sigma.g])._shift(None, sigma.weight.m[-1]).components


def invert_sigma(sigma: TriangularResonantMap) -> TriangularResonantMap:
    """Exact compositional inverse id + h, h by `_inverse_part`; the constructor re-checks."""
    return TriangularResonantMap(sigma.weight, _inverse_part(sigma))


def compose_sigma(
    outer: TriangularResonantMap, inner: TriangularResonantMap
) -> TriangularResonantMap:
    """outer(inner(z)), revalidated as a triangular resonant map.

    With outer = id + g and inner = id + k, component i of the composition
    is z_i + k_i + g_i(z + k), so its nonlinear part is k_i + g_i(z + k).
    g(z + k) is one triangular shift (`PolyMap._shift`), exact because k_j
    reads only z_1, ..., z_{j-1}.  Closure holds because substituting
    components of weighted order m_j into an i-th resonant polynomial again
    yields weighted order m_i.
    """
    if outer.weight != inner.weight:
        raise WeightMismatch(
            f"weight vectors differ: {outer.weight.m} vs {inner.weight.m}"
        )
    shifted = PolyMap(outer.g)._shift(inner.g).components
    return TriangularResonantMap(outer.weight, tuple(k + s for k, s in zip(inner.g, shifted)))
