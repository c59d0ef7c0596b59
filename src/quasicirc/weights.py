"""Weight vectors, block partitions, and resonance combinatorics.

A weight vector is a tuple of positive integers m = (m_1, ..., m_n) with
m_1 <= ... <= m_n and gcd one.  It grades monomials by the weighted degree
m . alpha = sum(m_j * alpha_j); the i-th resonance set collects every
exponent vector alpha with m . alpha = m_i.  Its largest total degree
|alpha| is mu_i, and the resonance order mu is the largest mu_i.  mu_i is
summed once, as its set is listed, and read through `component_order`; mu is
computed only by `resonance_order`.  Every reader in the package (the
profile, the CLI, the conjugation checks and the solve) calls these two.

Multi-indices are plain tuples of nonnegative ints; all counts are exact
(Python integers), so weights up to 10**6 and beyond are fine.
`weighted_exponents` returns its rows as a `Listing`, a tuple whose type
says that they are int tuples of one length, so the JSON writer prints them
by one row template without looking at a cell.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import IndexOutOfRange, NonPositiveWeight, NotCoprime, Unsorted

MultiIndex = Tuple[int, ...]


class Listing(tuple):
    """Rows of `weighted_exponents`: int tuples, all of one length."""

    __slots__ = ()


def weighted_degree(weights: Sequence[int], alpha: Sequence[int]) -> int:
    """The weighted degree m . alpha."""
    return sum(w * a for w, a in zip(weights, alpha))


def unit_index(n: int, j: int) -> MultiIndex:
    """The multi-index e_j (1-based j) with a single 1 in position j."""
    if not 1 <= j <= n:
        raise IndexOutOfRange(f"index {j} outside 1..{n}")
    return tuple(int(k == j - 1) for k in range(n))


@dataclass(frozen=True)
class WeightVector:
    """A validated weight tuple.

    Construction rejects non-canonical input instead of normalizing it:
    silently sorting would re-index the variables, and dividing by a common
    factor would change the grading.  Use `canonicalize_weights` when the
    caller wants that done explicitly.

    Each instance keeps the resonance sets it has been asked for, each with
    its order mu_i, keyed by the weight m_i they depend on, in
    `_resonance_sets`, and its block partition, once built, in `_partition`:
    attributes, not fields, so equality, hashing and repr see only m.
    """

    m: tuple

    def __post_init__(self):
        entries = tuple(self.m)
        if not entries:
            raise ValueError("weight vector must be nonempty")
        if any(not isinstance(e, int) or isinstance(e, bool) for e in entries):
            raise TypeError("weights must be integers")
        if any(e <= 0 for e in entries):
            raise NonPositiveWeight(f"weights must be positive, got {entries}")
        if any(a > b for a, b in zip(entries, entries[1:])):
            raise Unsorted(f"weights must be nondecreasing, got {entries}")
        if math.gcd(*entries) != 1:
            raise NotCoprime(f"weights must have gcd 1, got {entries}")
        object.__setattr__(self, "m", entries)
        object.__setattr__(self, "_resonance_sets", {})
        object.__setattr__(self, "_partition", None)

    @property
    def n(self) -> int:
        return len(self.m)

    def check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"index {i} outside 1..{self.n}")


def canonicalize_weights(raw: Sequence[int]):
    """Sort raw weights and divide out the gcd.

    Returns (WeightVector, order) where order[k] is the 0-based position in
    `raw` of the k-th canonical entry (stable under ties), so the caller can
    track how the variables were permuted.
    """
    entries = list(raw)
    if not entries:
        raise ValueError("weight vector must be nonempty")
    if any(e <= 0 for e in entries):
        raise NonPositiveWeight(f"weights must be positive, got {tuple(entries)}")
    order = tuple(sorted(range(len(entries)), key=lambda k: (entries[k], k)))
    g = math.gcd(*entries)
    return WeightVector(tuple(entries[k] // g for k in order)), order


@dataclass(frozen=True)
class BlockPartition:
    """Boundaries (k_0, ..., k_l) of the maximal equal-weight runs.

    Block p (1-based) covers the 1-based indices k_{p-1}+1 .. k_p.
    """

    boundaries: tuple

    def __post_init__(self):
        bounds = tuple(int(b) for b in self.boundaries)
        if len(bounds) < 2 or bounds[0] != 0:
            raise ValueError(f"boundaries must start at 0, got {bounds}")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"boundaries must strictly increase, got {bounds}")
        object.__setattr__(self, "boundaries", bounds)

    @property
    def n(self) -> int:
        return self.boundaries[-1]

    @property
    def block_count(self) -> int:
        return len(self.boundaries) - 1

    def block_of(self, i: int) -> int:
        """The block number p (1-based) containing index i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"index {i} outside 1..{self.n}")
        return bisect_left(self.boundaries, i)

    def blocks(self):
        """1-based inclusive (start, end) index ranges, one per block."""
        return tuple(
            (self.boundaries[p] + 1, self.boundaries[p + 1])
            for p in range(self.block_count)
        )


def block_partition(weights: WeightVector) -> BlockPartition:
    """Group coordinates into maximal runs of equal weight.

    Built once per weight vector, then returned from the instance.
    """
    if weights._partition is None:
        bounds = [0]
        for idx in range(1, weights.n):
            if weights.m[idx] != weights.m[idx - 1]:
                bounds.append(idx)
        bounds.append(weights.n)
        object.__setattr__(weights, "_partition", BlockPartition(tuple(bounds)))
    return weights._partition


def _entries(weights) -> tuple:
    return weights.m if isinstance(weights, WeightVector) else tuple(weights)


def _last_pair(w: int, last: int):
    """(g, step, inverse) for solving e * w + f * last == r over the naturals.

    A solution needs g = gcd(w, last) to divide r; then e runs exactly over
    (r / g) * inverse mod step, stepping by step = last / g, up to r // w.
    """
    g = math.gcd(w, last)
    step = last // g
    return g, step, pow(w // g, -1, step)


def weighted_exponents(weights, target: int):
    """All alpha in N^n with m . alpha == target, in lexicographic order.

    Accepts a WeightVector or a plain weight tuple.  A negative target has no
    solutions; target 0 has exactly the zero multi-index.  The prefixes of
    all but the last three entries are built level by level, so any n works.

    The last three entries complete each prefix's remaining degree r.  Once
    the prefixes outnumber the possible remainders 0..target eightfold, the
    completions of each distinct r are listed once, by this routine at three
    entries, and each prefix is joined to them by one
    `map(prefix.__add__, tails)` in C.  The prefixes are distinct and ascend,
    and so do the completions of one r, so the rows stay lexicographic.
    Below that, one listing per remainder costs more than the sharing saves,
    and each prefix's rows are built one by one: the third-to-last entry is
    looped over and the last two are solved exactly rather than searched.
    """
    entries = _entries(weights)
    if target < 0:
        return ()
    n = len(entries)
    if n == 1:
        quotient, rest = divmod(target, entries[0])
        return () if rest else Listing(((quotient,),))
    *head, w, last = entries
    g, step, inverse = _last_pair(w, last)
    if not head:
        if target % g:
            return ()
        return Listing((e, (target - e * w) // last)
                       for e in range((target // g) * inverse % step, target // w + 1, step))
    *head, third = head
    level = [((), target)]
    for weight in head:
        deeper = []
        append = deeper.append
        for prefix, remaining in level:
            if remaining:
                for e in range(remaining // weight + 1):
                    append((prefix + (e,), remaining - e * weight))
            else:  # a spent prefix has only the all-zero completion
                append((prefix, 0))
        level = deeper
    tails = None
    # below five entries the head has at most target + 1 prefixes
    if n > 4 and len(level) > 8 * (target + 1):
        tails = {}
        for r in {r for _, r in level if r}:
            tails[r] = weighted_exponents(entries[-3:], r)
    out = []
    append = out.append
    for prefix, remaining in level:
        if not remaining:
            append(prefix + (0,) * (n - len(prefix)))
        elif tails:
            out += map(prefix.__add__, tails[remaining])
        else:
            for d in range(remaining // third + 1):
                r = remaining - d * third
                if not r:
                    append(prefix + (d, 0, 0))
                elif r % g == 0:
                    row = prefix + (d,)
                    for e in range((r // g) * inverse % step, r // w + 1, step):
                        append(row + (e, (r - e * w) // last))
    return Listing(out)


def has_weighted_exponents(weights, target: int) -> bool:
    """Whether `weighted_exponents(weights, target)` is nonempty, without listing it.

    Only the distinct remaining degrees are kept level by level, never the
    prefixes, so this does no more work than the listing.
    """
    entries = _entries(weights)
    if target < 0:
        return False
    if len(entries) == 1:
        return target % entries[0] == 0
    remainders = {target}
    for weight in entries[:-2]:
        remainders = {r - e * weight for r in remainders for e in range(r // weight + 1)}
        if 0 in remainders:
            return True
    w, last = entries[-2:]
    g, step, inverse = _last_pair(w, last)
    return any(r % g == 0 and (r // g) * inverse % step <= r // w for r in remainders)


def _resonance_entry(weights: WeightVector, target: int) -> tuple:
    """(the exponents of weighted degree target, their largest |alpha|), made once.

    The one place mu_i is computed: as the set is listed, so each listing is
    summed once, and equal weights share both.
    """
    sets = weights._resonance_sets
    if target not in sets:
        listing = weighted_exponents(weights, target)
        sets[target] = listing, max(map(sum, listing))
    return sets[target]


def resonance_set(weights: WeightVector, i: int):
    """The i-th resonance set {alpha : m . alpha = m_i}, lexicographic.

    Listed once per weight vector and weight value, then returned from the
    instance's cache: equal weights share one tuple.
    """
    weights.check_index(i)
    return _resonance_entry(weights, weights.m[i - 1])[0]


def component_order(weights: WeightVector, i: int) -> int:
    """mu_i, the largest |alpha| in the i-th resonance set, kept beside the set."""
    weights.check_index(i)
    return _resonance_entry(weights, weights.m[i - 1])[1]


def resonance_order(weights: WeightVector) -> int:
    """The resonance order mu = max_i mu_i, which bounds the conjugates' degree."""
    return max(component_order(weights, i) for i in range(1, weights.n + 1))


@dataclass(frozen=True)
class ResonanceProfile:
    """All resonance sets of a weight vector with their orders.

    sets[i-1] is the i-th resonance set; orders[i-1] its largest total
    degree; order is the overall resonance order (max over components).
    """

    weight: WeightVector
    sets: tuple
    orders: tuple
    order: int


def resonance_profile(weights: WeightVector) -> ResonanceProfile:
    """Every resonance set with its order mu_i, and the resonance order mu."""
    indices = range(1, weights.n + 1)
    return ResonanceProfile(
        weight=weights,
        sets=tuple(resonance_set(weights, i) for i in indices),
        orders=tuple(component_order(weights, i) for i in indices),
        order=resonance_order(weights),
    )
