import dataclasses
import math
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from quasicirc import (
    BlockPartition,
    IndexOutOfRange,
    NonPositiveWeight,
    NotCoprime,
    Unsorted,
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
import quasicirc
from quasicirc import weights as weights_module
from quasicirc.weights import Listing, has_weighted_exponents
from oracles import (
    all_weight_tuples,
    box_resonance_set,
    box_weighted_exponents,
    count_weighted_exponents,
)


def weight_vectors(max_n=4, max_entry=8):
    def normalize(entries):
        entries = sorted(entries)
        g = math.gcd(*entries)
        return WeightVector(tuple(e // g for e in entries))

    return st.lists(
        st.integers(1, max_entry), min_size=1, max_size=max_n
    ).map(normalize)


# validation


def test_accepts_valid_vectors():
    assert WeightVector((1, 2)).m == (1, 2)
    assert WeightVector((1,)).n == 1
    assert WeightVector((1, 1, 1)).n == 3


def test_rejects_common_factor():
    with pytest.raises(NotCoprime):
        WeightVector((2, 4))


def test_rejects_decreasing():
    with pytest.raises(Unsorted):
        WeightVector((2, 1))


def test_rejects_nonpositive():
    with pytest.raises(NonPositiveWeight):
        WeightVector((0, 1))
    with pytest.raises(NonPositiveWeight):
        WeightVector((-1, 2))


def test_rejects_empty_and_noninteger():
    with pytest.raises(ValueError):
        WeightVector(())
    with pytest.raises(TypeError):
        WeightVector((1, 2.0))


@pytest.mark.parametrize("m", [(True, 2), (1, True), (True,)])
def test_rejects_bool_weights(m):
    # bool is an int subclass, but a kept True would serialize as JSON true,
    # which the map readers reject
    with pytest.raises(TypeError):
        WeightVector(m)


def test_weight_accessor_is_one_based():
    w = WeightVector((1, 2, 4))
    assert w.m[3 - 1] == 4
    with pytest.raises(IndexOutOfRange):
        w.check_index(0)
    with pytest.raises(IndexOutOfRange):
        w.check_index(4)


def test_canonicalize_sorts_and_divides():
    w, order = canonicalize_weights((4, 2, 6))
    assert w.m == (1, 2, 3)
    assert order == (1, 0, 2)
    # stable under ties
    _, tie_order = canonicalize_weights((3, 1, 1))
    assert tie_order == (1, 2, 0)


def test_canonicalize_rejects_nonpositive():
    with pytest.raises(NonPositiveWeight):
        canonicalize_weights((0, 2))


# block partition


def test_partition_single_run():
    assert block_partition(WeightVector((1, 1))).boundaries == (0, 2)


def test_partition_singleton_runs():
    assert block_partition(WeightVector((1, 2))).boundaries == (0, 1, 2)


def test_partition_mixed_runs():
    part = block_partition(WeightVector((1, 2, 2, 3)))
    assert part.boundaries == (0, 1, 3, 4)
    assert part.block_count == 3
    assert part.blocks() == ((1, 1), (2, 3), (4, 4))
    assert [part.block_of(i) for i in (1, 2, 3, 4)] == [1, 2, 2, 3]


def test_partition_validates_boundaries():
    with pytest.raises(ValueError):
        BlockPartition((1, 2))
    with pytest.raises(ValueError):
        BlockPartition((0, 2, 2))


@given(weight_vectors())
def test_partition_rederivation_is_stable(w):
    part = block_partition(w)
    assert block_partition(WeightVector(w.m)) == part
    # blocks tile 1..n with strictly increasing weights across blocks
    covered = [i for start, end in part.blocks() for i in range(start, end + 1)]
    assert covered == list(range(1, w.n + 1))
    block_weights = [w.m[start - 1] for start, _ in part.blocks()]
    assert block_weights == sorted(set(block_weights))
    for start, end in part.blocks():
        assert len({w.m[i - 1] for i in range(start, end + 1)}) == 1


# resonance sets


def test_resonance_set_equal_weights():
    assert set(resonance_set(WeightVector((1, 1)), 1)) == {(1, 0), (0, 1)}


def test_resonance_set_one_two():
    assert resonance_set(WeightVector((1, 2)), 2) == ((0, 1), (2, 0))


def test_resonance_set_one_two_three():
    assert resonance_set(WeightVector((1, 2, 3)), 3) == (
        (0, 0, 1),
        (1, 1, 0),
        (3, 0, 0),
    )


def test_resonance_set_index_checked():
    with pytest.raises(IndexOutOfRange):
        resonance_set(WeightVector((1, 2)), 0)
    with pytest.raises(IndexOutOfRange):
        resonance_set(WeightVector((1, 2)), 3)


def test_weighted_exponents_edge_targets():
    assert weighted_exponents((1, 2), -1) == ()
    assert weighted_exponents((1, 2), 0) == ((0, 0),)


def compositions(total, parts):
    """Every tuple of `parts` naturals summing to total, by stars and bars."""
    for cuts in combinations(range(total + parts - 1), parts - 1):
        bounds = (-1, *cuts, total + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))


def test_every_row_listing_is_a_listing():
    # n = 1, n = 2, the per-row loop, and the shared tails of (1, 1, 20)
    cases = [(m, target, sorted(box_weighted_exponents(m, target)))
             for m, target in (((3,), 6), ((1, 2), 4), ((1, 2, 3), 6))]
    cases.append(((1, 1, 1, 1, 1, 20), 20,
                  sorted([*(c + (0,) for c in compositions(20, 5)), (0,) * 5 + (1,)])))
    for m, target, expected in cases:
        exponents = weighted_exponents(m, target)
        assert type(exponents) is Listing and exponents == tuple(expected)
        # what the writer relies on: int tuples, all of one length
        assert {type(alpha) for alpha in exponents} == {tuple}
        assert {type(a) for alpha in exponents for a in alpha} == {int}
        assert {len(alpha) for alpha in exponents} == {len(m)}
    assert not hasattr(weighted_exponents((1, 2), 4), "__dict__")
    assert not hasattr(quasicirc, "Listing")


def test_resonance_sets_are_lexicographic():
    for m in ((1, 2, 3), (1, 1, 2), (1, 2, 6)):
        w = WeightVector(m)
        for i in range(1, w.n + 1):
            exponents = resonance_set(w, i)
            assert list(exponents) == sorted(exponents)


def test_profile_examples():
    assert resonance_profile(WeightVector((1, 1, 1))).order == 1
    profile = resonance_profile(WeightVector((1, 2)))
    assert profile.orders == (1, 2)
    assert profile.order == 2
    assert resonance_profile(WeightVector((2, 3))).orders == (1, 1)
    assert resonance_profile(WeightVector((2, 3))).order == 1


def test_profile_union():
    profile = resonance_profile(WeightVector((1, 2)))
    assert set().union(*profile.sets) == {(0, 1), (1, 0), (2, 0)}


@given(weight_vectors())
def test_profile_invariants(w):
    profile = resonance_profile(w)
    for i in range(1, w.n + 1):
        exponents = profile.sets[i - 1]
        # the linear self-term is always present, so orders start at 1
        assert unit_index(w.n, i) in exponents
        assert 1 <= profile.orders[i - 1] <= w.m[i - 1]
        for alpha in exponents:
            assert weighted_degree(w.m, alpha) == w.m[i - 1]
    assert profile.order == max(profile.orders)
    if len(set(w.m)) == 1:
        assert profile.order == 1


def test_resonance_order_matches_box_oracle():
    # mu_i read off the box scan, which shares no code with the listing; each
    # vector is fresh, so the order is asked before any set is listed
    wide = [m for m in all_weight_tuples(5, 3) if len(m) > 3]
    for m in all_weight_tuples(3, 5) + wide:
        w = WeightVector(m)
        orders = tuple(max(map(sum, box_resonance_set(m, i))) for i in range(1, w.n + 1))
        assert tuple(component_order(w, i) for i in range(1, w.n + 1)) == orders
        assert resonance_order(w) == max(orders)
        profile = resonance_profile(w)
        assert (profile.orders, profile.order) == (orders, max(orders))
    with pytest.raises(IndexOutOfRange):
        component_order(WeightVector((1, 2)), 3)


def test_resonance_order_lists_each_weight_once(monkeypatch):
    listed = []
    listing = weights_module.weighted_exponents

    def counting(weights, target):
        listed.append(target)
        return listing(weights, target)

    monkeypatch.setattr(weights_module, "weighted_exponents", counting)
    w = WeightVector((1, 1, 2, 3))
    assert resonance_order(w) == 3
    resonance_profile(w)
    resonance_set(w, 4)
    assert sorted(listed) == [1, 2, 3]


def test_large_weights_are_exact():
    # arbitrary-precision integers: million-scale weights enumerate fine as
    # long as the resonance sets themselves stay small
    w = WeightVector((999983, 1000000))
    assert block_partition(w).boundaries == (0, 1, 2)
    assert resonance_set(w, 1) == ((1, 0),)
    assert resonance_set(w, 2) == ((0, 1),)
    assert weighted_degree(w.m, (3, 4)) == 3 * 999983 + 4 * 1000000


def test_matches_box_oracle_on_small_vectors():
    # n <= 3 has no stored prefix level; n = 4 and 5 store one and two
    wide = [m for m in all_weight_tuples(5, 3) if len(m) > 3]
    for m in all_weight_tuples(3, 5) + wide:
        w = WeightVector(m)
        for i in range(1, w.n + 1):
            assert set(resonance_set(w, i)) == box_resonance_set(m, i)
        # every degree up to past the largest weight, most of them no weight
        for target in range(-1, m[-1] + 4):
            expected = box_weighted_exponents(m, target)
            exponents = weighted_exponents(w, target)
            assert list(exponents) == sorted(expected)
            assert has_weighted_exponents(w, target) == bool(expected)


# vectors whose prefixes share their remainders many times over, so that the
# completions of the last three entries are listed once per remainder
SHARED_TAIL_CASES = (
    ((1, 1, 1, 1, 1, 20), range(0, 22)),
    ((1, 1, 1, 2, 3, 5), range(0, 14)),
    ((1, 2, 2, 3, 3, 4, 7), range(0, 16)),
    ((1, 1, 1, 1, 2, 5), range(0, 11)),
    ((1, 1, 1, 1, 1, 1, 1, 9), range(0, 13)),
)


@pytest.mark.parametrize("m,targets", SHARED_TAIL_CASES, ids=[str(m) for m, _ in SHARED_TAIL_CASES])
def test_shared_tails_match_oracles(m, targets):
    w = WeightVector(m)
    for target in targets:
        exponents = weighted_exponents(w, target)
        # strictly ascending: lexicographic and distinct
        assert all(a < b for a, b in zip(exponents, exponents[1:]))
        assert all(len(alpha) == len(m) and min(alpha) >= 0 for alpha in exponents)
        assert all(weighted_degree(m, alpha) == target for alpha in exponents)
        assert len(exponents) == count_weighted_exponents(m, target)
        if math.prod(target // e + 1 for e in m) <= 50_000:
            assert set(exponents) == box_weighted_exponents(m, target)
        assert has_weighted_exponents(w, target) == bool(exponents)


def test_shared_tails_are_listed_once_per_remainder(monkeypatch):
    listed = Counter()
    listing = weights_module.weighted_exponents

    def counting(weights, target):
        listed[tuple(weights), target] += 1
        return listing(weights, target)

    monkeypatch.setattr(weights_module, "weighted_exponents", counting)
    exponents = listing((1, 1, 1, 1, 1, 20), 20)
    assert len(exponents) == 10627
    # 1771 prefixes of (1, 1, 1), one tail listing per nonzero remainder
    assert listed == Counter({((1, 1, 20), r): 1 for r in range(1, 21)})
    listed.clear()
    # ten prefixes of (1, 1, 1) at degree 2 are too few to share
    assert len(listing((1, 1, 1, 1, 1, 20), 2)) == 15
    assert not listed


def test_profile_orders_match_each_index():
    for m in ((1, 1, 1, 2, 2, 5), (1, 2, 2, 3, 3, 4, 7), (1, 1, 1, 1, 1, 20), (1,) * 8):
        profile = resonance_profile(WeightVector(m))
        fresh = WeightVector(m)
        assert profile.orders == tuple(
            max(map(sum, resonance_set(fresh, i))) for i in range(1, len(m) + 1)
        )
        assert profile.order == max(profile.orders)


def test_unreachable_degrees_have_no_exponents():
    assert weighted_exponents((4, 6, 9), 11) == ()
    assert not has_weighted_exponents((4, 6, 9), 11)
    assert has_weighted_exponents((4, 6, 9), 13)
    # gcd(w, last) > 1 in the exactly solved last pair, and a spent prefix
    assert weighted_exponents((1, 4, 6), 10) == (
        (0, 1, 1), (2, 2, 0), (4, 0, 1), (6, 1, 0), (10, 0, 0)
    )


def test_resonance_sets_are_kept_on_the_vector():
    w = WeightVector((1, 2, 2, 3))
    first = resonance_set(w, 3)
    assert resonance_set(w, 3) is first
    # the set depends on m_i alone, so equal weights share one tuple
    assert resonance_set(w, 2) is first
    twin = WeightVector((1, 2, 2, 3))
    # the cache is no field: a vector with sets kept equals a fresh one
    assert twin == w and hash(twin) == hash(w) and repr(twin) == repr(w)
    assert "_resonance_sets" not in {field.name for field in dataclasses.fields(w)}
    assert resonance_set(twin, 3) == first
    assert resonance_profile(w).sets == resonance_profile(twin).sets
