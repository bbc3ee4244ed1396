import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import (
    all_degree_statistics,
    all_trees_up_to,
    bound_copy_sum,
    bound_copy_term,
    brute_degree_factorial,
    brute_joint_factorial,
    brute_mean,
    closed_form_factorial_moment,
    closed_form_mean,
    closed_form_product_moment,
    falling_factorial,
    outcome,
    point_mass,
    table_joint_factorial_moment,
    two_series_degree_factorial_moment,
)

from fringelab.distributions import OffspringDistribution
from fringelab.errors import (
    CapExceeded,
    DuplicatePatterns,
    InfeasibleSize,
    IrrationalWeights,
)
from fringelab import exact_moments
from fringelab.exact_moments import (
    PARTIAL_SUM_CAP,
    _partial_sum_cached,
    containment_matrix,
    degree_factorial_moment,
    factorial_moment,
    joint_factorial_moment,
    mean_count,
    partial_sum_pmf,
    product_moment,
)
from fringelab.tree_core import (
    DegreeStatistic,
    PlaneTree,
    count_fringe,
    degree_statistic,
)

LEAF = PlaneTree((0,))
CHERRY = PlaneTree((2, 0, 0))
PATH3 = PlaneTree((1, 1, 0))
T5 = PlaneTree((2, 0, 2, 0, 0))
LEFT_T5 = PlaneTree((2, 2, 0, 0, 0))  # the benchmark's T5

STAT_5 = DegreeStatistic.from_counts({0: 3, 2: 2})
STAT_7 = DegreeStatistic.from_counts({0: 4, 2: 3})

STAT_10001 = DegreeStatistic.from_counts({0: 5001, 2: 5000})

FULL_BINARY = OffspringDistribution.finite({0: Fraction(1, 2), 2: Fraction(1, 2)})


class TestFallingFactorial:
    def test_basic(self):
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(3, 0) == 1
        assert falling_factorial(2, 3) == 0

    def test_rational(self):
        assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)

    def test_negative_order(self):
        with pytest.raises(ValueError):
            falling_factorial(3, -1)


class TestMeanCount:
    def test_cherry(self):
        assert mean_count(STAT_5, CHERRY) == 1

    def test_leaf_is_leaf_count(self):
        assert mean_count(STAT_5, LEAF) == 3

    def test_vanishes_when_profile_missing(self):
        assert mean_count(STAT_5, PATH3) == 0

    def test_size_too_small(self):
        # a tree smaller than the pattern holds no copy: the value is 0
        stat = DegreeStatistic.from_counts({0: 1})
        assert mean_count(stat, CHERRY) == brute_mean(stat, CHERRY) == 0

    def test_matches_brute_force_small(self):
        for size in range(1, 8):
            for stat in all_degree_statistics(size):
                for pattern in all_trees_up_to(4):
                    assert mean_count(stat, pattern) == brute_mean(stat, pattern)


class TestFactorialMoment:
    def test_q1_reduces_to_mean(self):
        for stat in all_degree_statistics(6):
            for pattern in all_trees_up_to(3):
                assert factorial_moment(stat, pattern, 1) == mean_count(stat, pattern)

    def test_impossible_pair(self):
        assert factorial_moment(STAT_5, CHERRY, 2) == 0

    def test_worked_value(self):
        assert factorial_moment(STAT_7, CHERRY, 2) == Fraction(2, 5)

    def test_q0(self):
        assert factorial_moment(STAT_5, CHERRY, 0) == 1

    def test_matches_brute_force(self):
        for stat in all_degree_statistics(7):
            for pattern in all_trees_up_to(3):
                for q in (1, 2, 3):
                    assert factorial_moment(stat, pattern, q) == brute_joint_factorial(
                        stat, [pattern], [q]
                    )


class TestProductMoment:
    def test_leaf_cherry(self):
        assert product_moment(STAT_5, LEAF, CHERRY) == 3

    def test_symmetry(self):
        assert product_moment(STAT_7, CHERRY, T5) == product_moment(STAT_7, T5, CHERRY)

    def test_equal_patterns_rejected(self):
        with pytest.raises(DuplicatePatterns):
            product_moment(STAT_5, CHERRY, CHERRY)

    def test_disjoint_term_vanishes_when_too_tight(self):
        # disjoint placement needs 5 leaves but the profile has only 4,
        # so only the containment term survives
        value = product_moment(STAT_7, CHERRY, T5)
        assert value == mean_count(STAT_7, T5) == Fraction(2, 5)
        assert value == brute_joint_factorial(STAT_7, [CHERRY, T5], [1, 1])

    def test_matches_brute_force(self):
        patterns = all_trees_up_to(3)
        for stat in all_degree_statistics(7):
            for i, t1 in enumerate(patterns):
                for t2 in patterns[i + 1 :]:
                    assert product_moment(stat, t1, t2) == brute_joint_factorial(
                        stat, [t1, t2], [1, 1]
                    )


class TestContainmentMatrix:
    def test_leaf_in_cherry(self):
        tau = containment_matrix([LEAF, CHERRY])
        assert tau == [[0, 2], [0, 0]]

    def test_transposed_placement(self):
        tau = containment_matrix([CHERRY, LEAF])
        assert tau == [[0, 0], [2, 0]]

    def test_triangular_when_sorted_by_size(self):
        patterns = sorted(all_trees_up_to(4), key=lambda t: t.size)
        tau = containment_matrix(patterns)
        for j, row in enumerate(tau):
            assert all(row[k] == 0 for k in range(j + 1))

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePatterns):
            containment_matrix([CHERRY, CHERRY])


class TestJointFactorialMoment:
    @pytest.mark.parametrize("order", [1.9, 1.0, Fraction(1)])
    def test_non_integer_order_raises(self, order):
        with pytest.raises(TypeError, match=re.escape(repr(order))):
            joint_factorial_moment(STAT_7, [CHERRY], [order])

    def test_numpy_integer_orders_pass(self):
        assert joint_factorial_moment(STAT_7, [CHERRY], np.array([2])) == (
            joint_factorial_moment(STAT_7, [CHERRY], [2])
        )

    def test_m1_reduces(self):
        for q in (1, 2, 3):
            stat = DegreeStatistic.from_counts({0: 7, 2: 6})
            assert joint_factorial_moment(
                stat, [CHERRY], [q]
            ) == closed_form_factorial_moment(stat, CHERRY, q)

    def test_m2_reduces_to_product(self):
        assert joint_factorial_moment(
            STAT_7, [CHERRY, T5], [1, 1]
        ) == closed_form_product_moment(STAT_7, CHERRY, T5)

    def test_reductions_beyond_enumeration(self):
        assert joint_factorial_moment(STAT_10001, [T5], [1]) == closed_form_mean(
            STAT_10001, T5
        )
        assert joint_factorial_moment(
            STAT_10001, [CHERRY], [7]
        ) == closed_form_factorial_moment(STAT_10001, CHERRY, 7)
        assert joint_factorial_moment(
            STAT_10001, [CHERRY, T5], [1, 1]
        ) == closed_form_product_moment(STAT_10001, CHERRY, T5)

    def test_zero_orders_drop_out(self):
        assert joint_factorial_moment(STAT_7, [CHERRY], [0]) == 1
        assert joint_factorial_moment(
            STAT_10001, [CHERRY, T5], [0, 2]
        ) == closed_form_factorial_moment(STAT_10001, T5, 2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            joint_factorial_moment(STAT_7, [CHERRY], [-1])

    def test_worked_example_vs_oracle(self):
        value = joint_factorial_moment(STAT_7, [CHERRY, T5], [1, 1])
        assert value == brute_joint_factorial(STAT_7, [CHERRY, T5], [1, 1])

    def test_duplicate_patterns_rejected(self):
        with pytest.raises(DuplicatePatterns):
            joint_factorial_moment(STAT_7, [CHERRY, CHERRY], [1, 1])

    def test_duplicate_patterns_rejected_after_the_set_is_cached(self):
        # the pattern constants are cached per tuple; a duplicate must still
        # raise on every call, also once the distinct patterns are cached
        for _ in range(2):
            assert joint_factorial_moment(STAT_7, [CHERRY, T5], [1, 1]) == Fraction(2, 5)
            for patterns in ([CHERRY, CHERRY], [CHERRY, T5, CHERRY], [T5, CHERRY, T5]):
                with pytest.raises(DuplicatePatterns):
                    joint_factorial_moment(STAT_7, patterns, [1] * len(patterns))

    def test_triple_vs_oracle(self):
        stat = DegreeStatistic.from_counts({0: 4, 1: 1, 2: 3})
        patterns = [LEAF, PlaneTree((1, 0)), CHERRY]
        value = joint_factorial_moment(stat, patterns, [1, 1, 1])
        assert value == brute_joint_factorial(stat, patterns, [1, 1, 1])

    def test_small_sweep_vs_oracle(self):
        patterns = all_trees_up_to(3)
        for stat in all_degree_statistics(6):
            for i, t1 in enumerate(patterns):
                for t2 in patterns[i + 1 :]:
                    for q in ([1, 2], [2, 1]):
                        assert joint_factorial_moment(
                            stat, [t1, t2], q
                        ) == brute_joint_factorial(stat, [t1, t2], q)

    def test_nested_patterns_below_top(self):
        # top = 1 + 2 + 4 = 7 > |n| = 5, yet the cherry of every T5 copy is
        # a bound copy: E[N_cherry N_T5] = 1/2
        value = joint_factorial_moment(STAT_5, [CHERRY, T5], [1, 1])
        assert value == brute_joint_factorial(STAT_5, [CHERRY, T5], [1, 1])
        assert value == Fraction(1, 2)

    def test_every_size_below_top_vs_oracle(self):
        patterns = all_trees_up_to(4)
        nested = 0
        for size in range(1, 9):
            for stat in all_degree_statistics(size):
                for i, t1 in enumerate(patterns):
                    for t2 in patterns[i + 1 :]:
                        if count_fringe(t2, t1) + count_fringe(t1, t2) == 0:
                            continue
                        for q in ([1, 1], [2, 1], [1, 2], [2, 2]):
                            top = 1 + q[0] * (t1.size - 1) + q[1] * (t2.size - 1)
                            if size >= top:
                                continue
                            value = joint_factorial_moment(stat, [t1, t2], q)
                            assert value == brute_joint_factorial(stat, [t1, t2], q)
                            nested += value > 0
        assert nested >= 5



def _random_statistic(rng, size):
    """A degree statistic with exactly ``size`` vertices and degrees <= 3:
    the nonzero degrees are a random composition of size - 1."""
    counts = {0: size}
    remaining = size - 1
    while remaining:
        part = rng.randint(1, min(3, remaining))
        counts[part] = counts.get(part, 0) + 1
        counts[0] -= 1
        remaining -= part
    return DegreeStatistic.from_counts(counts)


def _walk_equals_oracles(stat, patterns, q) -> Fraction:
    """The walked sum, checked against the table sum and the per-term
    Fraction sum by value and by type."""
    value = joint_factorial_moment(stat, patterns, q)
    table = table_joint_factorial_moment(stat, patterns, q)
    terms = bound_copy_sum(stat, patterns, q)
    assert type(value) is type(table) is type(terms) is Fraction
    assert value == table == terms, (stat, patterns, q)
    return value


class TestBoundCopySumOracle:
    """The integer kernel against the per-term Fraction sum and the table
    sum."""

    def test_ladder_at_10001(self):
        for t5 in (T5, LEFT_T5):
            for q in range(10, 61, 10):
                assert _walk_equals_oracles(STAT_10001, [CHERRY, t5], [q, q // 2]) > 0

    def test_seeded_random_cases(self):
        rng = random.Random(5150)
        patterns = all_trees_up_to(4)
        seen = {"q0": 0, "three": 0, "nested": 0, "tight": 0, "too_small": 0}
        for case in range(300):
            chosen = rng.sample(patterns, rng.randint(1, 3))
            q = [rng.randint(0, 4) for _ in chosen]
            top = 1 + sum(qj * (t.size - 1) for qj, t in zip(q, chosen))
            size = top if case % 4 == 0 else top + rng.randint(1, 12)
            stat = _random_statistic(rng, size)
            _walk_equals_oracles(stat, chosen, q)
            seen["q0"] += 0 in q
            seen["three"] += len(chosen) == 3
            seen["nested"] += any(map(any, containment_matrix(chosen)))
            seen["tight"] += size == top
            if top >= 2:
                small = _random_statistic(rng, top - 1)
                value = _walk_equals_oracles(small, chosen, q)
                if small.size <= 9:
                    assert value == brute_joint_factorial(small, chosen, q)
                    seen["too_small"] += 1
        assert min(seen.values()) >= 20, seen

    def test_hostless_patterns_at_high_q(self):
        # T5 and PlaneTree((1, 0)) sit in no other pattern (zero tau rows);
        # the cherry's bound copies are capped by the T5 hosts, or by its
        # own order when that is smaller
        patterns = [CHERRY, T5, PlaneTree((1, 0))]
        assert containment_matrix(patterns) == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
        stat = DegreeStatistic.from_counts({0: 120, 1: 9, 2: 119})
        for q in ([40, 3, 4], [2, 6, 0], [5, 5, 8], [0, 9, 9]):
            assert _walk_equals_oracles(stat, patterns, q) > 0, q


def _top(patterns, q) -> int:
    return 1 + sum(qj * (t.size - 1) for qj, t in zip(q, patterns))


# nested pattern triples, each with the number of its nonzero moments below
# top in test_every_size_below_top
NESTED_TRIPLES = [
    ((LEAF, CHERRY, LEFT_T5), 24),
    ((LEAF, PlaneTree((1, 0)), PATH3), 2),
]
TREES_UP_TO_5 = all_trees_up_to(5)


class TestRatioWalkOracles:
    """The row walk against the table sum it replaces and the per-term
    Fraction sum, value for value and type for type."""

    @pytest.mark.parametrize("patterns, least", NESTED_TRIPLES, ids=("leaf-cherry-T5", "paths"))
    def test_every_size_below_top(self, patterns, least):
        # every profile of degrees at most 2 below top, where any nonzero
        # moment needs bound copies
        nonzero = 0
        for q in itertools.product(range(4), repeat=3):
            for size in range(1, _top(patterns, q)):  # cut > 0
                for stat in all_degree_statistics(size):
                    if max(stat.as_dict()) <= 2:
                        nonzero += _walk_equals_oracles(stat, patterns, list(q)) > 0
        assert nonzero >= least

    def test_rows_that_start_with_zero_terms(self):
        # (stat, q) with the cherry walked and no T5 bound: its first terms
        # vanish, below top (d > |n|) or for want of leaves, a later one not
        cases = [
            (STAT_5, [1, 1]),
            (DegreeStatistic.from_counts({0: 10, 2: 9}), [4, 2]),
            (DegreeStatistic.from_counts({0: 16, 1: 3, 2: 15}), [6, 3]),
        ]
        patterns = [CHERRY, LEFT_T5]
        profiles = [degree_statistic(p).as_dict() for p in patterns]
        tau = containment_matrix(patterns)
        for stat, q in cases:
            row = [bound_copy_term(stat, patterns, profiles, q, (b, 0), tau) for b in range(q[1] + 1)]
            assert row[0] == 0 and any(row), (stat, q, row)
            assert _walk_equals_oracles(stat, patterns, q) > 0

    def test_bound_copies_inside_the_walked_pattern(self):
        # the cherry has the largest reach and is walked; bound leaves sit
        # inside it, so each step also takes two hosts from the leaves
        patterns = [LEAF, CHERRY, LEFT_T5]
        for counts in ({0: 14, 2: 13}, {0: 9, 1: 2, 2: 8}, {0: 11, 1: 1, 2: 8, 3: 1}):
            stat = DegreeStatistic.from_counts(counts)
            for q in ([1, 4, 2], [3, 4, 2], [2, 3, 3], [5, 5, 2]):
                _walk_equals_oracles(stat, patterns, q)

    @settings(max_examples=150, deadline=None)
    @given(
        degrees=st.lists(st.integers(1, 4), max_size=10),
        chosen=st.lists(
            st.integers(0, len(TREES_UP_TO_5) - 1), min_size=1, max_size=3, unique=True
        ),
        orders=st.lists(st.integers(0, 5), min_size=3, max_size=3),
    )
    def test_small_profiles(self, degrees, chosen, orders):
        counts = {0: 1 + sum(d - 1 for d in degrees)}
        for d in degrees:
            counts[d] = counts.get(d, 0) + 1
        patterns = [TREES_UP_TO_5[i] for i in chosen]
        _walk_equals_oracles(DegreeStatistic.from_counts(counts), patterns, orders[: len(chosen)])


class TestPartialSumPmf:
    def test_m0(self):
        pmf = partial_sum_pmf(FULL_BINARY, 0)
        assert pmf == {0: 1} and all(isinstance(x, Fraction) for x in pmf.values())

    def test_binomial_m4(self):
        assert partial_sum_pmf(FULL_BINARY, 4)[4] == Fraction(3, 8)

    def test_binomial_m5(self):
        assert partial_sum_pmf(FULL_BINARY, 5)[4] == Fraction(5, 16)

    def test_total_mass(self):
        pmf = partial_sum_pmf(FULL_BINARY, 9)
        assert sum(pmf.values()) == 1

    def test_float_fallback(self):
        w = OffspringDistribution.finite({0: 0.5, 2: 0.5})
        pmf = partial_sum_pmf(w, 4)
        assert all(isinstance(x, float) for x in pmf.values())
        assert pmf[4] == pytest.approx(0.375)
        approx, exact = partial_sum_pmf(w, 30), partial_sum_pmf(FULL_BINARY, 30)
        assert approx.keys() == exact.keys()
        for s, mass in exact.items():
            assert approx[s] == pytest.approx(float(mass), rel=1e-12)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            partial_sum_pmf(FULL_BINARY, PARTIAL_SUM_CAP + 1)

    @pytest.mark.parametrize("m", [2.5, 2.0, Fraction(2)])
    def test_non_integer_m_raises_before_caching(self, m):
        # also through the series prefix that the oracles read, so a float
        # key equal to 2 never holds a float-valued series
        _partial_sum_cached.cache_clear()
        with pytest.raises(TypeError, match=re.escape(repr(m))):
            partial_sum_pmf(FULL_BINARY, m)
        with pytest.raises(TypeError, match=re.escape(repr(m))):
            point_mass(FULL_BINARY, m, 1)
        assert _partial_sum_cached.cache_info().currsize == 0
        assert partial_sum_pmf(FULL_BINARY, 2) == {0: Fraction(1, 4), 2: Fraction(1, 2), 4: Fraction(1, 4)}

    def test_numpy_integer_m_passes(self):
        assert partial_sum_pmf(FULL_BINARY, np.int64(4)) == partial_sum_pmf(FULL_BINARY, 4)

    def test_cold_total_mass_at_600(self):
        _partial_sum_cached.cache_clear()
        w = OffspringDistribution.finite(
            {0: Fraction(21, 64), 1: Fraction(22, 64), 3: Fraction(21, 64)}
        )
        assert sum(partial_sum_pmf(w, 600).values()) == 1


def _convolution_pmf(w, m):
    """P(S_m = s) by m plain convolutions of the law, in Fractions."""
    pmf = {0: Fraction(1)}
    for _ in range(m):
        step = {}
        for s, mass in pmf.items():
            for i, p in w.probabilities().items():
                step[s + i] = step.get(s + i, 0) + mass * p
        pmf = step
    return {s: mass for s, mass in pmf.items() if mass}


SERIES_LAWS = [
    FULL_BINARY,
    OffspringDistribution.finite({1: Fraction(1, 3), 2: Fraction(2, 3)}),
    OffspringDistribution.finite({2: Fraction(1, 7), 3: Fraction(2, 7), 5: Fraction(4, 7)}),
    OffspringDistribution.finite(
        {0: Fraction(21, 64), 1: Fraction(22, 64), 2: Fraction(13, 64), 3: Fraction(8, 64)}
    ),
]


class TestTruncatedSeries:
    """Point masses read a prefix of the Miller series that later requests
    extend; every prefix must agree with the full pmf."""

    @pytest.mark.parametrize("w", SERIES_LAWS, ids=lambda w: w.label())
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 17, 60])
    def test_point_masses_in_either_order(self, w, m):
        _partial_sum_cached.cache_clear()
        full = partial_sum_pmf(w, m)
        assert full == _convolution_pmf(w, m)
        support = w.support()
        offset, span = m * support[0], support[-1] - support[0]
        ks = range(offset - 2, offset + m * span + 3)
        for order in (reversed(ks), ks):
            _partial_sum_cached.cache_clear()
            for k in order:
                assert point_mass(w, m, k) == full.get(k, 0), k

    @pytest.mark.parametrize("w", SERIES_LAWS, ids=lambda w: w.label())
    def test_full_pmf_after_short_request(self, w):
        _partial_sum_cached.cache_clear()
        full = partial_sum_pmf(w, 17)
        _partial_sum_cached.cache_clear()
        low = 17 * w.support()[0]
        assert point_mass(w, 17, low + 1) == full.get(low + 1, 0)
        assert partial_sum_pmf(w, 17) == full
        assert _partial_sum_cached.cache_info().currsize == 1


class TestPartialSumCacheBound:
    def test_evicted_law_gives_its_cold_values(self):
        _partial_sum_cached.cache_clear()
        w = SERIES_LAWS[3]
        qs = ({0: 1}, {1: 2}, {0: 1, 3: 1})
        cold = [degree_factorial_moment(w, n, q) for n in (30, 61) for q in qs]
        limit = _partial_sum_cached.cache_info().maxsize
        for m in range(limit + 10):
            point_mass(FULL_BINARY, m, 0)
        info = _partial_sum_cached.cache_info()
        assert info.currsize == limit
        again = [degree_factorial_moment(w, n, q) for n in (30, 61) for q in qs]
        assert again == cold
        # the law's prefixes were evicted and rebuilt, not found again
        assert _partial_sum_cached.cache_info().misses > info.misses
        _partial_sum_cached.cache_clear()


class TestDegreeFactorialMoment:
    def test_worked_leaf_mean(self):
        assert degree_factorial_moment(FULL_BINARY, 5, {0: 1}) == 3

    def test_all_zero_q(self):
        assert degree_factorial_moment(FULL_BINARY, 5, {}) == 1

    def test_internal_mean(self):
        assert degree_factorial_moment(FULL_BINARY, 5, {2: 1}) == 2

    def test_infeasible(self):
        with pytest.raises(InfeasibleSize):
            degree_factorial_moment(FULL_BINARY, 4, {0: 1})

    def test_irrational_rejected(self):
        w = OffspringDistribution.finite({0: 0.5, 2: 0.5})
        with pytest.raises(IrrationalWeights):
            degree_factorial_moment(w, 5, {0: 1})

    def test_zero_weight_degree(self):
        assert degree_factorial_moment(FULL_BINARY, 5, {1: 1}) == 0

    def test_documented_cap_is_reachable(self):
        _partial_sum_cached.cache_clear()
        w = OffspringDistribution.finite(
            {0: Fraction(21, 64), 1: Fraction(22, 64), 2: Fraction(13, 64), 3: Fraction(8, 64)}
        )
        n = PARTIAL_SUM_CAP
        means = [degree_factorial_moment(w, n, {i: 1}) for i in range(4)]
        assert all(isinstance(x, Fraction) for x in means)
        assert sum(means) == n
        assert sum(i * x for i, x in enumerate(means)) == n - 1
        _partial_sum_cached.cache_clear()  # release the large integer tables

    def test_vs_enumeration(self):
        geometric_cut = OffspringDistribution.finite(
            {i: Fraction(2 ** (8 - i), 2**9 - 1) for i in range(9)}
        )
        for w in (FULL_BINARY, geometric_cut):
            for n in (3, 5, 7):
                for q in ({0: 1}, {0: 2}, {2: 1}, {0: 1, 2: 1}):
                    try:
                        got = degree_factorial_moment(w, n, q)
                    except InfeasibleSize:
                        continue
                    assert got == brute_degree_factorial(w, n, q)

    def test_cap_holds_for_every_order(self):
        n = PARTIAL_SUM_CAP + 1
        for q in ({}, {0: 1}, {1: 1}, {0: 2, 2: 1}, {0: n}, {0: n + 1}, {7: 3}):
            with pytest.raises(CapExceeded):
                degree_factorial_moment(FULL_BINARY, n, q)

    @pytest.mark.parametrize("q", [{0: 1.5}, {0.7: 1}, {0: Fraction(1)}, {0: 0.0}])
    def test_non_integer_order_or_degree_raises(self, q):
        ((degree, order),) = q.items()
        bad = order if isinstance(degree, int) else degree
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            degree_factorial_moment(FULL_BINARY, 5, q)

    def test_numpy_integers_pass(self):
        assert degree_factorial_moment(FULL_BINARY, 5, {np.int64(0): np.int32(1)}) == 3
        assert degree_factorial_moment(FULL_BINARY, np.int64(5), {0: 1}) == 3

    @pytest.mark.parametrize("n", [2.0, 5.0, 2.5, Fraction(5)])
    def test_non_integer_size_raises(self, n):
        with pytest.raises(TypeError, match=re.escape(repr(n))):
            degree_factorial_moment(FULL_BINARY, n, {0: 1})

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_size_raises_naming_n(self, n):
        for q in ({}, {0: 1}, {0: 2, 2: 1}):
            with pytest.raises(ValueError, match=f"n = {n} "):
                degree_factorial_moment(FULL_BINARY, n, q)

    def test_size_zero_is_infeasible(self):
        for q in ({}, {0: 1}, {0: 7}):
            with pytest.raises(InfeasibleSize):
                degree_factorial_moment(FULL_BINARY, 0, q)


def _ladder_laws(count, seed):
    """Laws on {0, 1, 2, 3} with numerators >= 1 over 64, drawn as the
    benchmark ladder draws them."""
    rng = random.Random(seed)
    laws = []
    for _ in range(count):
        cuts = sorted(rng.sample(range(1, 64), 3))
        numerators = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], 64 - cuts[2]]
        laws.append(
            OffspringDistribution.finite({i: Fraction(a, 64) for i, a in enumerate(numerators)})
        )
    return laws


ORACLE_SIZES = [*range(1, 7), *range(25, 201, 25)]
SHARED_SERIES_LAWS = SERIES_LAWS + [
    OffspringDistribution.finite({0: Fraction(1, 2), 1: Fraction(1, 4), 3: Fraction(1, 4)}),
    *_ladder_laws(2, 4243),
]
LADDER_ORDERS = ({0: 1}, {1: 1}, {2: 1}, {3: 1}, {0: 2, 2: 1})


def _orders_of_total(rng, w, total):
    """Orders of total Q: all on degree 0, all on one degree past
    the support, and a seeded spread over both and the degrees between."""
    top = w.support()[-1] + 1
    yield {0: total}
    yield {top: total}
    q = {}
    for _ in range(total):
        i = rng.randint(0, top)
        q[i] = q.get(i, 0) + 1
    yield q


class TestTwoSeriesOracle:
    """The one-series integer ratio against the two-series Fraction product
    it replaces, value for value and exception for exception.  Orders up
    to 4 read the one series f^(n-4), higher ones their own f^(n-Q)."""

    def _orders(self, rng, w, n):
        top = w.support()[-1] + 1  # one degree past the support
        yield {}
        for i in range(top + 1):
            yield {i: 1}
        yield {0: 2, 2: 1}
        yield {-1: 1, 0: 1}
        yield {0: 1, 3: 0}
        yield {0: n}
        yield {0: n - n // 2, 2: n // 2}  # Q = n, a whole binary profile at odd n
        yield {0: n + 1}
        yield {0: n, 1: 1}
        yield {0: n - 1, top: 1}
        for total in (n, n + 2, rng.randint(1, n + 1), rng.randint(1, 4)):
            q = {}
            for _ in range(total):
                i = rng.randint(0, top)
                q[i] = q.get(i, 0) + 1
            yield q

    @pytest.mark.parametrize(
        "w", SERIES_LAWS + _ladder_laws(3, 909), ids=lambda w: w.label()
    )
    def test_equal_outcomes_up_to_80(self, w):
        rng = random.Random(w.label())
        _partial_sum_cached.cache_clear()
        infeasible, nonzero = set(), 0
        for n in range(1, 81):
            for q in self._orders(rng, w, n):
                got = outcome(degree_factorial_moment, w, n, q)
                expected = outcome(two_series_degree_factorial_moment, w, n, q)
                assert got == expected, (n, q)
                if isinstance(got, Fraction):
                    nonzero += got != 0
                else:
                    assert got is InfeasibleSize
                    infeasible.add(n)
        if w.p(0) == 0:  # no leaves: every size is infeasible
            assert infeasible == set(range(1, 81)) and nonzero == 0
        elif w.p(1) == 0:  # full binary: only odd sizes
            assert infeasible == set(range(2, 81, 2)) and nonzero >= 150
        else:
            assert not infeasible and nonzero >= 500

    @pytest.mark.parametrize("w", SHARED_SERIES_LAWS, ids=lambda w: w.label())
    def test_orders_0_to_6(self, w):
        rng = random.Random(w.label())
        _partial_sum_cached.cache_clear()
        kinds = set()
        for n in ORACLE_SIZES:
            for total in range(7):
                for q in _orders_of_total(rng, w, total):
                    got = outcome(degree_factorial_moment, w, n, q)
                    assert got == outcome(two_series_degree_factorial_moment, w, n, q), (n, q)
                    kinds.add(got if isinstance(got, type) else type(got))
        assert Fraction in kinds or w.p(0) == 0

    def test_orders_0_to_6_at_the_cap(self):
        _partial_sum_cached.cache_clear()
        w = OffspringDistribution.finite({0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)})
        n = PARTIAL_SUM_CAP
        for q in ({}, {0: 1}, {1: 2}, {0: 2, 2: 1}, {0: 1, 1: 2, 2: 1}, {0: 3, 2: 2}, {1: 6}):
            got = degree_factorial_moment(w, n, q)
            assert got == two_series_degree_factorial_moment(w, n, q), q
            assert isinstance(got, Fraction) and got > 0
        _partial_sum_cached.cache_clear()  # release the large integer tables

    @pytest.mark.parametrize("w", SHARED_SERIES_LAWS, ids=lambda w: w.label())
    def test_high_order_first_and_cold(self, w):
        expected = {
            (n, i): outcome(two_series_degree_factorial_moment, w, n, q)
            for n in ORACLE_SIZES
            for i, q in enumerate(LADDER_ORDERS)
        }
        for first in (4, 0):  # Q = 3 before Q = 1, then Q = 1 first
            _partial_sum_cached.cache_clear()
            got = {}
            for n in ORACLE_SIZES:
                for i in (first, *(j for j in range(5) if j != first)):
                    got[n, i] = outcome(degree_factorial_moment, w, n, LADDER_ORDERS[i])
            assert got == expected

    def test_ladder_calls_at_one_size_grow_one_long_series(self, monkeypatch):
        w = _ladder_laws(1, 2024)[0]
        cached = exact_moments._partial_sum_cached
        requested = []

        def recording(law, m):
            requested.append(m)
            return cached(law, m)

        monkeypatch.setattr(exact_moments, "_partial_sum_cached", recording)
        cached.cache_clear()
        n = 200
        values = [degree_factorial_moment(w, n, q) for q in LADDER_ORDERS]
        assert sum(values[:4]) == n
        assert {m for m in requested if m > 4} == {n - 4}
        # the long series and the heads f^4, f^3 (Q = 1) and f^1 (Q = 3)
        assert cached.cache_info().currsize == 4
        cached.cache_clear()


class TestFallingFactorialEstimate:
    """The exact log of (x)_k / x^k stays within C k^3 / x^2 of
    -k(k-1)/(2x) for k up to x/2; C calibrated on small cases."""

    @pytest.mark.parametrize("x", [10**2, 10**3, 10**4, 10**5, 10**6])
    def test_within_cubic_envelope(self, x):
        for k in {1, 2, 10, int(math.isqrt(x)), x // 10, x // 2}:
            if k < 1:
                continue
            exact = sum(math.log1p(-i / x) for i in range(1, k))
            predicted = -k * (k - 1) / (2 * x)
            assert abs(exact - predicted) <= 1.0 * k**3 / x**2 + 1e-12
