import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from oracle_utils import (
    all_degree_statistics,
    all_trees_up_to,
    bound_copy_sum,
    brute_degree_factorial,
    brute_joint_factorial,
    brute_mean,
    closed_form_factorial_moment,
    closed_form_mean,
    closed_form_product_moment,
    falling_factorial,
    outcome,
    point_mass,
    two_series_degree_factorial_moment,
)

from fringelab.distributions import OffspringDistribution
from fringelab.errors import (
    CapExceeded,
    DuplicatePatterns,
    InfeasibleSize,
    IrrationalWeights,
)
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
)

LEAF = PlaneTree((0,))
CHERRY = PlaneTree((2, 0, 0))
PATH3 = PlaneTree((1, 1, 0))
T5 = PlaneTree((2, 0, 2, 0, 0))

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


class TestBoundCopySumOracle:
    """The integer kernel against the per-term Fraction sum."""

    def test_ladder_at_10001(self):
        for q in range(10, 61, 10):
            orders = [q, q // 2]
            assert joint_factorial_moment(
                STAT_10001, [CHERRY, T5], orders
            ) == bound_copy_sum(STAT_10001, [CHERRY, T5], orders)

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
            value = joint_factorial_moment(stat, chosen, q)
            assert isinstance(value, Fraction)
            assert value == bound_copy_sum(stat, chosen, q), (stat, chosen, q)
            seen["q0"] += 0 in q
            seen["three"] += len(chosen) == 3
            seen["nested"] += any(map(any, containment_matrix(chosen)))
            seen["tight"] += size == top
            if top >= 2:
                small = _random_statistic(rng, top - 1)
                value = joint_factorial_moment(small, chosen, q)
                assert value == bound_copy_sum(small, chosen, q), (small, chosen, q)
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
            value = joint_factorial_moment(stat, patterns, q)
            assert value > 0
            assert value == bound_copy_sum(stat, patterns, q), q


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


class TestTwoSeriesOracle:
    """The one-series integer ratio against the two-series Fraction product
    it replaces, value for value and exception for exception."""

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
