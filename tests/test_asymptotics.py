import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import (
    DyadicLaw,
    additive_functional,
    all_degree_statistics,
    all_trees,
    all_trees_up_to,
    count_fringe_unordered,
    covariance_interaction,
    covariance_matrix_probe,
    dict_solve_unit_mean,
    dict_tilted_pmf,
    double_loop_bilinear_density,
    law_pair_density,
    law_row,
    law_tree_probability,
    law_toll_rows,
    law_variance_forms,
    outcome,
    pairwise_additive_variance_forms,
    root_sum_normalized_covariance_density,
    unordered_covariance_density,
    unordered_tree_probability,
)
from oracle_utils import random_distribution_corpus as _shared_corpus

from fringelab import asymptotics
from fringelab.asymptotics import (
    CovMatrix,
    TollFunction,
    additive_covariance_density,
    additive_mean_density,
    additive_variance_density,
    additive_variance_forms,
    classify_exceptional,
    equivalent_offspring,
    fringe_covariance_density,
    normalized_variance,
    plugin_mean,
    sg_degree_covariance,
    sg_fringe_covariance,
    tree_probability,
)
from fringelab.distributions import OffspringDistribution, WeightSequence
from fringelab.errors import CapExceeded, DuplicatePatterns
from fringelab.tree_core import (
    DegreeStatistic,
    PlaneTree,
    canonical_unordered,
    count_fringe,
    degree_statistic,
    enumerate_orderings,
)

GEO = OffspringDistribution.geometric(Fraction(1, 2))
# degree 2 has probability 0: zero tree probabilities and eta = -inf
SPARSE_EXACT = OffspringDistribution.finite({0: Fraction(1, 3), 1: Fraction(1, 6), 3: Fraction(1, 2)})
LEAF = PlaneTree((0,))
CHERRY = PlaneTree((2, 0, 0))
PATH3 = PlaneTree((1, 1, 0))


def random_distribution_corpus(count=40, seed=20240801, max_degree=5):
    return _shared_corpus(count, seed, max_degree)


def seeded_finite_weights(count, seed):
    """Finite weights on 0..3 in sixty-fourths, w_0 and w_3 positive."""
    rng = random.Random(seed)
    return [
        WeightSequence.finite({d: Fraction(rng.randint(d in (0, 3), 63), 64) for d in range(4)})
        for _ in range(count)
    ]


class TestTreeProbability:
    def test_geometric_cherry(self):
        assert tree_probability(GEO, CHERRY) == Fraction(1, 32)

    def test_zero_when_degree_missing(self):
        p = OffspringDistribution.finite({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert tree_probability(p, CHERRY) == 0

    def test_leaf(self):
        assert tree_probability(GEO, LEAF) == Fraction(1, 2)

    def test_fringe_distribution_normalizes(self):
        # sum over all trees of fixed size of the subtree probabilities is
        # the probability the branching tree has that size; over all sizes
        # they telescope below 1
        total = sum(tree_probability(GEO, t) for t in all_trees_up_to(6))
        assert 0 < total < 1


class TestInteraction:
    def test_geometric_cherry_diagonal(self):
        assert covariance_interaction(GEO, CHERRY, CHERRY) == -12

    def test_leaf_factor_vanishes(self):
        value = covariance_interaction(GEO, LEAF, PATH3)
        assert value == 0 - Fraction(1 * 1) / GEO.p(0)

    def test_disjoint_nonzero_degrees(self):
        # profiles overlap only in degrees where one count is zero
        t1 = PlaneTree((2, 0, 0))
        p = OffspringDistribution.finite(
            {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}
        )
        t2 = PlaneTree((1, 0))
        value = covariance_interaction(p, t1, t2)
        assert value == 2 * 1 - Fraction(2 * 1) / Fraction(1, 2)

    def test_minus_infinity(self):
        p = OffspringDistribution.finite({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert covariance_interaction(p, CHERRY, CHERRY) == -math.inf


class TestCovarianceDensity:
    def test_geometric_cherry(self):
        assert fringe_covariance_density(GEO, CHERRY, CHERRY) == Fraction(5, 256)

    def test_zero_probability_diagonal(self):
        p = OffspringDistribution.finite({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert fringe_covariance_density(p, CHERRY, CHERRY) == 0

    def test_always_finite_on_corpus(self):
        for p in random_distribution_corpus(10):
            for t1 in all_trees_up_to(4):
                for t2 in all_trees_up_to(3):
                    value = fringe_covariance_density(p, t1, t2)
                    assert value == value and abs(float(value)) < math.inf

    @pytest.mark.parametrize(
        "p",
        [
            OffspringDistribution.from_spec("poisson:1"),
            OffspringDistribution.from_spec("power_law:0.3,2.5"),
            OffspringDistribution.finite({0: 0.45, 1: 0.2, 2: 0.35}),
            GEO,
            SPARSE_EXACT,
        ],
        ids=lambda p: p.label(),
    )
    def test_mirrored_pairs_are_bit_equal(self, p):
        # the limit covariance matrix of a float law is symmetric to the
        # bit: both orders round the same exact value
        trees = all_trees_up_to(5)
        for t1 in trees:
            for t2 in trees:
                value, mirror = fringe_covariance_density(p, t1, t2), fringe_covariance_density(p, t2, t1)
                assert value == mirror and type(value) is type(mirror), (t1, t2)

    def test_positivity(self):
        # strictly positive diagonal whenever the tree has >= 2 vertices
        # and positive probability
        for p in random_distribution_corpus(25):
            for tree in all_trees_up_to(5):
                if tree.size < 2 or tree_probability(p, tree) == 0:
                    continue
                assert fringe_covariance_density(p, tree, tree) > 0


class TestNormalizedDensity:
    def test_geometric_cherry(self):
        assert normalized_variance(GEO, CHERRY) == Fraction(5, 8)

    def test_star_boundary(self):
        p0 = OffspringDistribution.finite({0: 1})
        assert normalized_variance(p0, CHERRY) == 0

    def test_path_boundary(self):
        p1 = OffspringDistribution.finite({1: 1})
        assert normalized_variance(p1, PATH3) == 0

    def test_repeated_vanishing_degree_gives_one(self):
        p = OffspringDistribution.finite({0: Fraction(1, 2), 1: Fraction(1, 2)})
        double = PlaneTree((2, 2, 0, 0, 0))  # two degree-2 vertices
        assert normalized_variance(p, double) == 1

    def test_consistency_with_ratio(self):
        # wherever both probabilities are positive the normalized form is
        # exactly gamma / sqrt(pi pi')
        for p in random_distribution_corpus(8):
            trees = [t for t in all_trees_up_to(4) if tree_probability(p, t) > 0]
            for t1 in trees:
                for t2 in trees:
                    gamma = fringe_covariance_density(p, t1, t2)
                    scale = math.sqrt(
                        float(tree_probability(p, t1) * tree_probability(p, t2))
                    )
                    got = root_sum_normalized_covariance_density(p, t1, t2)
                    assert float(got) * scale == pytest.approx(
                        float(gamma), rel=1e-11, abs=1e-13
                    )

    def test_taxonomy_matches_classification(self):
        boundary = [
            OffspringDistribution.finite({0: 1}),
            OffspringDistribution.finite({1: 1}),
        ]
        for p in random_distribution_corpus(25) + boundary:
            for tree in all_trees_up_to(5):
                value = normalized_variance(p, tree)
                if classify_exceptional(tree, p) == "none":
                    assert value > 0
                else:
                    assert value == 0

    def test_equals_the_root_sum_oracle(self):
        # the diagonal of the accumulator form: a Fraction equal to it under
        # an exact law, and under a float law its value on the exact
        # weights rounded once
        boundary = [
            OffspringDistribution.finite({0: 1}),
            OffspringDistribution.finite({1: 1}),
            OffspringDistribution.finite({0: Fraction(1, 2), 1: Fraction(1, 2)}),
            GEO,
        ]
        floats = [
            OffspringDistribution.from_spec("poisson:1"),
            OffspringDistribution.from_spec("poisson:0.5"),
            OffspringDistribution.from_spec("power_law:0.3,2.5"),
            OffspringDistribution.finite({0: 0.5, 1: 0.25, 2: 0.25}),
        ]
        for p in random_distribution_corpus(25) + boundary + floats:
            for tree in all_trees_up_to(5):
                got = normalized_variance(p, tree)
                if p.is_exact:
                    want = root_sum_normalized_covariance_density(p, tree, tree)
                    assert type(got) is Fraction and got == want, (p, tree)
                else:
                    want = root_sum_normalized_covariance_density(DyadicLaw(p), tree, tree)
                    assert type(want) is Fraction, (p, tree)
                    assert type(got) is float and got == float(want), (p, tree)

    def test_mixed_exact_and_float_law_keeps_every_root(self):
        # an exact p_i at an odd exponent before the first float p_j still
        # contributes its square root
        p = OffspringDistribution.finite({0: Fraction(1, 2), 1: 0.25, 2: Fraction(1, 4)})
        edge = PlaneTree((1, 0))
        gamma = fringe_covariance_density(p, edge, CHERRY)
        scale = math.sqrt(float(tree_probability(p, edge) * tree_probability(p, CHERRY)))
        got = root_sum_normalized_covariance_density(p, edge, CHERRY)
        assert got == pytest.approx(float(gamma) / scale, rel=1e-12)


@pytest.mark.parametrize(
    "p",
    [OffspringDistribution.from_spec("poisson:1"), OffspringDistribution.from_spec("power_law:0.3,2.5")],
    ids=lambda p: p.label(),
)
def test_float_law_scalars_are_rounded_once(p):
    # over the 65 plane trees of up to 6 vertices, each scalar is a float:
    # the exact value on the law's weights, read as the dyadic rationals
    # they store, rounded once
    exact = DyadicLaw(p)
    trees = all_trees_up_to(6)
    assert len(trees) == 65
    for tree in trees:
        pi = law_tree_probability(exact, tree)
        scalars = [
            (tree_probability(p, tree), pi),
            (normalized_variance(p, tree), root_sum_normalized_covariance_density(exact, tree, tree)),
            (additive_mean_density(p, TollFunction.indicator(tree)), pi),
        ]
        for got, want in scalars:
            assert type(want) is Fraction, tree
            assert type(got) is float and got == float(want), tree


class TestClassification:
    def test_single_vertex(self):
        assert classify_exceptional(LEAF, GEO) == "single_vertex"

    def test_path(self):
        p1 = OffspringDistribution.finite({1: 1})
        assert classify_exceptional(PATH3, p1) == "path_p1"
        assert classify_exceptional(PATH3, GEO) == "none"

    def test_star(self):
        p0 = OffspringDistribution.finite({0: 1})
        star4 = PlaneTree((3, 0, 0, 0))
        assert classify_exceptional(star4, p0) == "star_p0"
        assert classify_exceptional(star4, GEO) == "none"

    def test_two_vertex_tree_is_both_shapes(self):
        edge = PlaneTree((1, 0))
        assert classify_exceptional(edge, OffspringDistribution.finite({1: 1})) == "path_p1"
        assert classify_exceptional(edge, OffspringDistribution.finite({0: 1})) == "star_p0"

    def test_non_path_non_star(self):
        t = PlaneTree((2, 1, 0, 0))
        for p in (OffspringDistribution.finite({0: 1}), OffspringDistribution.finite({1: 1})):
            assert classify_exceptional(t, p) == "none"


class TestPluginMean:
    def test_cherry(self):
        stat = DegreeStatistic.from_counts({0: 3, 2: 2})
        assert plugin_mean(stat, CHERRY) == Fraction(18, 25)

    def test_leaf(self):
        stat = DegreeStatistic.from_counts({0: 3, 2: 2})
        assert plugin_mean(stat, LEAF) == 3

    def test_missing_degree(self):
        stat = DegreeStatistic.from_counts({0: 3, 2: 2})
        assert plugin_mean(stat, PATH3) == 0

    def test_equals_the_plug_in_product(self):
        # |n| * prod_i (n(i)/|n|)^{n_T(i)}, factor by factor
        for size in range(1, 10):
            for stat in all_degree_statistics(size):
                for tree in all_trees_up_to(5):
                    expected = Fraction(size)
                    for degree, count in degree_statistic(tree).items:
                        expected *= Fraction(stat.count(degree), size) ** count
                    assert plugin_mean(stat, tree) == expected, (stat, tree)


def unordered_shapes(max_size):
    """One plane representative per unordered shape, by size."""
    shapes = {}
    for t in all_trees_up_to(max_size):
        shapes.setdefault(canonical_unordered(t), t)
    return list(shapes.values())


# seven rational laws, most with degrees of probability 0 (one a point
# mass at 0), and one float law
UNORDERED_LAWS = [
    GEO,
    OffspringDistribution.finite({0: Fraction(1, 2), 2: Fraction(1, 2)}),
    OffspringDistribution.finite({i: Fraction(1, 4) for i in range(4)}),
    OffspringDistribution.finite({0: Fraction(2, 5), 1: Fraction(1, 5), 3: Fraction(2, 5)}),
    *random_distribution_corpus(4, seed=99)[1:],
]
FLOAT_LAW = OffspringDistribution.from_spec("poisson:1")


class TestUnordered:
    # an unordered shape is the toll with value 1 on each of its plane
    # orderings; the oracles are the per-shape formulas it replaced

    def test_single_ordering(self):
        toll = TollFunction.orderings(CHERRY)
        assert toll == TollFunction.indicator(CHERRY)
        assert additive_mean_density(GEO, toll) == tree_probability(GEO, CHERRY)

    def test_two_orderings(self):
        rep = PlaneTree((2, 0, 1, 0))
        assert TollFunction.orderings(rep).support() == (rep, PlaneTree((2, 1, 0, 0)))
        assert additive_mean_density(GEO, TollFunction.orderings(rep)) == Fraction(1, 64)

    def test_accepts_keys(self):
        key = canonical_unordered(PlaneTree((2, 1, 0, 0)))
        assert TollFunction.orderings(key) == TollFunction.orderings(PlaneTree((2, 0, 1, 0)))
        assert additive_mean_density(GEO, TollFunction.orderings(key)) == Fraction(1, 64)

    def test_rejects_other_inputs(self):
        with pytest.raises(TypeError, match="UnorderedKey"):
            TollFunction.orderings((2, 0, 0))

    def test_ordering_cap(self):
        # the cap of enumerate_orderings, which the per-shape formulas had too
        with pytest.raises(CapExceeded):
            TollFunction.orderings(PlaneTree((12,) + (0,) * 12))
        with pytest.raises(CapExceeded):
            unordered_tree_probability(GEO, canonical_unordered(PlaneTree((12,) + (0,) * 12)))

    def test_count_fringe_unordered(self):
        # the host contains the mirror image of the pattern: invisible to
        # plane matching, visible up to reordering
        host = PlaneTree((1, 2, 1, 0, 0))
        pattern = PlaneTree((2, 0, 1, 0))
        assert count_fringe(host, pattern) == 0
        assert additive_functional(host, TollFunction.orderings(pattern)) == 1
        assert count_fringe_unordered(host, pattern) == 1

    def test_counts_equal_the_oracle(self):
        tolls = [(shape, TollFunction.orderings(shape)) for shape in unordered_shapes(5)]
        for host in all_trees_up_to(7):
            for shape, toll in tolls:
                assert additive_functional(host, toll) == count_fringe_unordered(host, shape)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_pair_sum_identities(self, size):
        # the unordered covariance equals the sum of plane covariances over
        # all ordering pairs, for every pair of unordered shapes
        reps = [t for t in unordered_shapes(size) if t.size == size]
        for p in random_distribution_corpus(4, seed=99):
            for t1 in reps:
                for t2 in reps:
                    lhs = sum(
                        fringe_covariance_density(p, a, b)
                        for a in enumerate_orderings(canonical_unordered(t1))
                        for b in enumerate_orderings(canonical_unordered(t2))
                    )
                    f, g = TollFunction.orderings(t1), TollFunction.orderings(t2)
                    assert lhs == additive_covariance_density(p, f, g)

    @pytest.mark.parametrize("p", UNORDERED_LAWS + [FLOAT_LAW], ids=lambda p: p.label())
    def test_densities_equal_the_oracle(self, p):
        # every ordered pair of the 17 shapes up to 5 vertices; exact laws
        # agree exactly; under the float law the mean and the covariance
        # are the oracle's values on the exact weights, rounded once
        shapes = unordered_shapes(5)
        assert len(shapes) == 17
        exact = p if p.is_exact else DyadicLaw(p)
        kind = Fraction if p.is_exact else float
        tolls = [TollFunction.orderings(t) for t in shapes]
        for t1, f in zip(shapes, tolls):
            mean = additive_mean_density(p, f)
            assert type(mean) is kind, t1
            assert mean == kind(unordered_tree_probability(exact, t1)), t1
            for t2, g in zip(shapes, tolls):
                got = additive_covariance_density(p, f, g)
                assert type(got) is kind, (t1, t2)
                assert got == kind(unordered_covariance_density(exact, t1, t2)), (t1, t2)


class TestEquivalentOffspring:
    def test_binary_weights(self):
        eq = equivalent_offspring(WeightSequence.finite({0: 1, 2: 1}))
        assert eq.tau == pytest.approx(1, abs=1e-12)
        assert float(eq.theta.p(0)) == pytest.approx(0.5, abs=1e-12)
        assert float(eq.theta.p(2)) == pytest.approx(0.5, abs=1e-12)
        assert eq.nu == 2
        assert eq.sigma2 == pytest.approx(1, abs=1e-11)

    def test_all_ones_truncated(self):
        eq = equivalent_offspring(WeightSequence.geometric(1, truncation=64))
        assert eq.tau == pytest.approx(0.5, abs=1e-12)
        for i in range(6):
            assert float(eq.theta.p(i)) == pytest.approx(2.0 ** -(i + 1), abs=1e-12)
        assert eq.sigma2 == pytest.approx(2, abs=1e-10)

    def test_critical_fixed_point_exact(self):
        w = WeightSequence.finite({0: Fraction(1, 2), 2: Fraction(1, 2)})
        eq = equivalent_offspring(w)
        assert eq.tau == 1 and isinstance(eq.tau, Fraction)
        assert eq.theta.p(0) == Fraction(1, 2)
        assert eq.sigma2 == 1

    def test_geometric_weights_tilt_to_half(self):
        eq = equivalent_offspring(WeightSequence.geometric(Fraction(1, 3)))
        assert eq.tau == pytest.approx(1.5, abs=1e-9)
        for i in range(5):
            assert float(eq.theta.p(i)) == pytest.approx(2.0 ** -(i + 1), abs=1e-10)

    @pytest.mark.parametrize("ratio", ["1/1000", "1/5", "1", "4", "1000"])
    def test_geometric_weights_at_any_ratio(self, ratio):
        # w_i = r^i tilts to geometric(1/2) at tau = 1/(2r); far from r = 1
        # the floats of r^i overflow or underflow, their logs do not
        r = Fraction(ratio)
        eq = equivalent_offspring(WeightSequence.geometric(r))
        assert eq.tau == pytest.approx(float(1 / (2 * r)), rel=1e-14)
        assert eq.sigma2 == pytest.approx(2, abs=1e-14)
        assert float(eq.theta.p(0)) == pytest.approx(0.5, abs=1e-14)

    def test_equivalence_invariance(self):
        weights = {0: 2, 1: 1, 3: 5}
        base = equivalent_offspring(WeightSequence.finite(weights))
        for a, b in [(Fraction(3, 2), Fraction(2, 3)), (2, 3), (Fraction(1, 7), 1)]:
            tilted = equivalent_offspring(WeightSequence.finite({i: a * b**i * w for i, w in weights.items()}))
            for i in range(4):
                assert float(tilted.theta.p(i)) == pytest.approx(
                    float(base.theta.p(i)), abs=1e-12
                )

    @pytest.mark.parametrize("rate", [0.5, 1, 3])
    def test_poisson_weights_tilt_to_poisson_one(self, rate):
        # w_i = rate^i / i! tilts to Poisson(1) at tau = 1 / rate
        eq = equivalent_offspring(WeightSequence.poisson(rate))
        assert eq.tau == pytest.approx(1 / rate, abs=1e-12)
        assert eq.sigma2 == pytest.approx(1, abs=1e-12)
        assert eq.nu == math.inf
        for i in eq.theta.support():
            poisson_one = math.exp(-1 - math.lgamma(i + 1))
            assert float(eq.theta.p(i)) == pytest.approx(poisson_one, abs=1e-12)

    def test_subcritical_power_law(self):
        w = WeightSequence.power_law(0.1, 2.5, truncation=4000)
        eq = equivalent_offspring(w)
        assert eq.nu < 1
        assert eq.tau == 1
        assert math.isinf(eq.sigma2)


    @pytest.mark.parametrize(
        "w",
        [
            *seeded_finite_weights(8, seed=404),
            WeightSequence.finite({0: 3, 1: 5, 2: 7, 3: 49}),
            WeightSequence.geometric(Fraction(1, 3)),
            WeightSequence.geometric(4),
            WeightSequence.poisson(0.5),
            WeightSequence.poisson(3),
            WeightSequence.power_law(1, 2.5),
            WeightSequence.power_law(2, 3.5),
        ],
        ids=lambda w: w.label(),
    )
    def test_tilt_equals_the_dict_bisection_to_the_bit(self, w):
        eq = equivalent_offspring(w)
        log_weights = w.log_weights()
        rho = w.radius_of_convergence()
        if eq.nu < 1:
            assert eq.tau == float(rho)
        else:
            assert eq.tau.hex() == dict_solve_unit_mean(log_weights, rho).hex()
        pmf = {i: v for i, v in dict_tilted_pmf(log_weights, eq.tau).items() if v > 0}
        assert eq.theta.probabilities() == pmf
        assert all(type(v) is float for v in eq.theta.probabilities().values())


class TestSimplyGeneratedCovariances:
    def test_binary_cherry_matches_hand_value(self):
        cov = sg_fringe_covariance(WeightSequence.finite({0: 1, 2: 1}), [CHERRY])
        assert float(cov.entries[0][0]) == pytest.approx(1 / 32, abs=1e-10)

    def test_exact_when_weights_critical(self):
        w = WeightSequence.finite({0: Fraction(1, 2), 2: Fraction(1, 2)})
        cov = sg_fringe_covariance(w, [CHERRY])
        assert cov.entries[0][0] == Fraction(1, 32)

    def test_infinite_variance_drops_term(self):
        w = WeightSequence.power_law(0.1, 2.5, truncation=2000)
        cov = sg_fringe_covariance(w, [CHERRY])
        theta = equivalent_offspring(w).theta
        pi = float(tree_probability(theta, CHERRY))
        assert float(cov.entries[0][0]) == pytest.approx(pi - 5 * pi * pi, rel=1e-9)

    def test_subcritical_weights_drop_term(self):
        # nu < 1 gives vs^2 = inf whatever sigma2 is, so 1/vs^2 := 0
        laws = (
            WeightSequence.power_law(0.1, 2.5, truncation=2000),
            WeightSequence.power_law(0.1, 3.5),
        )
        for w in laws:
            eq = equivalent_offspring(w)
            assert eq.nu < 1 and eq.varsigma2 == math.inf
            pi = float(tree_probability(eq.theta, CHERRY))
            cov = sg_fringe_covariance(w, [CHERRY])
            assert float(cov.entries[0][0]) == pytest.approx(pi - 5 * pi * pi, rel=1e-9)
        assert equivalent_offspring(laws[1]).sigma2 < math.inf

    @pytest.mark.parametrize(
        "w",
        [WeightSequence.finite({0: 1, 2: 1}), WeightSequence.geometric(1)],
        ids=["binary", "geometric"],
    )
    def test_critical_weights_keep_sigma2(self, w):
        eq = equivalent_offspring(w)
        assert eq.nu >= 1 and eq.varsigma2 == eq.sigma2 < math.inf

    def test_degree_cov_forced_zero(self):
        cov = sg_degree_covariance(WeightSequence.finite({0: 1, 2: 1}), 2)
        assert float(cov.entries[0][0]) == pytest.approx(0, abs=1e-10)
        assert float(cov.entries[0][2]) == pytest.approx(0, abs=1e-10)

    def test_degree_cov_negative_bound_rejected(self):
        # the parent returned an empty matrix
        with pytest.raises(ValueError, match="must be at least 0"):
            sg_degree_covariance(WeightSequence.finite({0: 1, 2: 1}), -2)

    def test_degree_cov_past_the_top_degree_is_float(self):
        # the parent gave the rows past theta's top degree as Fraction(0)
        # entries of a float matrix
        cov = sg_degree_covariance(WeightSequence.power_law(0.1, 3.5, truncation=20), 22)
        assert all(type(v) is float for row in cov.entries for v in row)
        assert cov.entries[22][22] == cov.entries[21][22] == 0

    def test_degree_cov_psd_geometric(self):
        cov = sg_degree_covariance(WeightSequence.geometric(Fraction(1, 3)), 6)
        assert cov.min_eigenvalue() >= -1e-9

    def test_duplicate_patterns(self):
        with pytest.raises(DuplicatePatterns, match="patterns must be pairwise distinct"):
            sg_fringe_covariance(WeightSequence.finite({0: 1, 2: 1}), [CHERRY, CHERRY])
        w = WeightSequence.power_law(0.1, 2.5, truncation=2000)
        with pytest.raises(DuplicatePatterns):
            sg_fringe_covariance(w, [LEAF, CHERRY, LEAF])


class TestCovMatrix:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            CovMatrix.build([[1, 2], [3, 1]])

    def test_psd_enforced(self):
        with pytest.raises(ValueError):
            CovMatrix.build([[1, 2], [2, 1]])

    def test_nan_diagonal_rejected(self):
        # eigvalsh reads this matrix as PSD, so the symmetry check, which
        # compares the diagonal with itself, is what rejects it
        with pytest.raises(ValueError, match="symmetric"):
            CovMatrix.build([[math.nan, 0.0], [0.0, 1.0]])

    def test_probe_emits_psd(self):
        for p in random_distribution_corpus(6, seed=5):
            patterns = [
                t
                for t in all_trees_up_to(4)
                if t.size > 1 and tree_probability(p, t) > 0
            ][:4]
            if not patterns:
                continue
            matrix, eigmin, det = covariance_matrix_probe(p, patterns)
            assert eigmin >= -1e-9
            assert det == pytest.approx(np.prod(np.linalg.eigvalsh(matrix.to_numpy())))


class TestAdditive:
    def test_indicator_reduces_to_count(self):
        toll = TollFunction.indicator(CHERRY)
        for tree in all_trees_up_to(5):
            assert additive_functional(tree, toll) == count_fringe(tree, CHERRY)

    def test_leaf_toll_counts_leaves(self):
        toll = TollFunction.indicator(LEAF)
        tree = PlaneTree((2, 0, 2, 0, 0))
        assert additive_functional(tree, toll) == 3

    def test_weighted_toll(self):
        toll = TollFunction.from_dict({LEAF: Fraction(1), CHERRY: Fraction(2)})
        assert additive_functional(PlaneTree((2, 0, 2, 0, 0)), toll) == 5

    def test_indicator_variance_is_covariance_entry(self):
        for pattern in (CHERRY, PATH3, PlaneTree((2, 0, 1, 0))):
            toll = TollFunction.indicator(pattern)
            assert additive_variance_density(GEO, toll) == fringe_covariance_density(
                GEO, pattern, pattern
            )

    def test_leaf_indicator_degenerates(self):
        for p in random_distribution_corpus(10, seed=7):
            assert additive_variance_density(p, TollFunction.indicator(LEAF)) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_toll_values_rejected(self, bad):
        # a non-finite value has no exact ratio for the densities to read;
        # every constructor goes through the check
        with pytest.raises(ValueError, match="toll value .* at tree 2,0,0 is not finite"):
            TollFunction.from_dict({LEAF: 1, CHERRY: bad})
        with pytest.raises(ValueError, match="at tree 1,0 is not finite"):
            TollFunction(((PlaneTree((1, 0)), bad),))
        assert TollFunction.from_dict({CHERRY: 0.5}).value(CHERRY) == 0.5

    def test_two_forms_agree_on_random_tolls(self):
        rng = random.Random(424242)
        trees = all_trees_up_to(3)
        for p in random_distribution_corpus(5, seed=11):
            for _ in range(10):
                toll = TollFunction.from_dict(
                    {
                        t: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for t in trees
                        if rng.random() < 0.7
                    }
                )
                direct, quadratic = additive_variance_forms(p, toll)
                assert direct == quadratic
                assert direct >= 0

    def test_forms_equal_the_pairwise_oracle(self):
        rng = random.Random(8080)
        trees = all_trees_up_to(4)
        floats = [
            OffspringDistribution.from_spec("poisson:1"),
            OffspringDistribution.finite({0: 0.5, 1: 0.25, 3: 0.25}),
        ]
        zero_probability = 0
        for p in random_distribution_corpus(12, seed=31) + floats:
            for size in (0, 1, 3, 7, len(trees)):
                chosen = rng.sample(trees, size)
                toll = TollFunction.from_dict(
                    {t: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for t in chosen}
                )
                got = outcome(additive_variance_forms, p, toll)
                if p.is_exact:
                    expected = outcome(pairwise_additive_variance_forms, p, toll)
                else:
                    # a float law: the oracle on the exact weights, rounded once
                    expected = tuple(map(float, generic_variance_forms(DyadicLaw(p), toll)))
                    assert [type(v) for v in got] == [float, float] and got[0] == got[1]
                assert got == expected, (p.label(), toll)
                zero_probability += any(tree_probability(p, t) == 0 for t in toll.support())
        assert zero_probability >= 20

    @staticmethod
    def random_toll(rng, trees):
        values = {t: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for t in trees}
        return TollFunction.from_dict({t: v for t, v in values.items() if rng.random() < 0.6})

    def test_covariance_density_is_symmetric_and_bilinear(self):
        rng = random.Random(5150)
        trees = all_trees_up_to(4)
        for p in random_distribution_corpus(6, seed=17):
            for _ in range(4):
                f1, f2, g = (self.random_toll(rng, trees) for _ in range(3))
                a, b = Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(-5, 5), 2)
                combined = TollFunction.from_dict(
                    {t: a * f1.value(t) + b * f2.value(t) for t in f1.support() + f2.support()}
                )
                assert additive_covariance_density(p, f1, g) == additive_covariance_density(
                    p, g, f1
                )
                assert additive_covariance_density(p, combined, g) == (
                    a * additive_covariance_density(p, f1, g)
                    + b * additive_covariance_density(p, f2, g)
                )

    @pytest.mark.parametrize(
        "p", [OffspringDistribution.from_spec("poisson:1"), GEO, SPARSE_EXACT], ids=lambda p: p.label()
    )
    def test_bilinear_density_equals_the_double_loop(self, p):
        # one integer per unordered pair gives the value of one
        # law-arithmetic density per ordered pair on the exact weights, as
        # a Fraction under an exact law and rounded once under a float law
        trees = all_trees_up_to(4)
        rng = random.Random(2020)
        exact = p if p.is_exact else DyadicLaw(p)
        rows, inside = law_toll_rows(exact, trees)
        kind = Fraction if p.is_exact else float
        for _ in range(20):
            left = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in trees]
            right = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in trees]
            f, g = (TollFunction.from_dict(dict(zip(trees, values))) for values in (left, right))
            got = additive_covariance_density(p, f, g)
            expected = double_loop_bilinear_density(exact, rows, inside, left, right)
            assert got == kind(expected) and type(got) is kind

    def test_covariance_density_on_indicators(self):
        trees = all_trees_up_to(4)
        floats = [OffspringDistribution.from_spec("poisson:1")]
        for p in [GEO, *random_distribution_corpus(3, seed=23), *floats]:
            for t1 in trees:
                for t2 in trees:
                    f, g = TollFunction.indicator(t1), TollFunction.indicator(t2)
                    got = additive_covariance_density(p, f, g)
                    assert got == fringe_covariance_density(p, t1, t2), (p.label(), t1, t2)

    def test_covariance_density_equals_both_forms_on_the_diagonal(self):
        rng = random.Random(777)
        trees = all_trees_up_to(4)
        floats = [OffspringDistribution.from_spec("poisson:1")]
        for p in random_distribution_corpus(6, seed=41) + floats:
            for _ in range(4):
                toll = self.random_toll(rng, trees)
                direct, quadratic = additive_variance_forms(p, toll)
                got = additive_covariance_density(p, toll, toll)
                assert got == quadratic == direct

    def test_empty_tolls(self):
        empty = TollFunction.from_dict({})
        assert additive_mean_density(GEO, empty) == 0
        assert additive_covariance_density(GEO, empty, TollFunction.indicator(CHERRY)) == 0

    def test_disagreeing_forms_raise(self, monkeypatch):
        monkeypatch.setattr(
            asymptotics, "additive_variance_forms", lambda p, toll: (Fraction(1), 0.5)
        )
        with pytest.raises(ArithmeticError):
            additive_variance_density(GEO, TollFunction.indicator(CHERRY))


# float-law bits of (direct, quadratic) of F_TOLL, the covariance of F_TOLL
# and G_TOLL, and the densities of (cherry, T5) and (T5, T5): each is the
# exact value on the law's weights, read as the dyadic rationals they
# store, rounded once
T5 = PlaneTree((2, 2, 0, 0, 0))
F_TOLL = TollFunction.from_dict(
    {LEAF: Fraction(-3, 2), CHERRY: 2, PlaneTree((2, 1, 0, 0)): 1, T5: Fraction(1, 3)}
)
G_TOLL = TollFunction.from_dict({PlaneTree((1, 0)): 5, CHERRY: -1, T5: Fraction(2, 7)})
FLOAT_BITS = {
    "poisson:1": [
        "0x1.1b541ea5ff22dp-4", "0x1.1b541ea5ff22dp-4", "-0x1.154a795c6c584p-3",
        "0x1.cd6c9bef4e6d3p-11", "0x1.a31b384c96029p-10",
    ],
    "power_law:0.3,2.5": [
        "0x1.5522cd715f568p-5", "0x1.5522cd715f568p-5", "-0x1.cee12dbc21ba7p-5",
        "0x1.37180c2ae36a5p-13", "0x1.2c962d3f1787fp-11",
    ],
}

# sha256 of float.hex of fringe_covariance_density, one line per ordered
# pair of the 23 trees of up to 5 vertices; float.hex also pins the type
PAIR_DIGESTS = [
    (
        OffspringDistribution.from_spec("poisson:1"),
        "c690845a3c1f3ba3ccc41a7a2a4992eb6710f29d0c2cfff697063e036e24c022",
    ),
    (
        OffspringDistribution.from_spec("power_law:0.3,2.5"),
        "0c92baef20ebc44310dcf92987bcd8b9debf6a41363e58323ff70df0abe6bbbe",
    ),
    (  # degree 1 has probability 0: zero tree probabilities and eta = -inf
        OffspringDistribution.finite({0: 0.45, 2: 0.35, 3: 0.2}),
        "70c2f1ce504dfe6807cf77a5aff20000a2a1d9061e4dd40c22991567450d286e",
    ),
]


def generic_pair_density(p, t1, t2):
    """The law-arithmetic pair density, fed the law's own weights."""
    return law_pair_density(p, law_row(p, t1), law_row(p, t2), count_fringe(t1, t2), count_fringe(t2, t1))


def generic_covariance_density(p, f, g):
    trees = sorted(set(f.support()) | set(g.support()), key=lambda t: t.degrees)
    rows, inside = law_toll_rows(p, trees)
    left, right = [f.value(t) for t in trees], [g.value(t) for t in trees]
    return double_loop_bilinear_density(p, rows, inside, left, right)


def generic_variance_forms(p, toll):
    return law_variance_forms(p, toll.support(), [value for _, value in toll.items])


class TestIntegerDensities:
    """The densities are integer numerators over one denominator under
    every law; the law-arithmetic oracle fed the same Fraction weights is
    the reference.  Under a float law the oracle reads each weight as the
    dyadic rational it stores (DyadicLaw), and the library's float is the
    oracle's value rounded once."""

    @staticmethod
    def assert_exact_equal(got, expected):
        assert got == expected
        assert type(got) is Fraction and type(expected) is Fraction

    @pytest.mark.parametrize(
        "p",
        [
            GEO,
            SPARSE_EXACT,
            # the harness's gamma reads the empirical law of full_binary
            OffspringDistribution.finite(
                DegreeStatistic.from_counts({0: 5001, 2: 5000}).empirical_distribution()
            ),
            *random_distribution_corpus(4, seed=2024),
        ],
        ids=lambda p: p.label(),
    )
    def test_pair_densities_equal_the_generic_path(self, p):
        nested = 0
        trees = all_trees_up_to(5)
        for t1 in trees:
            for t2 in trees:
                self.assert_exact_equal(
                    fringe_covariance_density(p, t1, t2), generic_pair_density(p, t1, t2)
                )
                nested += t1 != t2 and count_fringe(t1, t2) > 0
        assert nested >= 48

    def test_zero_probability_degree_inside_a_toll_tree(self):
        # degree 2 has probability 0 under SPARSE_EXACT: eta = -inf, and
        # every tree with a degree-2 vertex has pi = 0
        assert covariance_interaction(SPARSE_EXACT, CHERRY, T5) == -math.inf
        toll = TollFunction.from_dict({LEAF: 2, CHERRY: Fraction(-1, 3), T5: 4, PATH3: -5})
        got = additive_variance_forms(SPARSE_EXACT, toll)
        expected = generic_variance_forms(SPARSE_EXACT, toll)
        for a, b in zip(got, expected):
            self.assert_exact_equal(a, b)
        assert fringe_covariance_density(SPARSE_EXACT, T5, CHERRY) == 0
        assert fringe_covariance_density(SPARSE_EXACT, CHERRY, LEAF) == generic_pair_density(
            SPARSE_EXACT, CHERRY, LEAF
        )

    def test_forms_equal_the_generic_path_on_seeded_tolls(self):
        rng = random.Random(2222)
        trees = all_trees_up_to(4)
        zero_probability = 0
        for p in [GEO, SPARSE_EXACT, *random_distribution_corpus(15, seed=5)]:
            for size in (0, 1, 2, 5, len(trees)):
                chosen = rng.sample(trees, size)
                toll = TollFunction.from_dict(
                    {t: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for t in chosen}
                )
                got, expected = additive_variance_forms(p, toll), generic_variance_forms(p, toll)
                for a, b in zip(got, expected):
                    self.assert_exact_equal(a, b)
                zero_probability += any(tree_probability(p, t) == 0 for t in toll.support())
        assert zero_probability >= 10

    def test_covariance_density_with_different_supports(self):
        rng = random.Random(3131)
        trees = all_trees_up_to(4)
        for p in [GEO, SPARSE_EXACT, *random_distribution_corpus(8, seed=17)]:
            for _ in range(4):
                f = TollFunction.from_dict({t: rng.randint(-4, 4) for t in rng.sample(trees, 4)})
                g = TollFunction.from_dict(
                    {t: Fraction(rng.randint(-4, 4), 3) for t in rng.sample(trees, 3)}
                )
                self.assert_exact_equal(
                    additive_covariance_density(p, f, g), generic_covariance_density(p, f, g)
                )

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 7), min_size=1, max_size=4),
        values=st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=9, max_size=9
        ),
    )
    def test_forms_equal_the_generic_path(self, weights, values):
        total = 1 + sum(weights)
        counts = {i: w for i, w in enumerate(weights)}
        counts[0] += 1
        p = OffspringDistribution.finite({i: Fraction(w, total) for i, w in counts.items()})
        toll = TollFunction.from_dict(dict(zip(all_trees_up_to(4), values)))
        got, expected = additive_variance_forms(p, toll), generic_variance_forms(p, toll)
        for a, b in zip(got, expected):
            self.assert_exact_equal(a, b)

    @pytest.mark.parametrize("spec", sorted(FLOAT_BITS))
    def test_float_laws_round_the_exact_value_once(self, spec):
        p = OffspringDistribution.from_spec(spec)
        exact = DyadicLaw(p)
        values = [
            *additive_variance_forms(p, F_TOLL),
            additive_covariance_density(p, F_TOLL, G_TOLL),
            fringe_covariance_density(p, CHERRY, T5),
            fringe_covariance_density(p, T5, T5),
        ]
        expected = [
            *generic_variance_forms(exact, F_TOLL),
            generic_covariance_density(exact, F_TOLL, G_TOLL),
            generic_pair_density(exact, CHERRY, T5),
            generic_pair_density(exact, T5, T5),
        ]
        assert values == [float(v) for v in expected]
        assert values[0] == values[1]  # direct == quadratic
        assert [v.hex() for v in values] == FLOAT_BITS[spec]

    @pytest.mark.parametrize("p, digest", PAIR_DIGESTS, ids=[p.label() for p, _ in PAIR_DIGESTS])
    def test_float_densities_on_every_small_pair(self, p, digest):
        trees = all_trees_up_to(5)
        values = [fringe_covariance_density(p, t1, t2) for t1 in trees for t2 in trees]
        expected = [float(generic_pair_density(DyadicLaw(p), t1, t2)) for t1 in trees for t2 in trees]
        assert values == expected
        lines = "".join(float.hex(v) + "\n" for v in values)
        assert hashlib.sha256(lines.encode()).hexdigest() == digest

    @pytest.mark.parametrize("p", [p for p, _ in PAIR_DIGESTS], ids=[p.label() for p, _ in PAIR_DIGESTS])
    def test_leaf_rows_are_exact_zeros(self, p):
        # the leaf count is fixed by the degree profile, so its covariance
        # with every fringe count is exactly 0, and one rounding keeps it 0
        for tree in all_trees_up_to(5):
            for value in (fringe_covariance_density(p, LEAF, tree), fringe_covariance_density(p, tree, LEAF)):
                assert value == 0.0 and type(value) is float, tree

    def test_float_toll_values_round_once_under_an_exact_law(self):
        values = {LEAF: 0.1, CHERRY: Fraction(2, 3), T5: -3}
        f, g = TollFunction.from_dict(values), TollFunction.from_dict({CHERRY: 1, PATH3: 0.3})
        exact_f = TollFunction.from_dict({t: Fraction(v) for t, v in values.items()})
        exact_g = TollFunction.from_dict({CHERRY: 1, PATH3: Fraction(0.3)})
        forms = additive_variance_forms(GEO, f)
        assert forms == tuple(map(float, generic_variance_forms(GEO, exact_f)))
        assert [type(v) for v in forms] == [float, float]
        covariance = additive_covariance_density(GEO, f, g)
        assert covariance == float(generic_covariance_density(GEO, exact_f, exact_g))
        assert type(covariance) is float
