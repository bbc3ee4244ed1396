import math
import random
from fractions import Fraction

import numpy as np
import pytest
from oracle_utils import (
    all_trees,
    all_trees_up_to,
    count_fringe_unordered,
    covariance_matrix_probe,
    outcome,
    pairwise_additive_variance_forms,
    unordered_covariance_density,
    unordered_tree_probability,
)
from oracle_utils import random_distribution_corpus as _shared_corpus

from fringelab import asymptotics
from fringelab.asymptotics import (
    CovMatrix,
    TollFunction,
    additive_covariance_density,
    additive_functional,
    additive_mean_density,
    additive_variance_density,
    additive_variance_forms,
    classify_exceptional,
    covariance_interaction,
    equivalent_offspring,
    fringe_covariance_density,
    normalized_covariance_density,
    plugin_mean,
    sg_degree_covariance,
    sg_fringe_covariance,
    tree_probability,
)
from fringelab.distributions import OffspringDistribution, WeightSequence
from fringelab.errors import CapExceeded, DuplicatePatterns, UnsupportedRegime
from fringelab.tree_core import (
    DegreeStatistic,
    PlaneTree,
    canonical_unordered,
    count_fringe,
    enumerate_orderings,
)

GEO = OffspringDistribution.geometric(Fraction(1, 2))
LEAF = PlaneTree((0,))
CHERRY = PlaneTree((2, 0, 0))
PATH3 = PlaneTree((1, 1, 0))


def random_distribution_corpus(count=40, seed=20240801, max_degree=5):
    return _shared_corpus(count, seed, max_degree)


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
        assert normalized_covariance_density(GEO, CHERRY, CHERRY) == Fraction(5, 8)

    def test_star_boundary(self):
        p0 = OffspringDistribution.finite({0: 1})
        assert normalized_covariance_density(p0, CHERRY, CHERRY) == 0

    def test_path_boundary(self):
        p1 = OffspringDistribution.finite({1: 1})
        assert normalized_covariance_density(p1, PATH3, PATH3) == 0

    def test_repeated_vanishing_degree_gives_one(self):
        p = OffspringDistribution.finite({0: Fraction(1, 2), 1: Fraction(1, 2)})
        double = PlaneTree((2, 2, 0, 0, 0))  # two degree-2 vertices
        assert normalized_covariance_density(p, double, double) == 1

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
                    got = normalized_covariance_density(p, t1, t2)
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
                value = normalized_covariance_density(p, tree, tree)
                if classify_exceptional(tree, p) == "none":
                    assert value > 0
                else:
                    assert value == 0


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
        # agree exactly, the float law up to rounding
        shapes = unordered_shapes(5)
        assert len(shapes) == 17

        def agree(got, expected):
            if p.is_exact:
                return isinstance(got, Fraction) and got == expected
            return got == pytest.approx(expected, rel=1e-12, abs=1e-15)

        tolls = [TollFunction.orderings(t) for t in shapes]
        for t1, f in zip(shapes, tolls):
            assert agree(additive_mean_density(p, f), unordered_tree_probability(p, t1))
            for t2, g in zip(shapes, tolls):
                got = additive_covariance_density(p, f, g)
                assert agree(got, unordered_covariance_density(p, t1, t2)), (t1, t2)


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

    def test_equivalence_invariance(self):
        w = WeightSequence.finite({0: 2, 1: 1, 3: 5})
        base = equivalent_offspring(w)
        for a, b in [(Fraction(3, 2), Fraction(2, 3)), (2, 3), (Fraction(1, 7), 1)]:
            tilted = equivalent_offspring(w.scaled(a, b))
            for i in range(4):
                assert float(tilted.theta.p(i)) == pytest.approx(
                    float(base.theta.p(i)), abs=1e-12
                )

    def test_subcritical_power_law(self):
        w = WeightSequence.power_law(0.1, 2.5, truncation=4000)
        eq = equivalent_offspring(w)
        assert eq.nu < 1
        assert eq.tau == 1
        assert math.isinf(eq.sigma2)


class TestSimplyGeneratedCovariances:
    def test_binary_cherry_matches_hand_value(self):
        cov = sg_fringe_covariance(WeightSequence.finite({0: 1, 2: 1}), [CHERRY])
        assert float(cov.entry(0, 0)) == pytest.approx(1 / 32, abs=1e-10)

    def test_exact_when_weights_critical(self):
        w = WeightSequence.finite({0: Fraction(1, 2), 2: Fraction(1, 2)})
        cov = sg_fringe_covariance(w, [CHERRY])
        assert cov.entry(0, 0) == Fraction(1, 32)

    def test_infinite_variance_drops_term(self):
        w = WeightSequence.power_law(0.1, 2.5, truncation=2000)
        cov = sg_fringe_covariance(w, [CHERRY], regime="infinite_variance")
        theta = equivalent_offspring(w).theta
        pi = float(tree_probability(theta, CHERRY))
        assert float(cov.entry(0, 0)) == pytest.approx(pi - 5 * pi * pi, rel=1e-9)

    def test_auto_regime_rejects_subcritical(self):
        w = WeightSequence.power_law(0.1, 2.5, truncation=2000)
        with pytest.raises(UnsupportedRegime):
            sg_fringe_covariance(w, [CHERRY])

    def test_degree_cov_forced_zero(self):
        cov = sg_degree_covariance(WeightSequence.finite({0: 1, 2: 1}), 2)
        assert float(cov.entry(0, 0)) == pytest.approx(0, abs=1e-10)
        assert float(cov.entry(0, 2)) == pytest.approx(0, abs=1e-10)

    def test_degree_cov_psd_geometric(self):
        cov = sg_degree_covariance(WeightSequence.geometric(Fraction(1, 3)), 6)
        assert cov.min_eigenvalue() >= -1e-9

    def test_duplicate_patterns(self):
        with pytest.raises(DuplicatePatterns):
            sg_fringe_covariance(WeightSequence.finite({0: 1, 2: 1}), [CHERRY, CHERRY])


class TestCovMatrix:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            CovMatrix.build([[1, 2], [3, 1]], ["a", "b"])

    def test_psd_enforced(self):
        with pytest.raises(ValueError):
            CovMatrix.build([[1, 2], [2, 1]], ["a", "b"])

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
                expected = outcome(pairwise_additive_variance_forms, p, toll)
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
                assert got == quadratic
                if p.is_exact:
                    assert got == direct
                else:
                    assert got == pytest.approx(direct, rel=1e-9, abs=1e-12)

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
