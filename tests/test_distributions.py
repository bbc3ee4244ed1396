import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from oracle_utils import bound_copy_term, point_mass

from fringelab.distributions import (
    OffspringDistribution,
    WeightSequence,
    sample_offspring,
)
from fringelab.exact_moments import (
    PARTIAL_SUM_CAP,
    _partial_sum_cached,
    containment_matrix,
    partial_sum_pmf,
)
from fringelab.tree_core import DegreeStatistic, PlaneTree, degree_statistic


class TestOffspringDistribution:
    def test_geometric_exact(self):
        geo = OffspringDistribution.geometric(Fraction(1, 2))
        assert geo.p(3) == Fraction(1, 16)
        assert geo.is_exact
        assert geo.mean() == 1

    def test_finite_validation(self):
        with pytest.raises(ValueError):
            OffspringDistribution.finite({0: Fraction(1, 2), 2: Fraction(1, 3)})
        with pytest.raises(ValueError):
            OffspringDistribution.finite({0: Fraction(3, 2), 2: Fraction(-1, 2)})

    def test_poisson_normalized(self):
        poi = OffspringDistribution.poisson(0.9)
        assert sum(poi.probabilities().values()) == pytest.approx(1, abs=1e-12)
        assert not poi.is_exact

    def test_power_law_leaf_mass(self):
        pl = OffspringDistribution.power_law(0.2, 2.5)
        probs = pl.probabilities()
        assert probs[0] > 0
        assert sum(probs.values()) == pytest.approx(1, abs=1e-12)

    def test_from_spec(self):
        assert OffspringDistribution.from_spec("geometric:1/2").p(0) == Fraction(1, 2)
        assert OffspringDistribution.from_spec("poisson:1.0").kind == "poisson"
        with pytest.raises(ValueError, match="unknown distribution spec"):
            OffspringDistribution.from_spec("cauchy:1")

    @pytest.mark.parametrize(
        "law",
        [
            OffspringDistribution.power_law(0, 2.5),
            OffspringDistribution.power_law(0.1, 400),
            OffspringDistribution.poisson(0.9),
        ],
        ids=lambda law: law.label(),
    )
    def test_support_lists_positive_probabilities_only(self, law):
        # power_law(0.1, 400) underflows to 0.0 from degree 6 on
        support = law.support()
        assert all(law.p(i) > 0 for i in support)
        assert sum(law.probabilities().values()) == pytest.approx(1, abs=1e-12)

    def test_zero_coefficient_power_law_is_a_point_mass(self):
        assert OffspringDistribution.power_law(0, 2.5).support() == (0,)

    @pytest.mark.parametrize("degree", [1.5, Fraction(1), 2.0])
    def test_non_integer_finite_degree_raises(self, degree):
        with pytest.raises(TypeError, match=re.escape(repr(degree))):
            OffspringDistribution.finite({0: Fraction(1, 2), degree: Fraction(1, 2)})

    def test_numpy_integer_degrees_pass(self):
        law = OffspringDistribution.finite({np.int64(0): Fraction(1, 2), np.int32(2): Fraction(1, 2)})
        assert law == OffspringDistribution.finite({0: Fraction(1, 2), 2: Fraction(1, 2)})
        assert all(type(d) is int for d in law.support())

    def test_negative_power_law_coefficient_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            OffspringDistribution.power_law(-0.1, 2.5)

    def test_sampling_matches_pmf(self):
        w = OffspringDistribution.finite(
            {0: Fraction(1, 2), 1: Fraction(1, 3), 4: Fraction(1, 6)}
        )
        rng = np.random.default_rng(0)
        draws = sample_offspring(w, rng, 60_000)
        for degree in (0, 1, 4):
            assert (draws == degree).mean() == pytest.approx(
                float(w.p(degree)), abs=0.01
            )

    def test_tally_rows_count_the_draws(self):
        w = OffspringDistribution.finite(
            {0: Fraction(1, 2), 1: Fraction(1, 3), 4: Fraction(1, 6)}
        )
        rng = np.random.default_rng(0)
        degrees, counts = sample_offspring(w, rng, 6_000 * 10, tally=10)
        assert degrees.tolist() == [0, 1, 4]
        assert counts.shape == (6_000, 3)
        assert (counts.sum(axis=1) == 10).all()
        for j, degree in enumerate(degrees):
            assert counts[:, j].mean() / 10 == pytest.approx(
                float(w.p(int(degree))), abs=0.01
            )
        with pytest.raises(ValueError):
            sample_offspring(w, rng, 25, tally=10)


class TestWeightSequence:
    def test_weight_constraints(self):
        with pytest.raises(ValueError):
            WeightSequence.finite({1: 1, 2: 1})  # w_0 = 0
        with pytest.raises(ValueError):
            WeightSequence.finite({0: 1, 1: 1})  # no w_i > 0 with i >= 2

    def test_radius(self):
        assert WeightSequence.finite({0: 1, 2: 1}).radius_of_convergence() == float(
            "inf"
        )
        assert WeightSequence.geometric(Fraction(1, 2)).radius_of_convergence() == 2

    def test_scaled(self):
        w = WeightSequence.finite({0: 1, 2: 1})
        scaled = w.scaled(2, 3)
        assert scaled.weight(0) == 2 and scaled.weight(2) == 18

    def test_poisson_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="poisson rate must be positive"):
            WeightSequence.poisson(-1.0)
        with pytest.raises(ValueError, match="poisson rate"):
            WeightSequence.poisson(0.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            WeightSequence.power_law(-0.1, 2.5)
        with pytest.raises(ValueError, match="nonnegative"):
            WeightSequence.finite({0: 1, 1: -1, 2: 1})
        with pytest.raises(ValueError, match="w_0 must be positive"):
            WeightSequence.power_law(0.1, 2.5, w0=0)

    def test_every_kind_checked_at_construction(self):
        for kind, params in [
            ("finite", ((0, Fraction(1)), (1, Fraction(1)))),
            ("geometric", (Fraction(-1, 2),)),
            ("poisson", (-1.0,)),
            ("power_law", (0.0, 2.5, Fraction(1))),
        ]:
            with pytest.raises(ValueError):
                WeightSequence(kind, params)

    def test_non_finite_parameters_rejected(self):
        nan, inf = float("nan"), float("inf")
        for cls in (OffspringDistribution, WeightSequence):
            for spec in ("power_law:nan,2.5", "power_law:0.1,inf", "poisson:inf"):
                with pytest.raises(ValueError, match="non-finite parameter"):
                    cls.from_spec(spec)
            for law in (
                lambda: cls.finite({0: nan, 2: 0.5}),
                lambda: cls.poisson(-inf),
                lambda: cls.power_law(inf, 2.5),
            ):
                with pytest.raises(ValueError, match="non-finite parameter"):
                    law()
        with pytest.raises(ValueError, match="non-finite parameter"):
            WeightSequence.power_law(0.1, 2.5, w0=inf)

    def test_from_spec_rejects_extra_power_law_fields(self):
        for cls in (OffspringDistribution, WeightSequence):
            with pytest.raises(ValueError):
                cls.from_spec("power_law:0.1,2.5,7")
        with pytest.raises(ValueError, match="unknown weight spec"):
            WeightSequence.from_spec("cauchy:1")

    @pytest.mark.parametrize(
        "spec",
        [
            "power_law:0.1,2.5,7",
            "power_law:0.1",
            "poisson:abc",
            "poisson:1,2",
            "geometric:x",
            "geometric:1/0",
        ],
    )
    def test_malformed_spec_is_named(self, spec):
        nouns = {OffspringDistribution: "distribution", WeightSequence: "weight"}
        for cls, noun in nouns.items():
            with pytest.raises(ValueError, match=f"malformed {noun} spec") as info:
                cls.from_spec(spec)
            assert repr(spec) in str(info.value)

    def test_laws_of_different_classes_never_equal(self):
        p = OffspringDistribution.finite({0: Fraction(1, 2), 2: Fraction(1, 2)})
        w = WeightSequence.finite({0: Fraction(1, 2), 2: Fraction(1, 2)})
        assert p.params == w.params and p != w
        assert p.label() == w.label() == "finite{0:1/2,2:1/2}"
        assert w.critical_law() == p


class TestBoundTermInvariants:
    def test_summands_nonnegative(self):
        stat = DegreeStatistic.from_counts({0: 4, 2: 3})
        patterns = [PlaneTree((0,)), PlaneTree((2, 0, 0))]
        profiles = [degree_statistic(p).as_dict() for p in patterns]
        tau = containment_matrix(patterns)
        for q in product(range(1, 3), repeat=2):
            for b in product(range(3), repeat=2):
                term = bound_copy_term(stat, patterns, profiles, list(q), list(b), tau)
                assert term >= 0
                if any(bj > qj for bj, qj in zip(b, q)):
                    assert term == 0


class TestPartialSumCacheConcurrency:
    def test_concurrent_readers(self):
        w = OffspringDistribution.finite({0: Fraction(1, 2), 2: Fraction(1, 2)})
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda m: partial_sum_pmf(w, m).pmf[0], [40] * 32))
        assert len(set(results)) == 1

    def test_concurrent_prefix_extension(self):
        # eight threads ask for different lengths of one cold series at once,
        # so they extend the shared prefix at the same time
        w = OffspringDistribution.finite(
            {0: Fraction(3, 8), 1: Fraction(1, 8), 3: Fraction(1, 2)}
        )
        _partial_sum_cached.cache_clear()
        full = partial_sum_pmf(w, 300).pmf
        ks = [900 - 97 * t for t in range(8)]
        barrier = threading.Barrier(len(ks))

        def mass(k):
            barrier.wait()
            return point_mass(w, 300, k, PARTIAL_SUM_CAP)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                _partial_sum_cached.cache_clear()
                with ThreadPoolExecutor(max_workers=len(ks)) as pool:
                    assert list(pool.map(mass, ks)) == [full.get(k, 0) for k in ks]
        finally:
            sys.setswitchinterval(interval)
        assert partial_sum_pmf(w, 300).pmf == full
