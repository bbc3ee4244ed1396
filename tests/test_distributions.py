import os
import pickle
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from oracle_utils import bound_copy_term, point_mass

import fringelab
from fringelab.asymptotics import equivalent_offspring
from fringelab.distributions import (
    OffspringDistribution,
    WeightSequence,
    _mass_table,
    sample_offspring,
)
from fringelab.exact_moments import (
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
        # the mean of geometric(1/2) truncated at 512: 1 - 514 / 2**513
        mean = sum(i * v for i, v in geo.probabilities().items())
        assert mean == 1 - Fraction(514, 2**513)

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
        for spec in ("cauchy:1", "finite:0:1"):
            with pytest.raises(ValueError, match="unknown distribution spec"):
                OffspringDistribution.from_spec(spec)

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

    def test_zero_has_the_type_of_the_law(self):
        # the parent read a float law's unlisted or negative degree as Fraction(0)
        exact = OffspringDistribution.finite({0: Fraction(1, 2), 2: Fraction(1, 2)})
        assert type(exact.p(1)) is type(exact.p(-1)) is Fraction
        floats = [
            OffspringDistribution.finite({0: 0.5, 2: 0.5}),
            OffspringDistribution.poisson(0.9),
            OffspringDistribution.power_law(0.2, 2.5),
        ]
        for law in floats:
            assert type(law.p(1)) is type(law.p(-1)) is float
        w = WeightSequence.finite({0: 1, 2: 0.5})
        assert type(w.weight(1)) is type(w.weight(-1)) is float

    def test_negative_power_law_coefficient_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            OffspringDistribution.power_law(-0.1, 2.5)

    def test_tally_rows_count_the_draws(self):
        w = OffspringDistribution.finite(
            {0: Fraction(1, 2), 1: Fraction(1, 3), 4: Fraction(1, 6)}
        )
        rng = np.random.default_rng(0)
        counts = sample_offspring(w, rng, 6_000 * 10, tally=10)
        degrees = _mass_table(w)[0]
        assert degrees.tolist() == [0, 1, 4]
        assert counts.shape == (6_000, 3)
        assert (counts.sum(axis=1) == 10).all()
        for j, degree in enumerate(degrees):
            assert counts[:, j].mean() / 10 == pytest.approx(
                float(w.p(int(degree))), abs=0.01
            )
        with pytest.raises(ValueError):
            sample_offspring(w, rng, 25, tally=10)
        with pytest.raises(TypeError):  # draws come only as count rows
            sample_offspring(w, rng, 20)


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
        # a * b**i * w_i with a = 2, b = 3 tilts to the same law
        w = WeightSequence.finite({0: 1, 2: 1})
        scaled = WeightSequence.finite({0: 2, 2: 18})
        base, tilted = equivalent_offspring(w).theta, equivalent_offspring(scaled).theta
        assert tilted.support() == base.support() == (0, 2)
        assert tilted.p(0) == pytest.approx(base.p(0), abs=1e-12)

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

    def test_every_kind_checked_at_construction(self):
        for kind, params in [
            ("finite", ((0, Fraction(1)), (1, Fraction(1)))),
            ("geometric", (Fraction(-1, 2),)),
            ("poisson", (-1.0,)),
            ("power_law", (0.0, 2.5)),
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

    def test_truncation_checked(self):
        # a negative truncation left an empty support, and a float or bool
        # one built a law that failed, or read as 1, only at first use
        for law in (
            lambda: OffspringDistribution.geometric(Fraction(1, 2), truncation=-3),
            lambda: WeightSequence.poisson(1.0, truncation=-3),
        ):
            with pytest.raises(ValueError, match="truncation -3 must be at least 0"):
                law()
        for truncation in (2.5, True):
            for cls in (OffspringDistribution, WeightSequence):
                with pytest.raises(TypeError, match="is not an integer"):
                    cls.poisson(1.0, truncation=truncation)

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
            "finite{}",
            "finite{0:1/2,2}",
            "finite{x:1}",
            "finite{0:1/0}",
            "finite{0:1:2}",
        ],
    )
    def test_malformed_spec_is_named(self, spec):
        nouns = {OffspringDistribution: "distribution", WeightSequence: "weight"}
        for cls, noun in nouns.items():
            with pytest.raises(ValueError, match=f"malformed {noun} spec") as info:
                cls.from_spec(spec)
            assert repr(spec) in str(info.value)

    def test_finite_label_of_an_invalid_law_names_its_fault(self):
        with pytest.raises(ValueError, match="sum to 5/6"):
            OffspringDistribution.from_spec("finite{0:1/2,2:1/3}")

    def test_laws_of_different_classes_never_equal(self):
        p = OffspringDistribution.finite({0: Fraction(1, 2), 2: Fraction(1, 2)})
        w = WeightSequence.finite({0: Fraction(1, 2), 2: Fraction(1, 2)})
        assert p.params == w.params and p != w
        assert p.label() == w.label() == "finite{0:1/2,2:1/2}"
        assert w.critical_law() == p


FULL_BINARY_LAW = OffspringDistribution.finite({0: Fraction(1, 2), 2: Fraction(1, 2)})
GEOMETRIC_HALF = OffspringDistribution.geometric(Fraction(1, 2))

# Pickles a law with one string hash seed, then unpickles it with another
# and looks it up by a freshly built equal law.
_PICKLE_LAW = (
    "import pickle, sys; from fractions import Fraction; "
    "from fringelab.distributions import OffspringDistribution as O; "
    "sys.stdout.buffer.write(pickle.dumps(O.finite({0: Fraction(1, 3), 2: Fraction(2, 3)})))"
)
_LOOK_UP_LAW = (
    "import pickle, sys; from fractions import Fraction; "
    "from fringelab.distributions import OffspringDistribution as O; "
    "law = pickle.loads(sys.stdin.buffer.read()); "
    "fresh = O.finite({0: Fraction(1, 3), 2: Fraction(2, 3)}); "
    "print(law == fresh, hash(law) == hash(fresh), {fresh: 1}.get(law))"
)


class TestLawHash:
    """A law's hash is computed once and kept; equality is by class and
    fields."""

    @staticmethod
    def run(code, hash_seed, data=None):
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
        env["PYTHONPATH"] = str(Path(fringelab.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], input=data, env=env, capture_output=True, check=True
        )
        return done.stdout

    def test_pickled_law_is_found_in_a_process_with_other_str_hashes(self):
        data = self.run(_PICKLE_LAW, 1)
        assert self.run(_LOOK_UP_LAW, 2, data).decode().split() == ["True", "True", "1"]

    def test_pickle_round_trip_in_process(self):
        for law in (FULL_BINARY_LAW, WeightSequence.power_law(0.5, 2.5), GEOMETRIC_HALF):
            again = pickle.loads(pickle.dumps(law))
            assert again == law and hash(again) == hash(law) and type(again) is type(law)

    def test_equal_float_and_exact_laws_share_a_partial_sum_slot(self):
        exact = FULL_BINARY_LAW
        floating = OffspringDistribution.finite({0: 0.5, 2: 0.5})
        assert floating == exact and hash(floating) == hash(exact)
        _partial_sum_cached.cache_clear()
        partial_sum_pmf(exact, 9)
        partial_sum_pmf(floating, 9)
        info = _partial_sum_cached.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        _partial_sum_cached.cache_clear()

    def test_offspring_law_never_equals_weight_sequence(self):
        for spec in ("geometric:1/2", "poisson:0.9"):
            p, w = OffspringDistribution.from_spec(spec), WeightSequence.from_spec(spec)
            assert p.params == w.params and p.truncation == w.truncation
            assert p != w and w != p
            assert len({p: 0, w: 1}) == 2


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
            results = list(pool.map(lambda m: partial_sum_pmf(w, m)[0], [40] * 32))
        assert len(set(results)) == 1

    def test_concurrent_prefix_extension(self):
        # eight threads ask for different lengths of one cold series at once,
        # so they extend the shared prefix at the same time
        w = OffspringDistribution.finite(
            {0: Fraction(3, 8), 1: Fraction(1, 8), 3: Fraction(1, 2)}
        )
        _partial_sum_cached.cache_clear()
        full = partial_sum_pmf(w, 300)
        ks = [900 - 97 * t for t in range(8)]
        barrier = threading.Barrier(len(ks))

        def mass(k):
            barrier.wait()
            return point_mass(w, 300, k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                _partial_sum_cached.cache_clear()
                with ThreadPoolExecutor(max_workers=len(ks)) as pool:
                    assert list(pool.map(mass, ks)) == [full.get(k, 0) for k in ks]
        finally:
            sys.setswitchinterval(interval)
        assert partial_sum_pmf(w, 300) == full
