import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from oracle_utils import (
    all_degree_statistics,
    all_trees_up_to,
    offsetwise_count_occurrences,
    rolled_excursion_degrees,
)

from fringelab import mc_harness
from fringelab.errors import TooFewSamples
from fringelab.exact_moments import mean_count
from fringelab.mc_harness import (
    ExperimentConfig,
    StatFamily,
    _count_occurrences,
    _degree_masks,
    _empirical_moments,
    _hub_law,
    collect_counts,
    composition_crosscheck,
    exact_covariance,
    exact_variance,
    moment_condition_scan,
    moment_gap_scan,
    normality_test,
    run_experiment,
)
from fringelab.sampling import Seed, excursion_degrees
from fringelab.tree_core import (
    DegreeStatistic,
    PlaneTree,
    count_fringe,
    enumerate_trees,
)

LEAF = PlaneTree((0,))
CHERRY = PlaneTree((2, 0, 0))
PATH3 = PlaneTree((1, 1, 0))


def _count(hay, needle, degrees=()):
    """_count_occurrences given the masks collect_counts builds, over the
    needle's degrees and any others in ``degrees``."""
    masks = _degree_masks(hay, set(needle.tolist()) | set(degrees))
    return _count_occurrences(hay, needle, masks)


class TestFamilies:
    @pytest.mark.parametrize("name", ["full_binary", "geometric_profile"])
    @pytest.mark.parametrize("size", [50, 101, 1000, 9999, 20000])
    def test_feasible_across_sizes(self, name, size):
        # the geometric profile drifts by O(log^2 size) when the balance
        # correction lands on n(0)
        stat = StatFamily(name).statistic(size)
        assert abs(stat.size - size) <= max(20, size // 10)

    def test_full_binary_counts(self):
        stat = StatFamily.full_binary().statistic(10001)
        assert stat.as_dict() == {0: 5001, 2: 5000}

    def test_one_hub_profile(self):
        stat = StatFamily.one_hub(0.5).statistic(300)
        counts = stat.as_dict()
        hubs = [d for d in counts if d >= 2]
        assert len(hubs) == 1 and counts[hubs[0]] == 1

    def test_convergence_to_target(self):
        for family in (StatFamily.full_binary(), StatFamily.geometric_profile()):
            target = family.target()
            for degree in range(4):
                gaps = []
                for size in (500, 5000, 50000):
                    stat = family.statistic(size)
                    emp = Fraction(stat.count(degree), stat.size)
                    gaps.append(abs(float(emp - Fraction(target.p(degree)))))
                assert gaps[-1] <= gaps[0] + 1e-9
                assert gaps[-1] < 0.01


class TestConfig:
    def test_defaults_echo(self):
        assert ExperimentConfig.from_dict({}).to_dict() == {
            "family": "full_binary",
            "patterns": ["2,0,0"],
            "sizes": [10001],
            "replicates": 2000,
            "seed": {"value": 0, "stream_id": 0},
            "tests": ["moments", "normality"],
            "standardize_with": "exact_mean",
            "ks_threshold": 0.05,
            "var_rel_tol": 0.1,
        }

    def test_every_key_echoes_as_read(self):
        raw = {
            "family": "one_hub",
            "family_params": [1],
            "patterns": ["1,0", "0"],
            "sizes": [301, 401],
            "replicates": 120,
            "seed": {"stream_id": 2},
            "tests": ["normality"],
            "standardize_with": "plugin",
            "ks_threshold": 1,
            "var_rel_tol": 2,
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.family == StatFamily("one_hub", (1,))
        # the label carries the parameters, and the thresholds echo as floats
        assert cfg.to_dict() == {
            **{key: value for key, value in raw.items() if key != "family_params"},
            "family": "one_hub(1)",
            "seed": {"value": 0, "stream_id": 2},
            "ks_threshold": 1.0,
            "var_rel_tol": 2.0,
        }

    def test_echo_reads_back(self):
        echo = ExperimentConfig.from_dict({"patterns": ["2,0,0", "1,0"], "sizes": [501]}).to_dict()
        assert ExperimentConfig.from_dict(echo).to_dict() == echo

    def test_one_hub_echo_reads_back(self):
        cfg = ExperimentConfig.from_dict({"family": "one_hub", "family_params": [0.5]})
        echo = cfg.to_dict()
        assert echo["family"] == "one_hub(0.5)"
        assert ExperimentConfig.from_dict(echo) == cfg

    @pytest.mark.parametrize(
        "family",
        [StatFamily.full_binary(), StatFamily.geometric_profile(), StatFamily.one_hub(0.25),
         StatFamily.one_hub(2), StatFamily("one_hub", (3,)), StatFamily.one_hub(1e-7),
         StatFamily.one_hub(1), StatFamily.one_hub(0.5), StatFamily.one_hub(np.float64(0.5))],
    )
    def test_family_label_reads_back(self, family):
        assert StatFamily.from_label(family.label()) == family

    @pytest.mark.parametrize(
        "text, params",
        [("one_hub(0.5", ()), ("one_hub(0.5)x", ()), ("one_hub(a)", ()), ("one_hub()", ()),
         ("one_hub(0.5)", (0.5,)), ("one_hub", ()), ("one_hub(0.5,1)", ())],
    )
    def test_bad_family_label(self, text, params):
        with pytest.raises(ValueError):
            StatFamily.from_label(text, params)

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda: StatFamily("binary"), ValueError),
            (lambda: StatFamily("full_binary", (7,)), ValueError),
            (lambda: StatFamily("one_hub"), ValueError),
            (lambda: StatFamily("one_hub", (-0.5,)), ValueError),
            (lambda: StatFamily.one_hub(float("nan")), ValueError),
            (lambda: StatFamily.one_hub(float("inf")), ValueError),
            (lambda: StatFamily.from_label("one_hub(true)"), ValueError),
            (lambda: StatFamily("one_hub", ("0.5",)), ValueError),
            (lambda: _config(tests=("moment",)), ValueError),
            (lambda: _config(standardize_with="plugn"), ValueError),
            (lambda: _config(patterns=(CHERRY, CHERRY)), ValueError),
            (lambda: _config(sizes=(301.7,)), TypeError),
            (lambda: _config(replicates=120.0), TypeError),
            (lambda: _config(replicates=1), ValueError),
            (lambda: _config(sizes=()), ValueError),
            (lambda: _config(patterns=()), ValueError),
            (lambda: ExperimentConfig.from_dict([]), ValueError),
            (lambda: ExperimentConfig.from_dict({"replicate": 5}), ValueError),
            (lambda: ExperimentConfig.from_dict({"seed": 5}), ValueError),
            (lambda: ExperimentConfig.from_dict({"seed": {"value": "5"}}), TypeError),
            (lambda: ExperimentConfig.from_dict({"patterns": [[2, 0, 0]]}), ValueError),
            (lambda: ExperimentConfig.from_dict({"patterns": "0"}), ValueError),
            (lambda: ExperimentConfig.from_dict({"patterns": "2,0,0"}), ValueError),
            (lambda: ExperimentConfig.from_dict({"sizes": 101}), ValueError),
            (lambda: _config(sizes=(301, 2)), ValueError),
            (lambda: ExperimentConfig.from_dict(
                {"sizes": [301, 2], "replicates": 50, "tests": ["moments"]}), ValueError),
            (lambda: ExperimentConfig.from_dict({"ks_threshold": -1}), ValueError),
            (lambda: ExperimentConfig.from_dict({"ks_threshold": 0}), ValueError),
            (lambda: ExperimentConfig.from_dict({"ks_threshold": True}), ValueError),
            (lambda: ExperimentConfig.from_dict({"ks_threshold": "0.05"}), ValueError),
            (lambda: ExperimentConfig.from_dict({"var_rel_tol": "nan"}), ValueError),
            (lambda: ExperimentConfig.from_dict({"var_rel_tol": float("nan")}), ValueError),
            (lambda: ExperimentConfig.from_dict({"var_rel_tol": float("inf")}), ValueError),
            (lambda: _config(var_rel_tol=-0.1), ValueError),
            (lambda: _config(tests=()), ValueError),
            (lambda: _config(tests="moments"), ValueError),
            (lambda: ExperimentConfig.from_dict({"tests": []}), ValueError),
            (lambda: ExperimentConfig.from_dict({"tests": "moments"}), ValueError),
            (lambda: ExperimentConfig.from_dict({"tests": {"moments": 1}}), ValueError),
            (lambda: ExperimentConfig.from_dict({"tests": [["moments"]]}), ValueError),
            (lambda: ExperimentConfig.from_dict({"sizes": [200001, 301], "replicates": 99}), ValueError),
            (lambda: StatFamily.one_hub(True), ValueError),
            (lambda: StatFamily.one_hub("0.5"), ValueError),
            (lambda: StatFamily.one_hub(Fraction(1, 2)), ValueError),
        ],
        ids=[
            "unknown-family", "extra-param", "missing-param", "negative-ratio", "nan-ratio",
            "infinite-ratio", "bool-ratio-label", "string-ratio", "unknown-test", "unknown-standardizer", "repeated-pattern", "float-size",
            "float-replicates", "one-replicate", "no-sizes", "no-patterns", "not-an-object", "unknown-key", "seed-not-object",
            "string-seed", "pattern-not-text", "patterns-string-leaf", "patterns-string-cherry", "sizes-int",
            "size-below-3", "size-below-3-after-a-valid-one",
            "negative-ks-threshold", "zero-ks-threshold", "bool-ks-threshold", "string-ks-threshold",
            "string-nan-tolerance", "nan-tolerance", "infinite-tolerance", "negative-tolerance",
            "no-tests", "tests-string", "no-tests-read", "tests-string-read", "tests-object-read",
            "tests-nested-list-read", "too-few-replicates-for-normality", "bool-ratio-builder", "string-ratio-builder",
            "fraction-ratio-builder",
        ],
    )
    def test_rejected(self, make, error):
        with pytest.raises(error):
            make()


def _config(**changes) -> ExperimentConfig:
    fields = dict(
        family=StatFamily.full_binary(),
        patterns=(CHERRY,),
        sizes=(301,),
        replicates=120,
        seed=Seed(1),
    )
    return ExperimentConfig(**{**fields, **changes})


class TestCountCollection:
    def test_window_counter_matches_reference(self):
        rng = np.random.default_rng(3)
        for stat in all_degree_statistics(8)[:10]:
            for tree in list(enumerate_trees(stat))[:5]:
                hay = np.array(tree.degrees)
                for pattern in all_trees_up_to(4):
                    assert _count(
                        hay, np.array(pattern.degrees)
                    ) == count_fringe(tree, pattern)

    def test_counter_matches_offsetwise_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            hay = rng.integers(0, 4, rng.integers(1, 30))
            needle = rng.integers(0, 4, rng.integers(1, 7))
            expected = offsetwise_count_occurrences(hay, needle)
            assert _count(hay, needle) == expected
            # masks of degrees outside the needle, as for several patterns
            assert _count(hay, needle, range(5)) == expected

    def test_needle_longer_than_hay(self):
        assert _count(np.array([2, 0, 0]), np.array([2, 2, 0, 0, 0])) == 0

    def test_needle_is_the_whole_tree(self):
        tree = np.array([3, 0, 2, 0, 0, 1, 0])
        assert _count(tree, tree.copy()) == 1

    def test_one_vertex_tree(self):
        assert _count(np.array([0]), np.array([0])) == 1
        assert _count(np.array([0]), np.array([1, 0])) == 0

    def test_needle_degree_absent_from_hay(self):
        hay = np.array([2, 2, 0, 0, 2, 0, 0])
        assert _count(hay, np.array([1, 0])) == 0
        assert _count(hay, np.array([2, 3, 0, 0, 0, 0])) == 0

    def test_every_small_tree_and_pattern(self):
        patterns = all_trees_up_to(4)
        for tree in all_trees_up_to(7):
            hay = np.array(tree.degrees)
            for pattern in patterns:
                assert _count(
                    hay, np.array(pattern.degrees)
                ) == count_fringe(tree, pattern)

    def test_counts_equal_the_rolled_oracle_pipeline(self):
        # the sampled words and their counts are those of the first forms
        # of the rotation and the counter, replicate by replicate: chunk c
        # of 2**17 // n replicates draws them in turn from
        # seed.generator(size_index, c).  Each run spans three chunks, the
        # last one short; 10 001 entries take the sampled-positions shuffle
        patterns = [CHERRY, PlaneTree((2, 2, 0, 0, 0))]
        needles = [np.array(p.degrees) for p in patterns]
        runs = ((1001, 130, 270), (10_001, 13, 30))
        for (size, length, replicates), seed in product(runs, (Seed(1), Seed(101, 3))):
            stat = StatFamily.full_binary().statistic(size)
            multiset = stat.degree_multiset()
            counts = collect_counts(stat, patterns, replicates, seed, size_index=1)
            expected = []
            for chunk in range(3):
                rng = seed.generator(1, chunk)
                for _ in range(min(length, replicates - chunk * length)):
                    word = rolled_excursion_degrees(multiset, rng)
                    expected.append([offsetwise_count_occurrences(word, x) for x in needles])
            assert counts.tolist() == expected
            # replicate 0 is the first word of seed.generator(size_index, 0)
            tree = PlaneTree(tuple(excursion_degrees(multiset, seed.generator(1, 0)).tolist()))
            assert counts[0].tolist() == [count_fringe(tree, p) for p in patterns]

    def test_deterministic_given_seed(self):
        stat = DegreeStatistic.from_counts({0: 51, 2: 50})
        a = collect_counts(stat, [CHERRY], 40, Seed(9), size_index=2)
        b = collect_counts(stat, [CHERRY], 40, Seed(9), size_index=2)
        assert (a == b).all()

    def test_worker_split_invariance(self, monkeypatch):
        # at least two chunks per worker, so the pool starts, on both
        # shuffle paths: 130 replicates a chunk at n = 1 001, 13 at 10 001
        started = []

        class Pool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(mc_harness, "ProcessPoolExecutor", Pool)
        for size, replicates, workers in ((1001, 700, 3), (10_001, 50, 2)):
            stat = StatFamily.full_binary().statistic(size)
            monkeypatch.setenv("FRINGELAB_THREADS", "1")
            serial = collect_counts(stat, [CHERRY, LEAF], replicates, Seed(4))
            monkeypatch.setenv("FRINGELAB_THREADS", str(workers))
            parallel = collect_counts(stat, [CHERRY, LEAF], replicates, Seed(4))
            assert (serial == parallel).all()
        assert started == [3, 2]

    def test_zero_replicates_give_an_empty_matrix(self):
        stat = DegreeStatistic.from_counts({0: 3, 2: 2})
        assert collect_counts(stat, [CHERRY, LEAF], 0, Seed(1)).shape == (0, 2)

    @pytest.mark.parametrize(
        "replicates, error, message",
        [
            (-3, ValueError, "replicates = -3"),
            (2.0, TypeError, "is not an integer"),
        ],
    )
    def test_replicate_count_rejected(self, replicates, error, message):
        stat = DegreeStatistic.from_counts({0: 3, 2: 2})
        with pytest.raises(error, match=message):
            collect_counts(stat, [CHERRY], replicates, Seed(1))


class TestEmpiricalMoments:
    def test_hand_checked_matrix(self):
        # columns x = 0,1,2,5 and y = 1,3,2,2: both means 2; the fourth
        # central moments are 98/4 and 2/4
        emp = _empirical_moments(np.array([[0, 1], [1, 3], [2, 2], [5, 2]]))
        assert emp["mean"] == [2, 2]
        assert emp["var"] == [Fraction(14, 3), Fraction(2, 3)]
        assert emp["cov"] == [
            [Fraction(14, 3), Fraction(1, 3)],
            [Fraction(1, 3), Fraction(2, 3)],
        ]
        assert all(isinstance(v, Fraction) for v in emp["mean"] + emp["var"])
        assert emp["se_mean"] == pytest.approx([math.sqrt(7 / 6), math.sqrt(1 / 6)])
        # se_var = sqrt((m4 - var^2) / R)
        assert emp["se_var"] == pytest.approx([7 / math.sqrt(72), 1 / math.sqrt(72)])


class TestNormalityTest:
    def test_calibration(self):
        z = np.random.default_rng(0).standard_normal(10_000)
        distance, ok = normality_test(z)
        assert distance < 0.02 and ok

    def test_constant_fails(self):
        distance, ok = normality_test(np.ones(500))
        assert distance == 0.5 and not ok

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            normality_test(np.zeros(50))


class TestExactHelpers:
    def test_variance_matches_brute_force(self):
        for stat in all_degree_statistics(7):
            for pattern in all_trees_up_to(3):
                if stat.size < 2 * pattern.size - 1:
                    continue
                counts = [
                    count_fringe(t, pattern) for t in enumerate_trees(stat)
                ]
                mean = Fraction(sum(counts), len(counts))
                var = sum((c - mean) ** 2 for c in counts) / len(counts)
                assert exact_variance(stat, pattern) == var

    def test_covariance_matches_brute_force(self):
        stat = DegreeStatistic.from_counts({0: 4, 2: 3})
        counts = [
            (count_fringe(t, CHERRY), count_fringe(t, LEAF))
            for t in enumerate_trees(stat)
        ]
        n = len(counts)
        mx = Fraction(sum(c[0] for c in counts), n)
        my = Fraction(sum(c[1] for c in counts), n)
        cov = sum((c[0] - mx) * (c[1] - my) for c in counts) / n
        assert exact_covariance(stat, CHERRY, LEAF) == cov

    def test_covariance_of_a_pattern_with_itself_is_its_variance(self):
        stat = DegreeStatistic.from_counts({0: 4, 2: 3})
        for pattern in (CHERRY, LEAF):
            assert exact_covariance(stat, pattern, pattern) == exact_variance(stat, pattern)


class TestRunExperiment:
    def test_leaf_pattern_degenerate(self):
        cfg = ExperimentConfig(
            family=StatFamily.full_binary(),
            patterns=(LEAF,),
            sizes=(401,),
            replicates=150,
            seed=Seed(1),
        )
        report = run_experiment(cfg)
        entry = report.per_size[0]
        assert entry["empirical_var"] == [0.0]
        assert entry["ks"] == [None]
        assert all(v["passed"] for v in report.verdicts)

    def test_small_full_binary(self):
        cfg = ExperimentConfig(
            family=StatFamily.full_binary(),
            patterns=(CHERRY,),
            sizes=(2001,),
            replicates=500,
            seed=Seed(12),
            ks_threshold=0.1,
        )
        report = run_experiment(cfg)
        assert report.all_passed, [v for v in report.verdicts if not v["passed"]]
        entry = report.per_size[0]
        # computed at the empirical degree distribution, so only near 1/32
        assert entry["asymptotic_var"][0] == pytest.approx(2001 / 32, rel=1e-3)

    def test_deterministic_report(self):
        cfg = ExperimentConfig(
            family=StatFamily.geometric_profile(),
            patterns=(CHERRY, PATH3),
            sizes=(501,),
            replicates=120,
            seed=Seed(77),
        )
        assert run_experiment(cfg).to_dict() == run_experiment(cfg).to_dict()

    def test_samples_kept_in_run_order_outside_the_report(self):
        # full_binary 1000 and 1001 both give n = 1001, on different streams
        report = run_experiment(_config(patterns=(CHERRY, PATH3), sizes=(1000, 1001)))
        assert [(n, text) for n, text, _ in report.samples] == [
            (1001, "2,0,0"),
            (1001, "1,1,0"),
            (1001, "2,0,0"),
            (1001, "1,1,0"),
        ]
        assert not np.array_equal(report.samples[0][2], report.samples[2][2])
        assert "samples" not in report.to_dict()
        # each block is the size's counts less the exact mean, over sqrt(n)
        stat = StatFamily.full_binary().statistic(1001)
        counts = collect_counts(stat, [CHERRY], 120, Seed(1), size_index=1)
        expected = (counts[:, 0] - float(mean_count(stat, CHERRY))) / math.sqrt(1001)
        assert np.array_equal(report.samples[2][2], expected)

    @pytest.mark.parametrize("tests", [("moments",), ("normality",)], ids=["moments", "normality"])
    def test_samples_kept_whatever_the_tests(self, tests):
        # they were once kept only when the KS verdicts ran
        both = run_experiment(_config(patterns=(CHERRY, PATH3))).samples
        samples = run_experiment(_config(patterns=(CHERRY, PATH3), tests=tests)).samples
        assert [(n, text) for n, text, _ in samples] == [(n, text) for n, text, _ in both]
        assert all(np.array_equal(z, expected) for (*_, z), (*_, expected) in zip(samples, both))

    def test_ks_verdict_is_strict(self):
        distance = run_experiment(_config(tests=("normality",))).per_size[0]["ks"][0]
        for threshold, passed in ((distance, False), (math.nextafter(distance, 1), True)):
            (verdict,) = run_experiment(_config(tests=("normality",), ks_threshold=threshold)).verdicts
            assert verdict["observed"] == distance and verdict["passed"] is passed

    def test_standardization_modes_agree_at_scale(self):
        reports = {}
        for mode in ("exact_mean", "plugin"):
            cfg = ExperimentConfig(
                family=StatFamily.full_binary(),
                patterns=(CHERRY,),
                sizes=(10001,),
                replicates=600,
                seed=Seed(3),
                tests=("normality",),
                standardize_with=mode,
            )
            reports[mode] = run_experiment(cfg).per_size[0]["ks"][0]
        assert abs(reports["exact_mean"] - reports["plugin"]) <= 0.01


class TestMomentConditionScan:
    def test_q0_is_exact_zero(self):
        rows = moment_condition_scan(
            StatFamily.full_binary(), CHERRY, [301], c=0.0
        )
        assert rows[0]["deviations"] == [0.0]

    @pytest.mark.parametrize("c", [math.inf, -1.0, math.nan])
    def test_c_must_be_finite_and_nonnegative(self, c):
        with pytest.raises(ValueError, match="must be finite and at least 0"):
            moment_condition_scan(StatFamily.full_binary(), CHERRY, [301], c=c)

    def test_deviations_shrink(self):
        rows = moment_condition_scan(
            StatFamily.full_binary(), CHERRY, [1001, 10001], c=1.0
        )
        assert rows[0]["max_deviation"] > rows[1]["max_deviation"]


class TestMomentGapScan:
    def test_leaf_gaps_vanish(self):
        out = moment_gap_scan(StatFamily.full_binary(), LEAF, [101, 1001])
        assert out["sup_mean_gap"] == 0 and out["sup_var_gap"] == 0

    def test_cherry_bounded(self):
        out = moment_gap_scan(
            StatFamily.full_binary(), CHERRY, [101, 1001, 10001]
        )
        assert out["sup_mean_gap"] < 1 and out["sup_var_gap"] < 1

    def test_geometric_path3_bounded(self):
        out = moment_gap_scan(
            StatFamily.geometric_profile(), PATH3, [101, 1001, 10001]
        )
        assert out["sup_var_gap"] < 10


class TestCompositionCrosscheck:
    def test_degenerate(self):
        result = composition_crosscheck(2, 0, 200, Seed(0))
        assert result["support"] == result["exact_support"] == [0]
        assert result["exact_p_uniform"] == 1.0 and result["passed"]

    def test_small_case_with_exact_law(self):
        result = composition_crosscheck(2, 3, 10_000, Seed(9))
        assert result["exact_p_uniform"] > 1e-3
        assert result["passed"]

    def test_hub_law_matches_enumeration(self):
        # enumeration is the oracle: every hub profile with n0, n1 <= 12 and
        # at most 2 000 trees
        path2 = PlaneTree((1, 0))
        checked = 0
        for n0 in range(2, 13):
            for n1 in range(13):
                total = math.comb(n0 + n1, n0)
                if total > 2_000:
                    continue
                stat = DegreeStatistic.from_counts({0: n0, 1: n1, n0: 1})
                law = _hub_law(n0, n1)
                trees = list(enumerate_trees(stat, cap=stat.size))
                assert len(trees) == total == sum(law)
                enumerated = Counter(count_fringe(tree, path2) for tree in trees)
                assert {k: Fraction(v, total) for k, v in enumerated.items()} == {
                    k: Fraction(v, total) for k, v in enumerate(law)
                }
                checked += 1
        assert checked == 89

    def test_tail_cells_are_pooled(self):
        # the first seed from 0 whose unpooled p is below 1e-3: 1 draw in the
        # cell k = 0, which expects 0.17, and 4 in k = 6, which expects 1.2,
        # gave p = 5.6e-4 unpooled and 3.1e-3 pooled
        result = composition_crosscheck(6, 7, 300, Seed(305))
        assert result["exact_p_uniform"] > 1e-3 and result["passed"]
        # one draw pools every cell into one, which holds it
        result = composition_crosscheck(2, 3, 1, Seed(0))
        assert result["exact_p_uniform"] == 1.0

    def test_exact_law_above_ten_thousand_trees(self):
        # C(120, 60) trees: far too many to enumerate
        result = composition_crosscheck(60, 60, 2_000, Seed(0))
        assert result["exact_support"] == list(range(61))
        assert math.isfinite(result["exact_p_uniform"])
        assert result["exact_p_uniform"] > 1e-3
        assert result["passed"]

    def test_draw_outside_the_support_fails(self, monkeypatch):
        # a sampler that returns the tree 1,0 gives N = 1 where the law of
        # {0: 2, 2: 1} is the point mass at 0
        monkeypatch.setattr(
            mc_harness, "sample_uniform_trees", lambda stat, reps, rng: [PlaneTree((1, 0))] * reps
        )
        result = composition_crosscheck(2, 0, 50, Seed(0))
        assert result["exact_p_uniform"] == 0.0
        assert not result["passed"]
