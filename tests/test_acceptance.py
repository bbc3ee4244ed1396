"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s -v tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here, not configurable.
"""

import math
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

from scipy import stats as scistats

from oracle_utils import (
    all_degree_statistics,
    all_trees_up_to,
    brute_degree_factorial,
    brute_mean,
    closed_form_factorial_moment,
    closed_form_product_moment,
    falling_factorial,
    random_distribution_corpus,
    rotation_images,
)

from fringelab.asymptotics import (
    TollFunction,
    additive_variance_forms,
    classify_exceptional,
    equivalent_offspring,
    fringe_covariance_density,
    normalized_variance,
    tree_probability,
)
from fringelab.distributions import OffspringDistribution, WeightSequence
from fringelab.exact_moments import (
    degree_factorial_moment,
    joint_factorial_moment,
    mean_count,
)
from fringelab.mc_harness import (
    ExperimentConfig,
    StatFamily,
    collect_counts,
    moment_condition_scan,
    moment_gap_scan,
    normality_test,
    run_experiment,
)
from fringelab.sampling import Seed, sample_uniform_trees
from fringelab.tree_core import (
    DegreeStatistic,
    PlaneTree,
    count_fringe,
    count_trees,
    enumerate_trees,
)

LEAF = PlaneTree((0,))
CHERRY = PlaneTree((2, 0, 0))
PATH3 = PlaneTree((1, 1, 0))
T5 = PlaneTree((2, 2, 0, 0, 0))

FULL_BINARY_P = OffspringDistribution.finite({0: Fraction(1, 2), 2: Fraction(1, 2)})


def _report(number: int, description: str, passed: bool, detail: str = ""):
    line = f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def all_statistics_up_to(max_size: int):
    out = []
    for size in range(1, max_size + 1):
        out.extend(all_degree_statistics(size))
    return out


def test_criterion_01_exact_mean_oracle():
    start = time.monotonic()
    patterns = all_trees_up_to(5)
    checked = 0
    for stat in all_statistics_up_to(9):
        for pattern in patterns:
            expected = brute_mean(stat, pattern)
            if stat.size < pattern.size:
                assert expected == 0
                continue
            assert mean_count(stat, pattern) == expected
            checked += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        "exact mean equals brute-force average over the full enumeration",
        checked > 1400 and elapsed < 60,
        f"{checked} pairs, {elapsed:.1f}s",
    )


def test_criterion_02_joint_moment_oracle():
    start = time.monotonic()
    patterns = all_trees_up_to(4)
    stats = all_statistics_up_to(8)
    # cache fringe counts per (statistic, tree, pattern) as plain integers
    cache = {}
    for stat in stats:
        trees = list(enumerate_trees(stat))
        cache[stat] = [
            [count_fringe(t, pattern) for pattern in patterns] for t in trees
        ]

    def brute(stat, pattern_ids, q):
        rows = cache[stat]
        total = sum(
            math.prod(
                falling_factorial(row[pid], qi) for pid, qi in zip(pattern_ids, q)
            )
            for row in rows
        )
        return Fraction(total, len(rows))

    checked = 0
    q_vectors = {1: [(1,), (2,), (3,)], 2: [(1, 1), (1, 2), (2, 1)], 3: [(1, 1, 1)]}
    for stat in stats:
        n = stat.size
        for m in (1, 2, 3):
            for ids in combinations(range(len(patterns)), m):
                chosen = [patterns[i] for i in ids]
                for q in q_vectors[m]:
                    needed = sum(qi * (t.size - 1) for qi, t in zip(q, chosen)) + 1
                    if n < needed:
                        continue
                    got = joint_factorial_moment(stat, chosen, q)
                    assert got == brute(stat, ids, q)
                    checked += 1
    # reductions: the one- and two-pattern closed forms match the joint form
    reduction_checked = 0
    for stat in stats:
        if stat.size < 5:
            continue
        for pattern in patterns:
            for q in (1, 2, 3):
                if stat.size < q * pattern.size - q + 1:
                    continue
                assert closed_form_factorial_moment(
                    stat, pattern, q
                ) == joint_factorial_moment(stat, [pattern], [q])
                reduction_checked += 1
        for t1, t2 in combinations(patterns, 2):
            if stat.size < t1.size + t2.size - 1:
                continue
            assert closed_form_product_moment(stat, t1, t2) == joint_factorial_moment(
                stat, [t1, t2], [1, 1]
            )
            reduction_checked += 1
    elapsed = time.monotonic() - start
    _report(
        2,
        "joint factorial moments equal brute force; reductions agree",
        checked > 4000 and reduction_checked > 500 and elapsed < 300,
        f"{checked} joint + {reduction_checked} reduction checks, {elapsed:.1f}s",
    )


def test_criterion_03_sampler_uniformity_and_rotation():
    start = time.monotonic()
    chosen = [
        DegreeStatistic.from_counts(c)
        for c in (
            {0: 3, 2: 2},
            {0: 2, 1: 2, 2: 1},
            {0: 3, 1: 1, 2: 2},
            {0: 2, 1: 3, 2: 1},
            {0: 4, 2: 3},
        )
    ]
    pvalues = []
    for index, stat in enumerate(chosen):
        m = count_trees(stat)
        assert 2 <= m <= 50
        reps = 100_000
        tally = Counter(
            t.degrees
            for t in sample_uniform_trees(stat, reps, Seed(1234, index))
        )
        assert len(tally) == m
        observed = list(tally.values())
        p = scistats.chisquare(observed, [reps / m] * m).pvalue
        pvalues.append(p)
    uniform_ok = all(p > 1e-3 for p in pvalues)

    # every arrangement of every profile up to size 7 through the sampler's
    # own rotation (excursion_degrees, left unshuffled)
    rotation_ok = True
    for size in range(1, 8):
        for stat in all_degree_statistics(size):
            classes = rotation_images(stat)
            images = {t.degrees for t in enumerate_trees(stat)}
            if (
                set(classes) != images
                or set(classes.values()) != {size}
                or sum(classes.values()) != size * count_trees(stat)
            ):
                rotation_ok = False
    elapsed = time.monotonic() - start
    _report(
        3,
        "uniform sampler passes chi-square on 5 classes; bridge rotation is "
        "exactly size-to-one onto excursions up to size 7",
        uniform_ok and rotation_ok,
        f"min p={min(pvalues):.4f}, {elapsed:.1f}s",
    )


def test_criterion_04_clt_desk_scale():
    start = time.monotonic()
    cfg = ExperimentConfig(
        family=StatFamily.full_binary(),
        patterns=(CHERRY, T5),
        sizes=(10_001,),
        replicates=2_000,
        seed=Seed(2025, 4),
        tests=("moments", "normality"),
    )
    report = run_experiment(cfg)
    entry = report.per_size[0]
    n = entry["size"]
    var_gap = abs(entry["empirical_var"][0] / n - 1 / 32)
    var_ok = var_gap <= 0.10 / 32
    ks_ok = entry["ks"][0] is not None and entry["ks"][0] < 0.05
    corr = entry["correlation"][0]
    corr_ok = abs(corr["empirical"] - corr["predicted"]) <= 3 / math.sqrt(2_000) + 1e-9
    verdicts_ok = report.all_passed
    elapsed = time.monotonic() - start
    _report(
        4,
        "desk-scale normality: variance density within 10%, KS < 0.05, "
        "two-pattern correlation within 3 SE",
        var_ok and ks_ok and corr_ok and verdicts_ok and elapsed < 600,
        f"var/|n|={entry['empirical_var'][0] / n:.5f} vs 1/32={1 / 32:.5f}, "
        f"KS={entry['ks'][0]:.4f}, corr gap="
        f"{abs(corr['empirical'] - corr['predicted']):.4f}, {elapsed:.1f}s",
    )


def test_criterion_05_bounded_moment_gaps():
    start = time.monotonic()
    sizes = [100, 316, 1000, 3162, 10000, 31623, 100000]
    cherry_scan = moment_gap_scan(StatFamily.full_binary(), CHERRY, sizes)
    # frozen bound for the cherry/full-binary sweep (observed sup ~ 0.13)
    cherry_ok = (
        cherry_scan["sup_mean_gap"] < 10 and cherry_scan["sup_var_gap"] < 10
    )
    geo_scan = moment_gap_scan(StatFamily.geometric_profile(), PATH3, sizes)
    geo_ok = geo_scan["sup_mean_gap"] < 10 and geo_scan["sup_var_gap"] < 10
    leaf_scan = moment_gap_scan(StatFamily.full_binary(), LEAF, sizes)
    leaf_ok = leaf_scan["sup_mean_gap"] == 0 and leaf_scan["sup_var_gap"] == 0
    elapsed = time.monotonic() - start
    _report(
        5,
        "exact mean/variance gaps to the limit forms stay bounded over "
        "sizes 1e2..1e5 on both families",
        cherry_ok and geo_ok and leaf_ok,
        f"cherry sup=({cherry_scan['sup_mean_gap']:.3f},"
        f"{cherry_scan['sup_var_gap']:.3f}), geometric path3 sup="
        f"({geo_scan['sup_mean_gap']:.3f},{geo_scan['sup_var_gap']:.3f}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_06_tilted_equivalents():
    binary = equivalent_offspring(WeightSequence.finite({0: 1, 2: 1}))
    ok_binary = (
        abs(float(binary.tau) - 1) <= 1e-12
        and abs(float(binary.theta.p(0)) - 0.5) <= 1e-12
        and abs(float(binary.theta.p(2)) - 0.5) <= 1e-12
        and float(binary.theta.p(1)) <= 1e-12
        and abs(float(binary.sigma2) - 1) <= 1e-12
    )
    ones = equivalent_offspring(WeightSequence.geometric(1, truncation=64))
    ok_ones = (
        abs(float(ones.tau) - 0.5) <= 1e-12
        and all(
            abs(float(ones.theta.p(i)) - 2.0 ** -(i + 1)) <= 1e-12 for i in range(8)
        )
        and abs(float(ones.sigma2) - 2) <= 1e-12
    )
    weights = {0: 2, 1: 1, 3: 5}
    base = equivalent_offspring(WeightSequence.finite(weights))
    ok_invariance = True
    for a, b in ((Fraction(3, 2), Fraction(2, 3)), (2, 3), (Fraction(1, 7), 1)):
        tilted = equivalent_offspring(
            WeightSequence.finite({i: a * b**i * w for i, w in weights.items()})
        )
        for i in range(4):
            if abs(float(tilted.theta.p(i)) - float(base.theta.p(i))) > 1e-12:
                ok_invariance = False
    _report(
        6,
        "tilted equivalents reproduce the two analytic solutions to 1e-12 "
        "and are invariant under weight rescaling",
        ok_binary and ok_ones and ok_invariance,
    )


def test_criterion_07_degree_moment_exactness():
    start = time.monotonic()
    geometric_cut = OffspringDistribution.finite(
        {i: Fraction(2 ** (8 - i), 2**9 - 1) for i in range(9)}
    )
    checked = 0
    for w in (FULL_BINARY_P, geometric_cut):
        for n in range(1, 13):
            feasible_q = [
                {0: 1},
                {0: 2},
                {1: 1},
                {2: 1},
                {0: 1, 2: 1},
                {0: 1, 1: 1, 2: 1},
            ]
            for q in feasible_q:
                if any(w.p(i) == 0 and v > 0 for i, v in q.items()):
                    continue
                try:
                    got = degree_factorial_moment(w, n, q)
                except Exception:
                    continue
                assert got == brute_degree_factorial(w, n, q)
                checked += 1
    worked = degree_factorial_moment(FULL_BINARY_P, 5, {0: 1})
    elapsed = time.monotonic() - start
    _report(
        7,
        "degree-count factorial moments match exhaustive conditional "
        "enumeration up to n=12; the worked value E[leaves]=3 reproduces",
        worked == 3 and checked >= 60 and elapsed < 120,
        f"{checked} checks, {elapsed:.1f}s",
    )


def test_criterion_08_factorial_moment_condition_scan():
    start = time.monotonic()
    rows = moment_condition_scan(
        StatFamily.full_binary(), CHERRY, [1000, 10_000, 100_000], c=1.0
    )
    deviations = [row["max_deviation"] for row in rows]
    decreasing = deviations[0] > deviations[1] > deviations[2]
    final_ok = deviations[2] < 0.05
    elapsed = time.monotonic() - start
    _report(
        8,
        "high factorial moments track the quadratic exponent: deviations "
        "strictly decrease over 1e3,1e4,1e5 and end below 0.05",
        decreasing and final_ok,
        f"deviations={['%.5f' % d for d in deviations]}, {elapsed:.1f}s",
    )


def test_criterion_09_positivity_taxonomy():
    start = time.monotonic()
    corpus = random_distribution_corpus(count=100, seed=20240801)
    assert len(corpus) == 100
    boundary = [
        OffspringDistribution.finite({0: 1}),
        OffspringDistribution.finite({1: 1}),
    ]
    trees = [t for t in all_trees_up_to(5)]
    violations = 0
    for p in corpus:
        for tree in trees:
            if tree.size < 2:
                continue
            if tree_probability(p, tree) > 0:
                if not fringe_covariance_density(p, tree, tree) > 0:
                    violations += 1
    for p in corpus + boundary:
        for tree in trees:
            value = normalized_variance(p, tree)
            exceptional = classify_exceptional(tree, p) != "none"
            if exceptional != (value == 0):
                violations += 1
    elapsed = time.monotonic() - start
    _report(
        9,
        "variance densities positive off the exceptional set; normalized "
        "variance vanishes exactly on it (100-law corpus + boundaries)",
        violations == 0,
        f"violations={violations}, {elapsed:.1f}s",
    )


def test_criterion_10_additive_functionals():
    start = time.monotonic()
    import random as _random

    rng = _random.Random(1009)
    trees = all_trees_up_to(3)
    corpus = random_distribution_corpus(count=5, seed=33)
    agree = 0
    for _ in range(50):
        p = corpus[rng.randrange(len(corpus))]
        toll = TollFunction.from_dict(
            {
                t: Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                for t in trees
                if rng.random() < 0.75
            }
        )
        direct, quadratic = additive_variance_forms(p, toll)
        assert direct == quadratic
        agree += 1
    leaf_toll = TollFunction.indicator(LEAF)
    leaf_zero = all(
        additive_variance_forms(p, leaf_toll)[0] == 0 for p in corpus
    )

    # Monte Carlo check of the normal limit for one nontrivial toll
    toll = TollFunction.from_dict({CHERRY: Fraction(1), T5: Fraction(1, 2)})
    family = StatFamily.full_binary()
    stat = family.statistic(10_001)
    n = stat.size
    counts = collect_counts(stat, [CHERRY, T5], 2_000, Seed(10, 10))
    values = counts[:, 0] + 0.5 * counts[:, 1]
    exact_mean_f = float(
        mean_count(stat, CHERRY) + Fraction(1, 2) * mean_count(stat, T5)
    )
    gamma_f = additive_variance_forms(FULL_BINARY_P, toll)[0]
    z = (values - exact_mean_f) / math.sqrt(n * float(gamma_f))
    distance, ks_ok = normality_test(z, threshold=0.05)
    elapsed = time.monotonic() - start
    _report(
        10,
        "additive-functional variance forms agree exactly on 50 random "
        "tolls; leaf indicator degenerates; CLT KS < 0.05 at 1e4",
        agree == 50 and leaf_zero and ks_ok,
        f"gamma={float(gamma_f):.5f}, KS={distance:.4f}, {elapsed:.1f}s",
    )
