import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from oracle_utils import dp_feasible, rolled_excursion_degrees
from scipy import stats as scistats

from fringelab.asymptotics import equivalent_offspring
from fringelab.distributions import (
    OffspringDistribution,
    WeightSequence,
    _cdf_table,
    _family_pmf,
    _mass_table,
)
from fringelab.errors import (
    AttemptsExhausted,
    InfeasibleSize,
    InvalidDegreeSequence,
    InvalidPath,
)
from fringelab.sampling import (
    DegreeSequence,
    Seed,
    _check_feasible,
    _leaf_pair,
    _LeafPair,
    _least_sums,
    excursion_degrees,
    sample_conditioned_gw,
    sample_hub_tree,
    sample_labelled_tree,
    sample_uniform_tree,
    sample_uniform_trees,
)
from fringelab.tree_core import (
    DegreeStatistic,
    PlaneTree,
    count_fringe,
    count_trees,
    degree_statistic,
    enumerate_trees,
)

FULL_BINARY = OffspringDistribution.finite({0: Fraction(1, 2), 2: Fraction(1, 2)})


def chisquare_pvalue(observed_by_key, expected_by_key, total):
    keys = sorted(expected_by_key)
    observed = [observed_by_key.get(k, 0) for k in keys]
    expected = [float(expected_by_key[k]) * total for k in keys]
    return scistats.chisquare(observed, expected).pvalue


class TestSeed:
    def test_reproducible(self):
        stat = DegreeStatistic.from_counts({0: 4, 1: 1, 2: 3})
        a = sample_uniform_trees(stat, 20, Seed(123, 7))
        b = sample_uniform_trees(stat, 20, Seed(123, 7))
        assert a == b

    def test_streams_differ(self):
        stat = DegreeStatistic.from_counts({0: 40, 2: 39})
        a = sample_uniform_trees(stat, 8, Seed(123, 0))
        b = sample_uniform_trees(stat, 8, Seed(123, 1))
        assert a != b

    def test_derived_streams_do_not_overlap(self):
        # indexed sub-streams of one seed are pairwise distinct generators
        seed = Seed(99)
        outs = {tuple(seed.generator(i).integers(0, 2**63, 4)) for i in range(200)}
        assert len(outs) == 200

    def test_stream_overlap_birthday_bound(self):
        # a million 64-bit outputs from two streams share no value; a
        # collision would have probability ~1e-7 even for ideal streams
        a = Seed(1, 0).generator().integers(0, 2**63, 500_000)
        b = Seed(1, 1).generator().integers(0, 2**63, 500_000)
        assert len(np.intersect1d(a, b)) == 0


class TestUniformTree:
    def test_unbalanced_word_is_not_an_excursion(self):
        with pytest.raises(InvalidPath):
            excursion_degrees(np.array([0, 0, 1]), Seed(1).generator())

    def test_matches_rolled_oracle_on_random_multisets(self):
        # the check on the walk's last value must raise exactly where the
        # second walk over the rotated word did, and the one-copy rotation
        # must give the same word everywhere else
        rng = random.Random(20261018)
        raised = returned = 0
        for i in range(600):
            n = rng.randint(1, 12)
            degrees = [0] * n
            for _ in range(n - 1):
                degrees[rng.randrange(n)] += 1
            if i % 3 == 1:  # the same sum, possibly with negative entries
                k = rng.randint(1, 3)
                degrees[rng.randrange(n)] += k
                degrees[rng.randrange(n)] -= k
            elif i % 3 == 2:  # any sum
                degrees = [rng.randint(-2, 4) for _ in range(n)]
            multiset = np.array(degrees, dtype=np.int64)
            try:
                expected = rolled_excursion_degrees(multiset, Seed(i).generator())
            except InvalidPath:
                raised += 1
                with pytest.raises(InvalidPath):
                    excursion_degrees(multiset, Seed(i).generator())
                continue
            returned += 1
            word = excursion_degrees(multiset, Seed(i).generator())
            assert word.dtype == expected.dtype
            assert word.tolist() == expected.tolist()
        assert raised >= 100 and returned >= 300

    def test_singleton(self):
        stat = DegreeStatistic.from_counts({0: 1})
        assert sample_uniform_tree(stat, Seed(1)) == PlaneTree((0,))

    def test_forced_cherry(self):
        stat = DegreeStatistic.from_counts({0: 2, 2: 1})
        for i in range(10):
            assert sample_uniform_tree(stat, Seed(i)) == PlaneTree((2, 0, 0))

    def test_profile_preserved(self):
        stat = DegreeStatistic.from_counts({0: 8, 1: 2, 2: 4, 3: 0, 4: 1})
        for tree in sample_uniform_trees(stat, 25, Seed(5)):
            assert degree_statistic(tree) == stat

    def test_two_tree_uniformity(self):
        stat = DegreeStatistic.from_counts({0: 3, 2: 2})
        reps = 20_000
        tally = Counter(
            t.degrees for t in sample_uniform_trees(stat, reps, Seed(2024))
        )
        expected = {t.degrees: Fraction(1, 2) for t in enumerate_trees(stat)}
        assert chisquare_pvalue(tally, expected, reps) > 1e-3

    def test_uniformity_bigger_class(self):
        stat = DegreeStatistic.from_counts({0: 4, 1: 1, 2: 3})
        m = count_trees(stat)
        reps = 5_000 * m
        tally = Counter(
            t.degrees for t in sample_uniform_trees(stat, reps, Seed(7, 3))
        )
        expected = {t.degrees: Fraction(1, m) for t in enumerate_trees(stat)}
        assert len(tally) == m
        assert chisquare_pvalue(tally, expected, reps) > 1e-3

    def test_large_instance_runs(self):
        m = 200_000
        stat = DegreeStatistic.from_counts({0: m + 1, 2: m})
        tree = sample_uniform_tree(stat, Seed(0))
        assert tree.size == 2 * m + 1
        assert degree_statistic(tree) == stat


class TestLabelledTree:
    def test_single_vertex(self):
        tree, labels = sample_labelled_tree(DegreeSequence((0,)), Seed(3))
        assert tree == PlaneTree((0,)) and labels == (1,)

    def test_root_forced_by_degree(self):
        tree, labels = sample_labelled_tree(DegreeSequence((2, 0, 0)), Seed(4))
        assert tree == PlaneTree((2, 0, 0)) and labels[0] == 1

    def test_marginal_on_path(self):
        reps = 4_000
        rng_seed = Seed(11)
        roots = Counter()
        for i in range(reps):
            tree, labels = sample_labelled_tree(
                DegreeSequence((1, 1, 0)), rng_seed.generator(i)
            )
            assert labels[2] == 3  # the only degree-0 label sits at the leaf
            roots[labels[0]] += 1
        p = chisquare_pvalue(roots, {1: Fraction(1, 2), 2: Fraction(1, 2)}, reps)
        assert p > 1e-3

    def test_labels_form_bijection(self):
        dseq = DegreeSequence((0, 2, 1, 0, 3, 0, 0))
        tree, labels = sample_labelled_tree(dseq, Seed(8))
        assert sorted(labels) == list(range(1, 8))
        for pos, label in enumerate(labels):
            assert tree.degrees[pos] == dseq.degrees[label - 1]

    def test_uniform_over_labelled_class(self):
        # d = (1,2,0,0): three unordered labelled trees, identified by the
        # parent map on labels; the sampler must weight them equally
        dseq = DegreeSequence((1, 2, 0, 0))
        reps = 9_000
        tally = Counter()
        seed = Seed(41)
        for i in range(reps):
            tree, labels = sample_labelled_tree(dseq, seed.generator(i))
            parents = {}
            stack = []
            for pos, degree in enumerate(tree.degrees):
                if stack:
                    parents[labels[pos]] = labels[stack[-1][0]]
                    stack[-1][1] -= 1
                    if stack[-1][1] == 0:
                        stack.pop()
                if degree:
                    stack.append([pos, degree])
            tally[tuple(sorted(parents.items()))] += 1
        assert len(tally) == 3
        expected = {key: Fraction(1, 3) for key in tally}
        assert chisquare_pvalue(tally, expected, reps) > 1e-3

    def test_invalid_sequence(self):
        with pytest.raises(InvalidDegreeSequence):
            DegreeSequence((2, 2, 0))


class TestConditionedGW:
    def test_singleton(self):
        w = OffspringDistribution.finite({0: 1})
        assert sample_conditioned_gw(w, 1, Seed(0)) == PlaneTree((0,))

    def test_full_binary_leaf_count_forced(self):
        shapes = Counter()
        for i in range(4_000):
            tree = sample_conditioned_gw(FULL_BINARY, 5, Seed(1).generator(i))
            stat = degree_statistic(tree)
            assert stat.as_dict() == {0: 3, 2: 2}
            shapes[tree.degrees] += 1
        expected = {(2, 0, 2, 0, 0): Fraction(1, 2), (2, 2, 0, 0, 0): Fraction(1, 2)}
        assert chisquare_pvalue(shapes, expected, 4_000) > 1e-3

    def test_zero_coefficient_power_law(self):
        # every degree above 0 has probability 0, so only the single vertex
        # is feasible
        w = OffspringDistribution.power_law(0, 2.5)
        assert sample_conditioned_gw(w, 1, Seed(0)) == PlaneTree((0,))
        for n in range(2, 8):
            with pytest.raises(InfeasibleSize):
                sample_conditioned_gw(w, n, Seed(0), max_attempts=4, batch=2)

    def test_infeasible_even_size(self):
        with pytest.raises(InfeasibleSize):
            sample_conditioned_gw(FULL_BINARY, 4, Seed(0))

    def test_no_leaves_infeasible(self):
        w = OffspringDistribution.finite({1: Fraction(1, 2), 2: Fraction(1, 2)})
        with pytest.raises(InfeasibleSize):
            sample_conditioned_gw(w, 3, Seed(0))

    def test_infeasible_at_any_size(self):
        with pytest.raises(InfeasibleSize):
            sample_conditioned_gw(FULL_BINARY, 100_002, Seed(0), max_attempts=4, batch=2)
        w = OffspringDistribution.finite({1: Fraction(1, 2), 2: Fraction(1, 2)})
        with pytest.raises(InfeasibleSize):
            sample_conditioned_gw(w, 100_003, Seed(0), max_attempts=4, batch=2)

    def test_feasible_large_size(self):
        # mean-1 law on {0, 3, 5}; 200 000 = 3a + 5b is reachable
        w = OffspringDistribution.finite(
            {0: Fraction(11, 15), 3: Fraction(1, 6), 5: Fraction(1, 10)}
        )
        tree = sample_conditioned_gw(w, 200_001, Seed(0))
        assert tree.size == 200_001
        assert set(tree.degrees) <= {0, 3, 5}

    @pytest.mark.parametrize("coins", [(2,), (3, 5), (4, 6), (6, 10, 15)])
    def test_feasibility_matches_reachability_table(self, coins):
        probs = {0: Fraction(1, 2)} | {c: Fraction(1, 2 * len(coins)) for c in coins}
        w = OffspringDistribution.finite(probs)
        for n in range(1, 301):
            try:
                _check_feasible(w, n)
                feasible = True
            except InfeasibleSize:
                feasible = False
            assert feasible == dp_feasible(w, n), n

    def test_attempts_exhausted(self):
        # feasible but forced through an absurdly small attempt budget is
        # indistinguishable from never accepting: condition a subcritical
        # law on an exponentially rare total, so the forced leaf pair's
        # binomial weight is far below its bound on every attempt
        w = OffspringDistribution.finite(
            {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}
        )
        with pytest.raises(AttemptsExhausted) as err:
            sample_conditioned_gw(w, 100_001, Seed(0), max_attempts=3, batch=2)
        assert err.value.acceptance_rate <= 1 / 3

    def test_geometric_matches_weighted_law(self):
        w = OffspringDistribution.geometric(Fraction(1, 2))
        n, reps = 4, 10_000
        trees = list(enumerate_trees(DegreeStatistic.from_counts({0: 2, 1: 1, 2: 1})))
        trees += list(enumerate_trees(DegreeStatistic.from_counts({0: 1, 1: 3})))
        trees += list(enumerate_trees(DegreeStatistic.from_counts({0: 3, 3: 1})))
        weight = {
            t.degrees: Fraction(1)
            * np.prod([Fraction(w.p(d)) for d in t.degrees])
            for t in trees
        }
        z = sum(weight.values())
        expected = {k: v / z for k, v in weight.items()}
        tally = Counter()
        gen = Seed(17).generator()
        for _ in range(reps):
            tally[sample_conditioned_gw(w, n, gen).degrees] += 1
        assert set(tally) <= set(expected)
        assert chisquare_pvalue(tally, expected, reps) > 1e-3


    def test_degree_counts_follow_conditioned_multinomial(self):
        # exact law of the counts: multinomial(n, p) conditioned on
        # sum_i i*c_i = n - 1, by enumerating every count vector
        w = OffspringDistribution.finite({d: Fraction(1, 4) for d in range(4)})
        n, reps = 12, 20_000
        mass = {}
        for tail in product(range(n + 1), repeat=3):
            counts = (n - sum(tail),) + tail
            if counts[0] >= 0 and sum(d * c for d, c in enumerate(counts)) == n - 1:
                weight = Fraction(math.factorial(n))
                for d, c in enumerate(counts):
                    weight *= w.p(d) ** c / math.factorial(c)
                mass[counts] = weight
        total = sum(mass.values())
        # count vectors expected fewer than 5 times share the cell ()
        rare = {k for k, v in mass.items() if v / total * reps < 5}
        expected = Counter()
        for k, v in mass.items():
            expected[() if k in rare else k] += v / total
        tally = Counter()
        gen = Seed(37).generator()
        for _ in range(reps):
            stat = degree_statistic(sample_conditioned_gw(w, n, gen))
            key = tuple(stat.count(d) for d in range(4))
            tally[() if key in rare else key] += 1
        assert set(tally) <= set(expected)
        assert chisquare_pvalue(tally, expected, reps) > 1e-3

    @pytest.mark.parametrize(
        "w",
        [
            OffspringDistribution.finite(
                {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}
            ),
            OffspringDistribution.geometric(Fraction(1, 2)),
            OffspringDistribution.poisson(1.0),
            OffspringDistribution.power_law(0.3, 2.5),
        ],
        ids=["finite", "geometric", "poisson", "power_law"],
    )
    def test_every_offspring_kind(self, w):
        tree = sample_conditioned_gw(w, 200, Seed(3))
        assert PlaneTree(tree.degrees) == tree  # revalidates the preorder word
        assert tree.size == 200
        assert set(tree.degrees) <= set(w.support())

    def test_same_seed_same_tree(self):
        w = OffspringDistribution.geometric(Fraction(1, 2))
        first = sample_conditioned_gw(w, 500, Seed(9, 2))
        assert sample_conditioned_gw(w, 500, Seed(9, 2)) == first
        assert sample_conditioned_gw(w, 500, Seed(9, 3)) != first


def multinomial_mass(n, counts, masses):
    """Mult(n, masses)(counts) as an exact fraction."""
    value = Fraction(math.factorial(n))
    for c, p in zip(counts, masses):
        value *= p**c / math.factorial(c)
    return value


def compositions(n, parts):
    """Every vector of ``parts`` nonnegative integers summing to n."""
    for bars in combinations(range(n + parts - 1), parts - 1):
        edges = (-1,) + bars + (n + parts - 1,)
        yield [edges[i + 1] - edges[i] - 1 for i in range(parts)]


LEAF_PAIR_LAWS = [
    {d: Fraction(1, 4) for d in range(4)},
    {0: Fraction(1, 2), 2: Fraction(1, 2)},
    {0: Fraction(11, 15), 3: Fraction(1, 6), 5: Fraction(1, 10)},
    {0: Fraction(1, 2), 2: Fraction(1, 4), 4: Fraction(1, 4)},
    {0: Fraction(3, 8), 1: Fraction(1, 8), 2: Fraction(3, 8), 3: Fraction(1, 8)},
    {0: Fraction(9, 10), 10: Fraction(1, 10)},
]


class TestLeafPairAcceptance:
    @pytest.mark.parametrize(
        "probs",
        LEAF_PAIR_LAWS,
        ids=["uniform", "binary", "0-3-5", "0-2-4", "0-1-2-3", "0-10"],
    )
    def test_accepted_mass_is_the_conditioned_multinomial(self, probs):
        # every count vector of every feasible n <= 15, weighted by the
        # proposal's exact (dyadic) masses and by the sampler's own exact
        # acceptance ratio, lands on the conditioned multinomial times 1/M
        w = OffspringDistribution.finite(probs)
        degrees, masses = _mass_table(w)
        degrees = degrees.tolist()
        masses = [Fraction(m) for m in masses.tolist()]
        largest = 0
        for n in range(1, 16):
            try:
                _check_feasible(w, n)
            except InfeasibleSize:
                continue
            pair = _leaf_pair(w, n)
            rows = np.array(list(compositions(n, len(degrees))))
            accepted = Counter()
            for row, size, k in zip(*pair.splits(rows)):
                ratio = pair.exact_ratio(size, k)
                assert 0 <= ratio <= 1, (n, rows[row].tolist())
                largest = max(largest, ratio)
                key = pair.statistic(rows[row], size, k).items
                accepted[key] += multinomial_mass(n, rows[row].tolist(), masses) * ratio
            target = {
                DegreeStatistic.from_counts(zip(degrees, row)).items:
                    multinomial_mass(n, row, masses)
                for row in rows.tolist()
                if sum(d * c for d, c in zip(degrees, row)) == n - 1
            }
            assert set(accepted) == set(target), n
            assert len({accepted[key] / target[key] for key in target}) == 1, n
        assert largest == 1  # the bound M is attained, so L is tight

    def test_law_without_degree_one(self):
        # a = 2, so the forced c_2 = (15 - 3 c_3) / 2 also rejects every
        # vector with c_3 even
        probs = {0: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}
        w = OffspringDistribution.finite(probs)
        n, reps = 16, 10_000
        mass = {}
        for c3 in range(n):
            for c2 in range(n - c3):
                counts = (n - c2 - c3, c2, c3)
                if 2 * c2 + 3 * c3 == n - 1:
                    mass[counts] = multinomial_mass(n, counts, probs.values())
        total = sum(mass.values())
        expected = {k: v / total for k, v in mass.items()}
        tally = Counter()
        gen = Seed(41).generator()
        for _ in range(reps):
            stat = degree_statistic(sample_conditioned_gw(w, n, gen))
            tally[tuple(stat.count(d) for d in (0, 2, 3))] += 1
        assert set(tally) <= set(expected)
        assert chisquare_pvalue(tally, expected, reps) > 1e-3

    @pytest.mark.parametrize(
        "probs, n",
        [(LEAF_PAIR_LAWS[0], 15), (LEAF_PAIR_LAWS[2], 14), (LEAF_PAIR_LAWS[4], 9)],
    )
    def test_exact_decision_at_the_boundary(self, probs, n, monkeypatch):
        # u one grid step (2^-53) either side of the acceptance ratio puts
        # log u within the slack of the threshold, so the exact branch
        # decides; it must agree with a brute-force Fraction oracle
        pair = _leaf_pair(OffspringDistribution.finite(probs), n)
        rho = pair.rho

        def pmf(size, k):
            return math.comb(size, k) * rho**k * (1 - rho) ** (size - k)

        top = max(pmf(pair.low, j) for j in range(pair.low + 1))
        exact_calls = []
        original = _LeafPair.exact_ratio

        def spy(self, size, k):
            exact_calls.append((size, k))
            return original(self, size, k)

        monkeypatch.setattr(_LeafPair, "exact_ratio", spy)
        grid = 2**53
        checked = 0
        for size in range(pair.low, n + 1):
            for k in range(size + 1):
                ratio = pmf(size, k) / top
                if ratio < Fraction(1, 10**6):
                    continue  # the grid is too coarse to come this close
                step = min(math.floor(ratio * grid), grid - 1)
                for u in (Fraction(step, grid), Fraction(step + 1, grid)):
                    if not 0 < u < 1:
                        continue
                    before = len(exact_calls)
                    assert pair.accepts(float(u), size, k) == (u < ratio), (size, k, u)
                    assert len(exact_calls) == before + 1
                    checked += 1
        assert checked > 20
        # far from the threshold the float branch decides on its own
        before = len(exact_calls)
        assert pmf(n, 0) / top < Fraction(1, 2)
        assert pair.accepts(2.0**-60, pair.low, pair.mode)
        assert not pair.accepts(0.75, n, 0)
        assert len(exact_calls) == before


class TestLawCaches:
    def test_caches_keyed_by_a_law_stay_bounded(self):
        # every fresh law adds an entry to each cache; unbounded, 300 laws
        # would leave 300 entries each for the life of the process
        caches = (_family_pmf, _cdf_table, _mass_table, _least_sums, _leaf_pair)
        for k in range(300):
            law = OffspringDistribution.poisson(0.5 + k / 1000)
            sample_conditioned_gw(law, 5, Seed(k))
            equivalent_offspring(WeightSequence.finite({0: 1, 2: Fraction(k + 1, 1000)}))
        for cache in caches + (equivalent_offspring,):
            info = cache.cache_info()
            assert info.misses >= 300 and info.currsize <= 256, (cache.__name__, info)


class TestHubSampler:
    def test_degenerate(self):
        assert sample_hub_tree(2, 0, Seed(0)) == PlaneTree((2, 0, 0))

    def test_three_equally_likely(self):
        reps = 6_000
        tally = Counter()
        gen = Seed(23).generator()
        for _ in range(reps):
            tally[sample_hub_tree(2, 1, gen).degrees] += 1
        assert len(tally) == 3
        expected = {k: Fraction(1, 3) for k in tally}
        assert chisquare_pvalue(tally, expected, reps) > 1e-3

    def test_profile(self):
        tree = sample_hub_tree(3, 2, Seed(5))
        assert degree_statistic(tree).as_dict() == {0: 3, 1: 2, 3: 1}

    def test_path2_count_matches_composition_enumeration(self):
        # exact law of N_(1,0) from the 10 compositions of 2 into 4 parts
        n0, n1, reps = 3, 2, 20_000
        pattern = PlaneTree((1, 0))
        from itertools import product

        counts = Counter()
        for parts in product(range(n1 + 1), repeat=n0 + 1):
            if sum(parts) == n1:
                counts[sum(1 for leg in parts[1:] if leg >= 1)] += 1
        total = sum(counts.values())
        assert total == 10
        expected = {k: Fraction(v, total) for k, v in counts.items()}
        tally = Counter()
        gen = Seed(29).generator()
        for _ in range(reps):
            tally[count_fringe(sample_hub_tree(n0, n1, gen), pattern)] += 1
        assert chisquare_pvalue(tally, expected, reps) > 1e-3

    def test_matches_uniform_sampler_distribution(self):
        # the two independent samplers induce the same hub-tree law
        n0, n1, reps = 3, 2, 8_000
        stat = DegreeStatistic.from_counts({0: n0, 1: n1, n0: 1})
        gen_a, gen_b = Seed(31).generator(0), Seed(31).generator(1)
        tally_a = Counter(
            sample_hub_tree(n0, n1, gen_a).degrees for _ in range(reps)
        )
        tally_b = Counter(
            t.degrees for t in sample_uniform_trees(stat, reps, gen_b)
        )
        keys = sorted(set(tally_a) | set(tally_b))
        table = np.array(
            [[tally_a.get(k, 0) for k in keys], [tally_b.get(k, 0) for k in keys]]
        )
        assert scistats.chi2_contingency(table).pvalue > 1e-3
