import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from unittest.mock import Mock

import numpy as np
import pytest
from oracle_utils import (
    all_degree_statistics,
    compressed_shuffled,
    dp_feasible,
    rolled_excursion_degrees,
    sampled_position_images,
)
from scipy import stats as scistats

from fringelab import sampling
from fringelab.asymptotics import equivalent_offspring
from fringelab.distributions import (
    OffspringDistribution,
    WeightSequence,
    _family_pmf,
    _mass_table,
)
from fringelab.errors import (
    AttemptsExhausted,
    InfeasibleSize,
    InvalidDegreeSequence,
    InvalidPath,
)
from fringelab.mc_harness import StatFamily, collect_counts
from fringelab.sampling import (
    _SCREEN_ROWS,
    DegreeSequence,
    Seed,
    _check_feasible,
    _leaf_pair,
    _LeafPair,
    _least_sums,
    excursion_degrees,
    sample_conditioned_gw,
    sample_labelled_tree,
    sample_uniform_trees,
)
from fringelab.tree_core import (
    DegreeStatistic,
    PlaneTree,
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

    def test_negative_count_rejected(self):
        stat = DegreeStatistic.from_counts({0: 2, 2: 1})
        assert sample_uniform_trees(stat, 0, Seed(1)) == []
        with pytest.raises(ValueError, match="reps = -2 must be at least 0"):
            sample_uniform_trees(stat, -2, Seed(1))

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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Seed("3"),  # the parent failed comparing str with int
            lambda: Seed(3.0),
            lambda: Seed(3, 1.5),
            lambda: Seed(3).generator(1.7),  # the parent used generator(1)
            lambda: Seed(3).generator(0, "1"),
        ],
        ids=["str-value", "float-value", "float-stream", "float-index", "str-index"],
    )
    def test_non_integer_components_raise(self, make):
        with pytest.raises(TypeError, match="is not an integer"):
            make()

    def test_numpy_integers_keep_the_stream(self):
        seed = Seed(np.int64(3), np.uint8(1))
        first = seed.generator(np.int32(2), 5).integers(0, 2**63, 4)
        assert first.tolist() == Seed(3, 1).generator(2, 5).integers(0, 2**63, 4).tolist()


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
        assert sample_uniform_trees(stat, 1, Seed(1))[0] == PlaneTree((0,))

    def test_forced_cherry(self):
        stat = DegreeStatistic.from_counts({0: 2, 2: 1})
        for i in range(10):
            assert sample_uniform_trees(stat, 1, Seed(i))[0] == PlaneTree((2, 0, 0))

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
        # the second profile is a hub profile: 3 leaves, 2 unary vertices and
        # one hub of degree 3, 10 trees
        for counts in ({0: 4, 1: 1, 2: 3}, {0: 3, 1: 2, 3: 1}):
            stat = DegreeStatistic.from_counts(counts)
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
        tree = sample_uniform_trees(stat, 1, Seed(0))[0]
        assert tree.size == 2 * m + 1
        assert degree_statistic(tree) == stat


def _binary_multiset(size: int) -> np.ndarray:
    """The sorted multiset of (size - 1) // 2 binary vertices, one unary
    vertex when size is even, and the leaves."""
    counts = {0: (size + 1) // 2, 1: 1 - size % 2, 2: (size - 1) // 2}
    return np.repeat(np.array(list(counts), dtype=np.int64), list(counts.values()))


def _word_digest(size: int) -> str:
    """sha256 of 20 words of the binary multiset from one stream."""
    rng = Seed(2026).generator()
    words = (excursion_degrees(_binary_multiset(size), rng) for _ in range(20))
    text = "\n".join(",".join(map(str, word.tolist())) for word in words)
    return hashlib.sha256(text.encode()).hexdigest()


def _gw_leaf_pair_multiset(n: int) -> np.ndarray:
    """A multiset of n entries from ``_LeafPair.multiset`` under
    geometric(1/2): n >> (d + 1) vertices of each degree d in 2..13, the
    split of the leaves and the unary vertices (a = 1) forced."""
    pair = _leaf_pair(OffspringDistribution.geometric(Fraction(1, 2)), n)
    row = np.zeros(pair.degrees.size, dtype=np.int64)
    row[2:14] = [n >> (d + 1) for d in range(2, 14)]
    m, weight = (row @ pair.others).tolist()
    return pair.multiset(row, n - m, n - 1 - weight)


class TestSampledPositions:
    # above _POSITIONS_ABOVE entries the shuffle writes the non-leaves at
    # positions drawn by rng.choice instead of permuting the whole word

    @pytest.mark.parametrize("size", range(1, 8))
    def test_exhaustive_over_ordered_samples(self, size, monkeypatch):
        # with the constant at 0 every profile takes the positions path: over
        # all ordered samples of positions each arrangement appears
        # prod_{d != 0} c_d! times, and each tree size times as many
        monkeypatch.setattr(sampling, "_POSITIONS_ABOVE", 0)
        for stat in all_degree_statistics(size):
            ties = math.prod(math.factorial(c) for d, c in stat.items if d)
            arrangements = sampled_position_images(stat, sampling._shuffled)
            assert set(arrangements) == set(permutations(stat.degree_multiset()))
            assert set(arrangements.values()) == {ties}
            trees = sampled_position_images(stat, excursion_degrees)
            assert set(trees) == {t.degrees for t in enumerate_trees(stat)}
            assert set(trees.values()) == {size * ties}

    @pytest.mark.parametrize(
        "size, digest",
        [
            (9_999, "f77aa942892056b3d29a981b5cd6884f1878aed208deaeba482ca68a377ef05f"),
            (10_000, "22f05ecfe64b3d8be1767df49c993c257529c4649d723526bdeebd34c27f6b02"),
        ],
    )
    def test_words_up_to_the_constant_keep_their_bytes(self, size, digest):
        # computed when every word was a permutation of the whole multiset
        assert _word_digest(size) == digest

    @pytest.mark.parametrize(
        "size, digest",
        [
            (10_001, "9ff6b4b04a297647e28d83b2fd577b358ed1acf9c0ef220e8d82110fd02b9257"),
            (100_001, "4e2e504f0084f536d00e6c45a78b00e2e72ad36943f9b503c1e5b36ae5f8da67"),
        ],
    )
    def test_words_above_the_constant_keep_their_bytes(self, size, digest):
        # computed when the word of zeros was allocated before choice drew
        # the positions
        assert _word_digest(size) == digest

    @pytest.mark.parametrize("size, method", [(10_000, "permutation"), (10_001, "choice")])
    def test_path_switches_above_the_constant(self, size, method):
        rng = Mock(wraps=Seed(1).generator())
        excursion_degrees(_binary_multiset(size), rng)
        assert [name for name, _, _ in rng.method_calls] == [method]

    @pytest.mark.parametrize(
        "build, size",
        [
            (lambda: StatFamily.geometric_profile().statistic(24_000).degree_multiset(), 23_926),
            (lambda: StatFamily.one_hub(0.5).statistic(15_000).degree_multiset(), 15_000),
            (lambda: _gw_leaf_pair_multiset(12_000), 12_000),
        ],
        ids=["geometric_profile", "one_hub(0.5)", "gw-leaf-pair"],
    )
    def test_tail_of_the_sorted_multiset_keeps_the_masked_words(self, build, size):
        # reading the non-leaves as the tail of the sorted multiset changes
        # no draw: word for word, and the stream left in the same state
        multiset = build()
        assert multiset.size == size and multiset.sum() == size - 1
        for i in range(4):
            rng, oracle_rng = Seed(i).generator(), Seed(i).generator()
            for _ in range(2):
                word = sampling._shuffled(multiset, rng)
                assert word.tolist() == compressed_shuffled(multiset, oracle_rng).tolist()
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_descending_multiset_above_the_constant_raises(self):
        # its tail after the first zero misses every binary vertex
        with pytest.raises(InvalidPath):
            excursion_degrees(_binary_multiset(10_001)[::-1].copy(), Seed(1).generator())

    def test_every_sampler_shuffles_a_sorted_multiset(self, monkeypatch):
        # the positions path reads the non-leaves as the tail after the
        # zeros, so no library sampler may hand it an unsorted multiset
        shuffled, sizes = sampling._shuffled, []

        def spy(multiset, rng):
            assert (multiset[1:] >= multiset[:-1]).all()
            sizes.append(multiset.size)
            return shuffled(multiset, rng)

        monkeypatch.setattr(sampling, "_shuffled", spy)
        monkeypatch.delenv("FRINGELAB_THREADS", raising=False)
        for stat in (DegreeStatistic.from_counts({0: 4, 1: 1, 2: 3}), StatFamily.one_hub(0.5).statistic(10_500)):
            sample_uniform_trees(stat, 2, Seed(1))
            collect_counts(stat, [PlaneTree((2, 0, 0))], 2, Seed(2))
        sample_conditioned_gw(FULL_BINARY, 11, Seed(3))
        sample_conditioned_gw(OffspringDistribution.geometric(Fraction(1, 2)), 40, Seed(4))
        sample_labelled_tree(DegreeSequence((0, 2, 0, 3, 0, 0, 1)), Seed(5))
        assert sizes == [8, 8, 8, 8] + [10_500] * 4 + [11, 40, 7]

    def test_words_above_the_constant_are_excursions(self):
        multiset = _binary_multiset(10_001)
        stat = DegreeStatistic.from_counts({0: 5_001, 2: 5_000})
        rng = Seed(2026).generator()
        words = {tuple(excursion_degrees(multiset, rng).tolist()) for _ in range(20)}
        assert len(words) == 20
        for word in words:
            assert degree_statistic(PlaneTree(word)) == stat


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

    @pytest.mark.parametrize("degrees", [(0.5, 0.5), (2.0, 0, 0), (Fraction(1), 0)])
    def test_non_integer_degrees_rejected(self, degrees):
        # read, not summed as floats: (0.5, 0.5) sums to 1 = n - 1
        with pytest.raises(TypeError, match="is not an integer"):
            DegreeSequence(degrees)


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
                sample_conditioned_gw(w, n, Seed(0), max_attempts=4)

    def test_infeasible_even_size(self):
        with pytest.raises(InfeasibleSize):
            sample_conditioned_gw(FULL_BINARY, 4, Seed(0))

    def test_no_leaves_infeasible(self):
        w = OffspringDistribution.finite({1: Fraction(1, 2), 2: Fraction(1, 2)})
        with pytest.raises(InfeasibleSize):
            sample_conditioned_gw(w, 3, Seed(0))

    def test_infeasible_at_any_size(self):
        with pytest.raises(InfeasibleSize):
            sample_conditioned_gw(FULL_BINARY, 100_002, Seed(0), max_attempts=4)
        w = OffspringDistribution.finite({1: Fraction(1, 2), 2: Fraction(1, 2)})
        with pytest.raises(InfeasibleSize):
            sample_conditioned_gw(w, 100_003, Seed(0), max_attempts=4)

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
            sample_conditioned_gw(w, 100_001, Seed(0), max_attempts=3)
        assert err.value.acceptance_rate <= 1 / 3

    @pytest.mark.parametrize(
        "max_attempts, blocks", [(100, [8, 16, 32, 44]), (3, [3])], ids=["100", "3"]
    )
    def test_block_schedule(self, max_attempts, blocks, monkeypatch):
        # a subcritical law that accepts no row within the budget: blocks of
        # 8 rows double until the budget cuts the last one short
        w = OffspringDistribution.finite(
            {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}
        )
        rows, draw = [], sampling.sample_offspring

        def spy(dist, rng, size, *, tally):
            rows.append(size // tally)
            return draw(dist, rng, size, tally=tally)

        monkeypatch.setattr(sampling, "sample_offspring", spy)
        with pytest.raises(AttemptsExhausted) as err:
            sample_conditioned_gw(w, 1_001, Seed(0), max_attempts=max_attempts)
        assert rows == blocks
        assert err.value.acceptance_rate == 1 / max_attempts

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

    @pytest.mark.parametrize(
        "w, n, digest",
        [
            (
                OffspringDistribution.geometric(Fraction(1, 2)),
                1_000,
                "6b819f46a000863f40257c6c58ac550d3273f48a4b57d52f232127e5d885158c",
            ),
            (  # a = 2
                OffspringDistribution.finite(
                    {0: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}
                ),
                301,
                "4e81dc394d33862c4c535a8663c2043fbce43983d94f410c4d6685c2ede33e4c",
            ),
            (  # the point mass at 0: no column for a
                OffspringDistribution.finite({0: 1}),
                1,
                "baae9a8f4235c830264d6c85525fe0bf8a062bee2bfc05ba0bac47d231100ea3",
            ),
        ],
        ids=["geometric", "0-2-3", "point-mass"],
    )
    def test_tree_bytes(self, w, n, digest):
        # pins the trees, and so the order of the random draws, of 20 seeds
        text = "\n".join(
            sample_conditioned_gw(w, n, Seed(s, 7)).to_text() for s in range(20)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"max_attempts": 0}, ValueError),  # the parent gave up after 0 attempts
            ({"n": 50.5}, TypeError),  # the parent indexed a tuple with a float
            ({"max_attempts": 2.5}, TypeError),
        ],
        ids=["max-attempts-0", "float-n", "float-max-attempts"],
    )
    def test_invalid_arguments_raise(self, kwargs, error):
        args = {"n": 51, "max_attempts": 100} | kwargs
        message = "is not an integer" if error is TypeError else "must be at least 1"
        with pytest.raises(error, match=message):
            sample_conditioned_gw(FULL_BINARY, seed=Seed(0), **args)

    def test_infeasible_raises_on_every_call(self):
        # the feasibility check runs inside the cached _leaf_pair, whose
        # cache keeps no exception, so a repeated call raises again
        w = OffspringDistribution.finite({0: Fraction(2, 3), 3: Fraction(1, 3)})
        misses = _leaf_pair.cache_info().misses
        for _ in range(2):
            with pytest.raises(InfeasibleSize):
                sample_conditioned_gw(w, 6, Seed(0))
        assert _leaf_pair.cache_info().misses == misses + 2
        assert sample_conditioned_gw(w, 7, Seed(0)).size == 7


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
            for row, sums in zip(rows.tolist(), (rows @ pair.others).tolist()):
                # u = 0 passes exactly the vectors of positive acceptance ratio
                hit = pair.first_accepted(np.array([sums]), lambda: 0.0)
                if hit is None:
                    continue
                split = hit[1:]
                ratio = pair.exact_ratio(*split)
                assert 0 <= ratio <= 1, (n, row)
                largest = max(largest, ratio)
                key = tuple(pair.multiset(np.array(row), *split).tolist())
                accepted[key] += multinomial_mass(n, row, masses) * ratio
            target = {
                tuple(np.repeat(degrees, row).tolist()): multinomial_mass(n, row, masses)
                for row in rows.tolist()
                if sum(d * c for d, c in zip(degrees, row)) == n - 1
            }
            assert set(accepted) == set(target), n
            assert len({accepted[key] / target[key] for key in target}) == 1, n
        assert largest == 1  # the bound M is attained, so L is tight

    def test_rows_tested_in_order_up_to_the_first_accepted(self):
        # u is drawn only for vectors whose forced split is possible, and
        # the vectors after the first accepted one are not read
        n = 15
        pair = _leaf_pair(OffspringDistribution.finite(LEAF_PAIR_LAWS[0]), n)
        mode_sums = (n - pair.low, n - 1 - pair.a * pair.mode)
        # c_a = -6; c_a = 0 with ratio 2^-15 / M; the mode of Bin(L, rho)
        sums = [(0, n + 5), (0, n - 1), mode_sums, mode_sums]
        draws = iter([0.999, 2.0**-60])
        assert pair.first_accepted(np.array(sums), draws.__next__) == (2, pair.low, pair.mode)
        assert next(draws, None) is None

    @pytest.mark.parametrize("law", range(len(LEAF_PAIR_LAWS)))
    def test_long_block_screen_matches_row_by_row(self, law):
        # a block of _SCREEN_ROWS or more is screened in numpy; it must draw
        # u for the same rows, in the same order, and accept the same row
        n = 21 if law == 5 else 15  # {0, 10} has trees only at n = 1 mod 10
        pair = _leaf_pair(OffspringDistribution.finite(LEAF_PAIR_LAWS[law]), n)
        sums = np.array(list(compositions(n, len(pair.degrees)))) @ pair.others
        # every fifth row forces c_a > N, c_a < 0, or (a > 1) a fractional c_a
        marks = range(0, len(sums), 4)
        odd = np.resize([(n - 1, 0), (0, n + 5), (1, n - 1 - pair.a // 2)], (len(marks), 2))
        sums = np.insert(sums, marks, odd, axis=0)
        sums = np.tile(sums, (-(-2 * _SCREEN_ROWS // len(sums)), 1))
        for start in range(0, len(sums) - _SCREEN_ROWS + 1, 7):
            block = sums[start:]
            u = np.random.default_rng(start).random(len(block)).tolist()
            screened, row_by_row = [], []
            hit = pair.first_accepted(block, lambda: screened.append(u[len(screened)]) or screened[-1])
            expected = None
            for row in range(len(block)):
                one = pair.first_accepted(
                    block[row : row + 1], lambda: row_by_row.append(u[len(row_by_row)]) or row_by_row[-1]
                )
                if one is not None:
                    expected = (row,) + one[1:]
                    break
            assert screened == row_by_row
            assert hit == expected

    def test_multiset_writes_the_forced_split(self):
        w = OffspringDistribution.finite(LEAF_PAIR_LAWS[3])  # degrees 0, 2, 4
        pair = _leaf_pair(w, 7)
        row = np.array([6, 0, 1])  # (m, W) = (1, 4) forces N = 6 and c_2 = 1
        assert pair.multiset(row, 6, 1).tolist() == [0, 0, 0, 0, 0, 2, 4]
        assert row.tolist() == [5, 1, 1]
        point = _leaf_pair(OffspringDistribution.finite({0: 1}), 1)
        assert point.split_columns == ()
        assert point.multiset(np.array([1]), 1, 0).tolist() == [0]

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
                # the (m, W) of a vector whose forced split is (size, k)
                m, weight = n - size, n - 1 - pair.a * k
                for u in (Fraction(step, grid), Fraction(step + 1, grid)):
                    if not 0 < u < 1:
                        continue
                    before = len(exact_calls)
                    hit = pair.first_accepted(np.array([(m, weight)]), lambda: float(u))
                    assert hit == ((0, size, k) if u < ratio else None), (size, k, u)
                    assert len(exact_calls) == before + 1
                    checked += 1
        assert checked > 20
        # far from the threshold the float branch decides on its own
        before = len(exact_calls)
        assert pmf(n, 0) / top < Fraction(1, 2)
        low_weight = n - 1 - pair.a * pair.mode
        hit = pair.first_accepted(np.array([(n - pair.low, low_weight)]), lambda: 2.0**-60)
        assert hit == (0, pair.low, pair.mode)
        assert pair.first_accepted(np.array([(0, n - 1)]), lambda: 0.75) is None
        assert len(exact_calls) == before


class TestLawCaches:
    def test_caches_keyed_by_a_law_stay_bounded(self):
        # every fresh law adds an entry to each cache; unbounded, 300 laws
        # would leave 300 entries each for the life of the process
        caches = (_family_pmf, _mass_table, _least_sums, _leaf_pair)
        for k in range(300):
            law = OffspringDistribution.poisson(0.5 + k / 1000)
            sample_conditioned_gw(law, 5, Seed(k))
            equivalent_offspring(WeightSequence.finite({0: 1, 2: Fraction(k + 1, 1000)}))
        for cache in caches + (equivalent_offspring,):
            info = cache.cache_info()
            assert info.misses >= 300 and info.currsize <= 256, (cache.__name__, info)
