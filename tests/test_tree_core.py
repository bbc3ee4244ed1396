import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import (
    all_degree_statistics,
    all_trees,
    all_trees_up_to,
    count_fringe_by_extraction,
    fringe_distribution,
    fringe_subtrees,
    rotate_word,
    rotation_images,
)

from fringelab.errors import CapExceeded, InvalidDegreeStatistic, InvalidPreorder
from fringelab.tree_core import (
    DegreeStatistic,
    PlaneTree,
    UnorderedKey,
    canonical_unordered,
    count_fringe,
    count_trees,
    degree_statistic,
    enumerate_orderings,
    enumerate_trees,
)

LEAF = PlaneTree((0,))
CHERRY = PlaneTree((2, 0, 0))
PATH3 = PlaneTree((1, 1, 0))


def random_tree_strategy(max_size=10):
    """Random plane trees built by attaching each new vertex to a uniform
    existing one; converted to a preorder degree sequence."""

    @st.composite
    def build(draw):
        size = draw(st.integers(min_value=1, max_value=max_size))
        parents = [None]
        for v in range(1, size):
            parents.append(draw(st.integers(min_value=0, max_value=v - 1)))
        children = [[] for _ in range(size)]
        for v in range(1, size):
            children[parents[v]].append(v)
        degrees = []

        def visit(v):
            degrees.append(len(children[v]))
            for c in children[v]:
                visit(c)

        visit(0)
        return PlaneTree(tuple(degrees))

    return build()


class TestDecodePreorder:
    def test_leaf(self):
        assert PlaneTree((0,)).size == 1

    def test_five_vertex(self):
        t = PlaneTree((2, 0, 2, 0, 0))
        assert t.size == 5

    def test_balance_violated(self):
        with pytest.raises(InvalidPreorder):
            PlaneTree((2, 0, 0, 0))

    def test_partial_sum_violated_reports_index(self):
        # walk hits -1 at step 2, before the end
        with pytest.raises(InvalidPreorder) as err:
            PlaneTree((1, 0, 1, 0))
        assert err.value.index == 1

    def test_empty(self):
        with pytest.raises(InvalidPreorder):
            PlaneTree(())

    def test_text_roundtrip(self):
        t = PlaneTree.from_text("2,0,2,0,0")
        assert t.to_text() == "2,0,2,0,0"


class TestVervaat:
    # the rotation is the sampler's own: excursion_degrees with a stand-in
    # generator that leaves the word unshuffled

    def test_trivial_bridge(self):
        assert rotate_word([0]) == (0,)

    def test_hand_rotated(self):
        # the walk reads -1, 0, -1: its first minimum is after step 1
        assert rotate_word([0, 2, 0]) == (2, 0, 0)

    @given(random_tree_strategy())
    def test_excursion_fixed_point(self, tree):
        assert rotate_word(tree.degrees) == tree.degrees

    @pytest.mark.parametrize("size", range(2, 8))
    def test_n_to_one_exhaustive(self, size):
        # grouping all arrangements by image yields classes of size exactly |n|
        for stat in all_degree_statistics(size):
            classes = rotation_images(stat)
            assert set(classes.values()) == {size}
            assert sum(classes.values()) == size * count_trees(stat)
            # images are exactly the words of the trees with this profile
            assert set(classes) == {t.degrees for t in enumerate_trees(stat)}


class TestDegreeStatistic:
    def test_direct_counts(self):
        assert degree_statistic(PlaneTree((2, 0, 2, 0, 0))).as_dict() == {0: 3, 2: 2}
        assert degree_statistic(PATH3).as_dict() == {0: 1, 1: 2}
        assert degree_statistic(LEAF).as_dict() == {0: 1}

    def test_balance_enforced(self):
        with pytest.raises(InvalidDegreeStatistic):
            DegreeStatistic.from_counts({0: 2, 2: 2})

    def test_zero_counts_dropped(self):
        stat = DegreeStatistic.from_counts({0: 3, 1: 0, 2: 2})
        assert stat.as_dict() == {0: 3, 2: 2}

    @pytest.mark.parametrize(
        "counts, bad",
        [({0: 3.9, 2: 2}, 3.9), ({0: 3, 2.0: 2}, 2.0), ({0: Fraction(3), 2: 2}, Fraction(3))],
    )
    def test_non_integer_entries_raise(self, counts, bad):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            DegreeStatistic.from_counts(counts)

    def test_numpy_integers_pass(self):
        stat = DegreeStatistic.from_counts({np.int64(0): np.int32(3), np.uint8(2): np.int64(2)})
        assert stat == DegreeStatistic.from_counts({0: 3, 2: 2})
        assert all(type(x) is int for item in stat.items for x in item)

    def test_degree_multiset(self):
        stat = DegreeStatistic.from_counts({0: 3, 2: 2})
        multiset = stat.degree_multiset()
        assert multiset.tolist() == [0, 0, 0, 2, 2]
        assert multiset.dtype == np.int64

    @pytest.mark.parametrize("items", [((2, 1), (0, 2)), ((0, 2), (0, 1)), ((-1, 1), (0, 1), (1, 1))])
    def test_unsorted_or_repeated_degrees_raise(self, items):
        with pytest.raises(InvalidDegreeStatistic, match="bad or unsorted entry"):
            DegreeStatistic(items)

    @pytest.mark.parametrize("items, bad", [(((0, 2.0), (2, 1)), 2.0), (((0, 2), (Fraction(2), 1)), Fraction(2))])
    def test_non_integer_items_raise(self, items, bad):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            DegreeStatistic(items)

    def test_equal_profiles_compare_and_hash_equal(self):
        stat = DegreeStatistic(((0, 2), (2, 1)))
        assert stat == DegreeStatistic.from_counts({2: 1, 0: 2})
        assert hash(stat) == hash(DegreeStatistic.from_counts({2: 1, 0: 2}))

    @given(st.dictionaries(st.integers(0, 6), st.integers(0, 4), min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_degree_multiset_is_sorted_int64(self, counts):
        # the leaves make any counts feasible: n(0) = 1 + sum_i (i - 1) n(i)
        counts[0] = 1 + sum((d - 1) * c for d, c in counts.items() if d)
        multiset = DegreeStatistic.from_counts(counts).degree_multiset()
        assert isinstance(multiset, np.ndarray) and multiset.dtype == np.int64
        assert (multiset[1:] >= multiset[:-1]).all()
        assert sorted(Counter(multiset.tolist()).items()) == sorted((d, c) for d, c in counts.items() if c)

    def test_empirical_distribution(self):
        stat = DegreeStatistic.from_counts({0: 3, 2: 2})
        assert stat.empirical_distribution() == {0: Fraction(3, 5), 2: Fraction(2, 5)}


class TestCountFringe:
    def test_inner_cherry_only(self):
        assert count_fringe(PlaneTree((2, 0, 2, 0, 0)), CHERRY) == 1

    def test_path(self):
        assert count_fringe(PATH3, PlaneTree((1, 0))) == 1

    def test_self(self):
        for tree in all_trees_up_to(5):
            assert count_fringe(tree, tree) == 1

    def test_pattern_larger_than_tree(self):
        assert count_fringe(LEAF, CHERRY) == 0

    def test_leaf_count_is_leaf_tally(self):
        for tree in all_trees_up_to(6):
            assert count_fringe(tree, LEAF) == degree_statistic(tree).count(0)

    @given(random_tree_strategy(max_size=12))
    @settings(max_examples=200)
    def test_two_implementations_agree(self, tree):
        for pattern in all_trees_up_to(4):
            assert count_fringe(tree, pattern) == count_fringe_by_extraction(
                tree, pattern
            )

    @given(random_tree_strategy(max_size=12))
    def test_counts_partition_vertices(self, tree):
        assert sum(fringe_distribution(tree).values()) == 1
        total = sum(
            count_fringe(tree, pattern) for pattern in fringe_distribution(tree)
        )
        assert total == tree.size


class TestFringeDistribution:
    def test_leaf(self):
        assert fringe_distribution(LEAF) == {LEAF: Fraction(1)}

    def test_path3(self):
        dist = fringe_distribution(PATH3)
        assert dist == {
            PATH3: Fraction(1, 3),
            PlaneTree((1, 0)): Fraction(1, 3),
            LEAF: Fraction(1, 3),
        }

    def test_cherry(self):
        dist = fringe_distribution(CHERRY)
        assert dist == {CHERRY: Fraction(1, 3), LEAF: Fraction(2, 3)}

    def test_fringe_subtrees_preorder(self):
        subs = list(fringe_subtrees(PlaneTree((2, 0, 2, 0, 0))))
        assert subs[0].size == 5 and subs[2] == CHERRY


class TestCountAndEnumerate:
    def test_known_counts(self):
        assert count_trees(DegreeStatistic.from_counts({0: 3, 2: 2})) == 2
        assert count_trees(DegreeStatistic.from_counts({0: 1})) == 1
        assert count_trees(DegreeStatistic.from_counts({0: 2, 2: 1})) == 1

    def test_enumerate_examples(self):
        got = {t.degrees for t in enumerate_trees(DegreeStatistic.from_counts({0: 3, 2: 2}))}
        assert got == {(2, 0, 2, 0, 0), (2, 2, 0, 0, 0)}
        assert [t.degrees for t in enumerate_trees(DegreeStatistic.from_counts({0: 1}))] == [(0,)]

    @pytest.mark.parametrize("size", range(1, 11))
    def test_count_matches_enumeration(self, size):
        for stat in all_degree_statistics(size):
            trees = list(enumerate_trees(stat))
            assert len(trees) == count_trees(stat)
            assert len(set(trees)) == len(trees)
            for t in trees:
                assert degree_statistic(t) == stat

    def test_catalan_totals(self):
        # trees of size k over all degree profiles total Catalan(k-1)
        for k in range(1, 8):
            total = sum(count_trees(s) for s in all_degree_statistics(k))
            assert total == math.comb(2 * (k - 1), k - 1) // k

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(enumerate_trees(DegreeStatistic.from_counts({0: 12, 12: 1})))

    def test_all_trees_sizes(self):
        assert [len(all_trees(k)) for k in range(1, 7)] == [1, 1, 2, 5, 14, 42]


class TestUnordered:
    def test_mirror_images_equal(self):
        assert canonical_unordered(PlaneTree((2, 0, 2, 0, 0))) == canonical_unordered(
            PlaneTree((2, 2, 0, 0, 0))
        )

    def test_distinct_shapes(self):
        assert canonical_unordered(PATH3) != canonical_unordered(CHERRY)

    def test_leaf(self):
        assert canonical_unordered(LEAF) == canonical_unordered(PlaneTree((0,)))

    @given(random_tree_strategy(max_size=10))
    def test_invariant_under_child_permutation(self, tree):
        key = canonical_unordered(tree)
        for ordering in enumerate_orderings(key):
            assert canonical_unordered(ordering) == key

    def test_ordering_counts(self):
        assert len(enumerate_orderings(canonical_unordered(CHERRY))) == 1
        assert len(enumerate_orderings(canonical_unordered(PATH3))) == 1
        two = canonical_unordered(PlaneTree((2, 0, 1, 0)))
        assert len(enumerate_orderings(two)) == 2

    @pytest.mark.parametrize("code", [b"x", b"", b"(", b"(()", b"()()", b"())"])
    def test_malformed_key_rejected(self, code):
        with pytest.raises(ValueError):
            enumerate_orderings(UnorderedKey(code))

    def test_orderings_partition_plane_trees(self):
        # every shape of up to 10 vertices, and a 12-vertex shape with 120
        # orderings, against the trees of its degree profile with its key
        reps = {canonical_unordered(t): t for size in range(1, 11) for t in all_trees(size)}
        wide = PlaneTree((6, 0, 1, 0, 2, 0, 0, 1, 1, 0, 0, 0))
        reps[canonical_unordered(wide)] = wide
        assert len(reps) == 1205 + 1
        classes = {}
        for stat in {degree_statistic(t) for t in reps.values()}:
            for t in enumerate_trees(stat):
                classes.setdefault(canonical_unordered(t), set()).add(t)
        for key in reps:
            assert enumerate_orderings(key) == classes[key]
        assert len(classes[canonical_unordered(wide)]) == 120
