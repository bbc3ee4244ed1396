"""Rooted ordered trees as preorder degree sequences.

A plane (ordered rooted) tree on k vertices is stored as the sequence
(d(1), ..., d(k)) of child counts in depth-first (preorder) order.  A
sequence is valid iff

    sum_{i<=j} d(i) >= j   for 1 <= j <= k-1,   and   sum_i d(i) = k - 1.

Equivalently, the walk with increments d(i) - 1 is a lattice excursion:
it stays >= 0 and first hits -1 at time k.  The sampler builds such
excursions by rotating a shuffled degree word (sampling.excursion_degrees).
This module provides the tree and degree-count types, fringe-subtree
counting, the number and the enumeration of trees with a given degree
profile, and canonicalization of unordered trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, InvalidDegreeStatistic, InvalidPreorder, as_integer

ENUMERATION_CAP = 12


def _check_preorder(degrees) -> None:
    total = 0
    k = len(degrees)
    if k == 0:
        raise InvalidPreorder("empty degree sequence")
    for j, d in enumerate(degrees, start=1):
        if as_integer(d) < 0:
            raise InvalidPreorder(f"negative degree at index {j - 1}", index=j - 1)
        total += d
        if j < k and total < j:
            raise InvalidPreorder(
                f"partial sum {total} < {j} at index {j - 1}", index=j - 1
            )
    if total != k - 1:
        raise InvalidPreorder(f"degree total {total} != {k - 1}")


@dataclass(frozen=True)
class PlaneTree:
    """A rooted ordered tree, canonically encoded by its preorder degrees."""

    degrees: tuple

    def __post_init__(self):
        _check_preorder(self.degrees)

    @property
    def size(self) -> int:
        return len(self.degrees)

    def __repr__(self) -> str:
        return f"PlaneTree({','.join(map(str, self.degrees))})"

    @classmethod
    def from_text(cls, text: str) -> "PlaneTree":
        """Parse the comma-separated preorder format, e.g. ``2,0,2,0,0``."""
        return cls(tuple(int(part) for part in text.strip().split(",")))

    def to_text(self) -> str:
        return ",".join(map(str, self.degrees))


def _unchecked_tree(degrees: tuple) -> PlaneTree:
    """Wrap an already-validated degree tuple without rescanning it.

    Only for internal callers that have verified the excursion property by
    other means (e.g. vectorized partial sums in the sampler).
    """
    tree = object.__new__(PlaneTree)
    object.__setattr__(tree, "degrees", degrees)
    return tree


@dataclass(frozen=True)
class DegreeStatistic:
    """Counts of vertices per child count: integer items (degree, count),
    degrees strictly increasing from 0 (``from_counts`` sorts them) and
    counts >= 1, so equal profiles are equal; else InvalidDegreeStatistic,
    or TypeError for a non-integer.  Feasible as the degree profile of a
    tree iff sum_i n(i) = 1 + sum_i i*n(i).
    """

    items: tuple

    def __post_init__(self):
        previous = -1
        for degree, count in self.items:
            if as_integer(degree) <= previous or as_integer(count) < 1:
                raise InvalidDegreeStatistic(f"bad or unsorted entry degree={degree} count={count}")
            previous = degree
        if self.size != 1 + self.edge_count:
            raise InvalidDegreeStatistic(
                f"balance violated: {self.size} vertices vs "
                f"{self.edge_count} edges"
            )

    @classmethod
    def from_counts(cls, counts) -> "DegreeStatistic":
        """Build from a mapping degree -> count; zero counts are dropped and
        a degree or count that is not an integer raises TypeError."""
        pairs = [(as_integer(d), as_integer(c)) for d, c in dict(counts).items()]
        return cls(tuple(sorted(pair for pair in pairs if pair[1])))

    @property
    def size(self) -> int:
        """Number of vertices |n|."""
        return sum(c for _, c in self.items)

    @property
    def edge_count(self) -> int:
        return sum(d * c for d, c in self.items)

    def count(self, degree: int) -> int:
        for d, c in self.items:
            if d == degree:
                return c
        return 0

    def as_dict(self) -> dict:
        return {d: c for d, c in self.items}

    def degree_multiset(self) -> np.ndarray:
        """The multiset c(n) as a sorted int64 array: n(0) zeros, n(1) ones,
        and so on; the samplers' shuffle reads its non-leaves as its tail."""
        degrees, counts = zip(*self.items)
        return np.repeat(np.array(degrees, dtype=np.int64), counts)

    def empirical_distribution(self) -> dict:
        """Exact per-degree frequencies n(i)/|n|."""
        n = self.size
        return {d: Fraction(c, n) for d, c in self.items}


def degree_statistic(tree: PlaneTree) -> DegreeStatistic:
    """Tally the child counts of a tree."""
    counts = {}
    for d in tree.degrees:
        counts[d] = counts.get(d, 0) + 1
    return DegreeStatistic.from_counts(counts)


# ---------------------------------------------------------------------------
# Fringe subtrees


def count_fringe(tree: PlaneTree, pattern: PlaneTree) -> int:
    """Number of fringe subtrees of ``tree`` equal to ``pattern``.

    Because the fringe subtree at vertex i occupies a contiguous preorder
    block, and a block equal to a complete preorder sequence is necessarily
    that fringe block, this is plain substring counting.
    """
    hay = tree.degrees
    needle = pattern.degrees
    m = len(needle)
    if m > len(hay):
        return 0
    return sum(
        1 for i in range(len(hay) - m + 1) if hay[i : i + m] == needle
    )


# ---------------------------------------------------------------------------
# Counting and enumeration


def count_trees(stat: DegreeStatistic):
    """Number of plane trees with the given degree counts:
    (1/|n|) * |n|! / prod_i n(i)!."""
    n = stat.size
    denom = n
    for _, c in stat.items:
        denom *= math.factorial(c)
    count, remainder = divmod(math.factorial(n), denom)
    if remainder:
        raise InvalidDegreeStatistic(f"tree count of {stat.as_dict()} is not integral")
    return count


def enumerate_trees(stat: DegreeStatistic, cap: int = ENUMERATION_CAP):
    """Yield every plane tree with the given degree counts exactly once.

    Backtracks over distinct arrangements of the degree multiset, pruning
    prefixes whose running walk sum drops below the valid-preorder bound.
    """
    n = stat.size
    if n > cap:
        raise CapExceeded(f"|n| = {n} exceeds enumeration cap {cap}")
    degrees, remaining = [d for d, _ in stat.items], [c for _, c in stat.items]
    prefix = [0] * n

    def backtrack(pos, total):
        if pos == n:
            yield PlaneTree(tuple(prefix))
            return
        for idx, d in enumerate(degrees):
            if remaining[idx] == 0:
                continue
            new_total = total + d
            # need partial sums >= pos+1 strictly before the last slot
            if pos < n - 1 and new_total < pos + 1:
                continue
            remaining[idx] -= 1
            prefix[pos] = d
            yield from backtrack(pos + 1, new_total)
            remaining[idx] += 1

    yield from backtrack(0, 0)


# ---------------------------------------------------------------------------
# Unordered trees


@dataclass(frozen=True)
class UnorderedKey:
    """Canonical code of a rooted tree up to reordering of children.

    The code of a vertex is ``(`` + the sorted codes of its children + ``)``;
    two plane trees get equal keys iff they are isomorphic as unordered
    rooted trees.
    """

    code: bytes

    def __repr__(self) -> str:
        return f"UnorderedKey({self.code.decode('ascii')})"


def canonical_unordered(tree: PlaneTree) -> UnorderedKey:
    """Canonical key, computed bottom-up without recursion."""
    degrees = tree.degrees
    stack = []
    for i in range(len(degrees) - 1, -1, -1):
        children = [stack.pop() for _ in range(degrees[i])]
        children.sort()
        stack.append(b"(" + b"".join(children) + b")")
    return UnorderedKey(stack[0])


def _parse_code(code: bytes):
    """Parse a canonical code into a nested list-of-children structure."""
    stack = [[]]
    for token in code:
        if token == ord("("):
            stack.append([])
        elif token == ord(")") and len(stack) > 1:
            children = stack.pop()
            stack[-1].append(children)
        else:
            raise ValueError(f"malformed unordered key {code!r}")
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"malformed unordered key {code!r}")
    return stack[0][0]


def _code_size(node) -> int:
    return 1 + sum(_code_size(c) for c in node)


def enumerate_orderings(key: UnorderedKey) -> set:
    """All distinct plane trees whose canonical key equals ``key``.

    A vertex's child sequences grow one child at a time: every ordering of
    the child goes into every slot of every sequence so far, and the set
    drops the repeats that children of equal shape give."""
    root = _parse_code(key.code)
    if _code_size(root) > ENUMERATION_CAP:
        raise CapExceeded(f"tree size exceeds ordering cap {ENUMERATION_CAP}")

    def orderings(node) -> set:
        sequences = {()}
        for child in node:
            subtrees = orderings(child)
            sequences = {
                seq[:slot] + (sub,) + seq[slot:]
                for seq in sequences
                for sub in subtrees
                for slot in range(len(seq) + 1)
            }
        return {(len(node),) + sum(seq, ()) for seq in sequences}

    return {PlaneTree(seq) for seq in orderings(root)}
