"""Rooted ordered trees as preorder degree sequences.

A plane (ordered rooted) tree on k vertices is stored as the sequence
(d(1), ..., d(k)) of child counts in depth-first (preorder) order.  A
sequence is valid iff

    sum_{i<=j} d(i) >= j   for 1 <= j <= k-1,   and   sum_i d(i) = k - 1.

Equivalently, the walk with increments d(i) - 1 is a lattice excursion:
it stays >= 0 and first hits -1 at time k.  This module provides the
encodings between trees, walks and degree counts, fringe-subtree counting,
canonicalization of unordered trees, and exhaustive enumeration used as a
brute-force oracle by the moment and sampling modules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CapExceeded, InvalidDegreeStatistic, InvalidPath, InvalidPreorder

ENUMERATION_CAP = 12


def _check_preorder(degrees) -> None:
    total = 0
    k = len(degrees)
    if k == 0:
        raise InvalidPreorder("empty degree sequence")
    for j, d in enumerate(degrees, start=1):
        if d < 0:
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

    def __len__(self) -> int:
        return len(self.degrees)

    def __repr__(self) -> str:
        return f"PlaneTree({','.join(map(str, self.degrees))})"

    @classmethod
    def from_text(cls, text: str) -> "PlaneTree":
        """Parse the comma-separated preorder format, e.g. ``2,0,2,0,0``."""
        return cls(tuple(int(part) for part in text.strip().split(",")))

    def to_text(self) -> str:
        return ",".join(map(str, self.degrees))


def decode_preorder(degrees) -> PlaneTree:
    """Validate a preorder degree sequence and wrap it as a tree."""
    return PlaneTree(tuple(degrees))


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
    """Counts of vertices per child count: items (degree, count), count > 0.

    Feasible as the degree profile of a tree iff
    sum_i n(i) = 1 + sum_i i*n(i).
    """

    items: tuple

    def __post_init__(self):
        seen = set()
        for degree, count in self.items:
            if degree < 0 or count <= 0:
                raise InvalidDegreeStatistic(
                    f"bad entry degree={degree} count={count}"
                )
            if degree in seen:
                raise InvalidDegreeStatistic(f"repeated degree {degree}")
            seen.add(degree)
        if self.size != 1 + self.edge_count:
            raise InvalidDegreeStatistic(
                f"balance violated: {self.size} vertices vs "
                f"{self.edge_count} edges"
            )

    @classmethod
    def from_counts(cls, counts) -> "DegreeStatistic":
        """Build from a mapping degree -> count; zero counts are dropped."""
        items = tuple(sorted((int(d), int(c)) for d, c in dict(counts).items() if c))
        return cls(items)

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

    def degree_multiset(self):
        """The sorted multiset c(n): n(0) zeros, n(1) ones, and so on."""
        out = []
        for d, c in self.items:
            out.extend([d] * c)
        return out

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
# Lattice walks


@dataclass(frozen=True)
class LukasiewiczPath:
    """Integer walk x(0..k) with x(0) = 0 and increments >= -1.

    kind is one of 'bridge' (ends at -1), 'excursion' (ends at -1 and stays
    >= 0 before the end), or 'general'.
    """

    values: tuple
    kind: str = "general"

    def __post_init__(self):
        v = self.values
        if not v or v[0] != 0:
            raise InvalidPath("walk must start at 0")
        for i in range(1, len(v)):
            if v[i] - v[i - 1] < -1:
                raise InvalidPath(f"increment < -1 at step {i}")
        if self.kind == "bridge":
            if v[-1] != -1:
                raise InvalidPath("bridge must finish at -1")
        elif self.kind == "excursion":
            if v[-1] != -1 or any(x < 0 for x in v[:-1]):
                raise InvalidPath("excursion must first hit -1 at the last step")
        elif self.kind != "general":
            raise InvalidPath(f"unknown kind {self.kind!r}")

    @property
    def length(self) -> int:
        return len(self.values) - 1

    def increments(self) -> tuple:
        v = self.values
        return tuple(v[i] - v[i - 1] for i in range(1, len(v)))

    @classmethod
    def from_increments(cls, increments, kind="general") -> "LukasiewiczPath":
        values = [0]
        for step in increments:
            values.append(values[-1] + step)
        return cls(tuple(values), kind)


def lukasiewicz_path(tree: PlaneTree) -> LukasiewiczPath:
    """Depth-first walk of a tree: increments d(i) - 1; an excursion."""
    return LukasiewiczPath.from_increments(
        (d - 1 for d in tree.degrees), kind="excursion"
    )


def decode_path(path: LukasiewiczPath) -> PlaneTree:
    """Inverse of lukasiewicz_path: vertex degrees are increments + 1."""
    return PlaneTree(tuple(step + 1 for step in path.increments()))


def vervaat(bridge: LukasiewiczPath):
    """Cyclic shift of a bridge at the first minimum, yielding an excursion.

    Returns (excursion, shift) where shift is the 1-based time of the first
    minimum of the bridge; the j-th increment of the output is the
    (shift + j)-th increment of the input, indices wrapping around.  Ties
    are broken by the earliest index.  An excursion input maps to itself
    with shift equal to its length.
    """
    if bridge.kind not in ("bridge", "excursion"):
        raise InvalidPath("vervaat expects a bridge")
    values = bridge.values
    k = bridge.length
    minimum = min(values[1:])
    shift = next(i for i in range(1, k + 1) if values[i] == minimum)
    inc = bridge.increments()
    rotated = inc[shift:] + inc[:shift]
    return LukasiewiczPath.from_increments(rotated, kind="excursion"), shift


# ---------------------------------------------------------------------------
# Fringe subtrees


def fringe_lengths(tree: PlaneTree) -> list:
    """lengths[i] = size of the fringe subtree rooted at preorder vertex i."""
    degrees = tree.degrees
    lengths = [0] * len(degrees)
    stack = []
    for i in range(len(degrees) - 1, -1, -1):
        d = degrees[i]
        size = 1
        for _ in range(d):
            size += stack.pop()
        lengths[i] = size
        stack.append(size)
    return lengths


def fringe_subtrees(tree: PlaneTree):
    """Yield the fringe subtree at each vertex, in preorder."""
    degrees = tree.degrees
    for i, size in enumerate(fringe_lengths(tree)):
        yield PlaneTree(degrees[i : i + size])


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


def count_fringe_by_extraction(tree: PlaneTree, pattern: PlaneTree) -> int:
    """Independent recount: extract the fringe subtree at every vertex and
    compare trees.  Used to cross-check count_fringe."""
    return sum(1 for sub in fringe_subtrees(tree) if sub == pattern)


def fringe_distribution(tree: PlaneTree) -> dict:
    """Law of the fringe subtree at a uniform vertex: tree -> exact weight."""
    tally = {}
    for sub in fringe_subtrees(tree):
        tally[sub] = tally.get(sub, 0) + 1
    n = tree.size
    return {sub: Fraction(c, n) for sub, c in tally.items()}


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
    degrees = sorted(stat.as_dict())
    remaining = [stat.count(d) for d in degrees]
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


def enumerate_bridges(stat: DegreeStatistic, cap: int = ENUMERATION_CAP):
    """Yield every bridge whose increment counts match the degree counts."""
    n = stat.size
    if n > cap:
        raise CapExceeded(f"|n| = {n} exceeds enumeration cap {cap}")
    degrees = sorted(stat.as_dict())
    remaining = [stat.count(d) for d in degrees]
    prefix = [0] * n

    def backtrack(pos):
        if pos == n:
            yield LukasiewiczPath.from_increments(
                (d - 1 for d in prefix), kind="bridge"
            )
            return
        for idx, d in enumerate(degrees):
            if remaining[idx] == 0:
                continue
            remaining[idx] -= 1
            prefix[pos] = d
            yield from backtrack(pos + 1)
            remaining[idx] += 1

    yield from backtrack(0)


@lru_cache(maxsize=None)
def all_trees(size: int) -> tuple:
    """All plane trees with exactly ``size`` vertices (Catalan(size-1) many)."""
    if size < 1:
        return ()
    if size == 1:
        return (PlaneTree((0,)),)
    out = []
    for root_degree in range(1, size):
        for split in _compositions(size - 1, root_degree):
            for children in itertools.product(*(all_trees(s) for s in split)):
                degrees = (root_degree,) + tuple(
                    d for child in children for d in child.degrees
                )
                out.append(PlaneTree(degrees))
    return tuple(out)


def all_trees_up_to(max_size: int) -> tuple:
    return tuple(t for s in range(1, max_size + 1) for t in all_trees(s))


def _compositions(total, parts):
    """Compositions of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def all_degree_statistics(size: int):
    """All feasible degree statistics with exactly ``size`` vertices.

    The multiset of nonzero degrees is a partition of size-1; leaves make
    up the rest, so feasibility is automatic.
    """
    out = []
    for partition in _partitions(size - 1):
        counts = {}
        for part in partition:
            counts[part] = counts.get(part, 0) + 1
        counts[0] = size - len(partition)
        out.append(DegreeStatistic.from_counts(counts))
    return out


def _partitions(total, max_part=None):
    """Partitions of ``total`` into positive parts (nonincreasing tuples)."""
    if total == 0:
        yield ()
        return
    if max_part is None or max_part > total:
        max_part = total
    for first in range(max_part, 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


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


def enumerate_orderings(key: UnorderedKey, cap: int = ENUMERATION_CAP) -> set:
    """All distinct plane trees whose canonical key equals ``key``."""
    root = _parse_code(key.code)
    if _code_size(root) > cap:
        raise CapExceeded(f"tree size exceeds ordering cap {cap}")

    def orderings(node):
        if not node:
            return [(0,)]
        # children with equal canonical shape are interchangeable; the parse
        # of a canonical code is itself canonical, so repr() is a shape key
        by_shape = {}
        for child in node:
            by_shape.setdefault(repr(child), [0, child])[0] += 1
        shapes = {
            shape: (count, orderings(child))
            for shape, (count, child) in by_shape.items()
        }
        out = []
        for arrangement in _multiset_permutations(
            [(shape, count) for shape, (count, _) in shapes.items()]
        ):
            pools = [shapes[shape][1] for shape in arrangement]
            for combo in itertools.product(*pools):
                degrees = (len(node),) + tuple(d for seq in combo for d in seq)
                out.append(degrees)
        return out

    return {PlaneTree(seq) for seq in orderings(root)}


def _multiset_permutations(item_counts):
    """Distinct arrangements of a multiset given as (item, count) pairs."""
    counts = dict(item_counts)
    total = sum(counts.values())
    prefix = []

    def backtrack():
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for item in counts:
            if counts[item] == 0:
                continue
            counts[item] -= 1
            prefix.append(item)
            yield from backtrack()
            prefix.pop()
            counts[item] += 1

    yield from backtrack()
