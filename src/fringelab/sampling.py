"""Exact-uniform samplers for trees with prescribed degrees.

The core construction: shuffle the degree multiset uniformly (Fisher-Yates
inside numpy's permutation), read the shuffled degrees as a lattice bridge
with increments degree - 1, rotate the bridge at its first minimum to get
an excursion, and decode the excursion as a tree.  The rotation is an
|n|-to-1 map from bridges onto excursions with the same increment counts,
so the resulting tree is exactly uniform.  By the cycle lemma, the rotation
of an integer walk at its first minimum is an excursion ending at -1
exactly when the walk ends at -1, so the sampler checks that one value
instead of walking the rotated word again.

Size-conditioned Galton-Watson trees reduce to the same primitive: given
its degree counts, such a tree is uniform among the trees with those
counts.  So only the counts are drawn by rejection, one multinomial count
vector per attempt at O(support) cost, after Devroye, "Simulating
size-constrained Galton-Watson trees" (SIAM J. Comput. 2012); the shuffle
and rotation then build the tree.  An attempt does not wait for its total
to hit n - 1: the leaves and the smallest positive degree a form a pair
whose split is forced by the other counts, and the attempt is accepted
with the exact binomial probability of that split over its largest value,
so for critical laws the acceptance rate does not fall with n.

Randomness is PCG64 with explicit SeedSequence stream derivation: a Seed
is (value, stream_id), and replicate r of a batch uses the spawn key
(stream_id, r).  Identical seeds reproduce identical output on any worker
layout.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .distributions import (
    OffspringDistribution,
    _log_binomial_pmf,
    _mass_table,
    sample_offspring,
)
from .errors import AttemptsExhausted, InfeasibleSize, InvalidDegreeSequence, InvalidPath
from .tree_core import DegreeStatistic, PlaneTree, _unchecked_tree


@dataclass(frozen=True)
class Seed:
    """Reproducible RNG root: (value, stream_id) -> a PCG64 stream."""

    value: int
    stream_id: int = 0

    def __post_init__(self):
        if self.value < 0 or self.stream_id < 0:
            raise ValueError("seed components must be nonnegative")

    def generator(self, *extra: int) -> np.random.Generator:
        """Generator for this stream; extra indices derive disjoint
        sub-streams (e.g. one per replicate) via the spawn key."""
        key = (self.stream_id,) + tuple(int(x) for x in extra)
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=self.value, spawn_key=key))
        )


def _as_generator(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return seed_or_rng.generator()


@dataclass(frozen=True)
class DegreeSequence:
    """Per-label child counts (d_1, ..., d_n) with sum d_i = n - 1."""

    degrees: tuple

    def __post_init__(self):
        n = len(self.degrees)
        if n == 0 or sum(self.degrees) != n - 1 or min(self.degrees) < 0:
            raise InvalidDegreeSequence(
                f"degrees must be nonnegative and sum to {n - 1}"
            )

    @property
    def size(self) -> int:
        return len(self.degrees)

    def statistic(self) -> DegreeStatistic:
        counts = {}
        for d in self.degrees:
            counts[d] = counts.get(d, 0) + 1
        return DegreeStatistic.from_counts(counts)


def sample_uniform_tree(stat: DegreeStatistic, seed) -> PlaneTree:
    """One exact-uniform tree with the given degree counts."""
    return _sample_tree(stat, _as_generator(seed))


def sample_uniform_trees(stat: DegreeStatistic, reps: int, seed) -> list:
    """A reproducible batch drawn from one stream."""
    rng = _as_generator(seed)
    return [_sample_tree(stat, rng) for _ in range(reps)]


def _sample_tree(stat: DegreeStatistic, rng: np.random.Generator) -> PlaneTree:
    degrees, counts = zip(*stat.items)
    multiset = np.repeat(np.array(degrees, dtype=np.int64), counts)
    return _unchecked_tree(tuple(excursion_degrees(multiset, rng).tolist()))


def excursion_degrees(multiset: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Shuffle a degree multiset and rotate the induced bridge at its first
    minimum; the result is the preorder degree word of a uniform tree.

    By the cycle lemma the rotated word is an excursion (partial sums of
    degree - 1 stay >= 0 and end at -1) exactly when the walk ends at -1:
    after the cut the walk stays at or above its minimum, and before the
    cut strictly above it, so at least 1 above on integers, which the
    wrap's total of -1 takes back.  So one look at the walk's last value
    replaces a second walk over the rotated word; InvalidPath is raised
    when it is not -1.
    """
    shuffled = rng.permutation(multiset)
    walk = np.cumsum(shuffled - 1)
    if walk[-1] != -1:
        raise InvalidPath("degree word does not sum to its length - 1")
    shift = int(np.argmin(walk)) + 1  # argmin takes the first minimum
    return np.concatenate((shuffled[shift:], shuffled[:shift]))


def sample_labelled_tree(dseq: DegreeSequence, seed):
    """Uniform labelled unordered tree with the given per-label degrees.

    Returns (tree, labels) with labels[i] the 1-based label of the i-th
    preorder vertex.  The plane shape is uniform given the degree counts,
    and within each degree class the labels occupy the class's preorder
    slots through a uniform random bijection; forgetting the order then
    gives the uniform labelled law.
    """
    rng = _as_generator(seed)
    tree = _sample_tree(dseq.statistic(), rng)
    labels = [0] * tree.size
    by_degree = {}
    for label, degree in enumerate(dseq.degrees, start=1):
        by_degree.setdefault(degree, []).append(label)
    positions = {}
    for pos, degree in enumerate(tree.degrees):
        positions.setdefault(degree, []).append(pos)
    for degree, slots in positions.items():
        names = by_degree[degree]
        for slot, pick in zip(slots, rng.permutation(len(names))):
            labels[slot] = names[pick]
    return tree, tuple(labels)


_FIRST_BLOCK = 32

# float decisions closer than this (plus a share of the summed log terms)
# to the threshold are redone in exact arithmetic
_LOG_SLACK = 1e-9


def sample_conditioned_gw(
    w: OffspringDistribution,
    n: int,
    seed,
    max_attempts: int = 1_000_000,
    batch: int = 256,
) -> PlaneTree:
    """Size-conditioned branching-process tree, exact by rejection on the
    degree counts (Devroye, "Simulating size-constrained Galton-Watson
    trees", SIAM J. Comput. 2012).

    Given its degree counts, a conditioned Galton-Watson tree is a uniform
    tree with those counts, so only the counts need rejection.  One attempt
    draws a whole count vector (c_i) ~ multinomial(n, p) in C, the tally of
    n offspring draws from ``sample_offspring(..., tally=n)``, at a cost of
    O(support) rather than n separate degree draws.

    Pair the leaves with a, the smallest positive degree.  The other counts
    R, m in number with W = sum_i i*c_i over them, force the pair: the
    tree needs c_0 + c_a = N = n - m and c_a = (n - 1 - W) / a.  Since

        Mult(n, p)(c) = Mult(n; p_0 + p_a, p_R)(N, R) * Bin(N, rho)(c_a),

    rho = p_a / (p_0 + p_a), and (c_0 + c_a, R) of a drawn vector has the
    first law, an attempt reads (N, R), rejects when the forced c_a is not
    an integer in [0, N], and otherwise accepts with probability
    Bin(N, rho)(c_a) / M, its split overwritten by the forced one.  The
    bound M is the largest Bin(L, rho) probability, L = n - (n-1) // (a+1):
    a feasible vector has N >= L, since every other degree exceeds a, and
    the largest Bin(N, rho) probability does not grow with N.  The accepted
    vector then has the exact conditional law, and the uniform-tree sampler
    finishes the job.  The test runs in log space and is decided with exact
    fractions of the float masses and of u when the two logs are close.

    Attempts are drawn in blocks of 32 count vectors, doubling up to
    ``batch``, at most ``max_attempts`` in all.
    """
    if n < 1:
        raise InfeasibleSize("n must be at least 1")
    _check_feasible(w, n)
    pair = _leaf_pair(w, n)
    rng = _as_generator(seed)
    attempts, block = 0, _FIRST_BLOCK
    while attempts < max_attempts:
        rows = min(block, batch, max_attempts - attempts)
        # rows of n offspring draws, each kept only as its tally
        _, counts = sample_offspring(w, rng, rows * n, tally=n)
        for row, size, k in zip(*pair.splits(counts)):
            if pair.accepts(rng.random(), size, k):
                return _sample_tree(pair.statistic(counts[row], size, k), rng)
        attempts += rows
        block *= 2
    raise AttemptsExhausted(
        f"no size-{n} tree accepted in {attempts} attempts",
        acceptance_rate=1.0 / max(attempts, 1),
    )


@dataclass(frozen=True, eq=False)
class _LeafPair:
    """Per-(law, n) constants of the leaf-pair acceptance test.

    ``degrees`` are the degrees of the drawn count vectors; the two
    columns of ``others`` hold 1 and the degree at each degree outside
    {0, a} and 0 at 0 and a, so a vector's product with them is (m, W).
    ``low`` is L, ``mode`` the mode of Bin(L, rho), ``log_top`` log M and
    ``slack`` the width of the band around the log threshold that is
    decided exactly (infinite when rho is 0 or 1).
    """

    n: int
    a: int
    degrees: np.ndarray
    others: np.ndarray
    rho: Fraction
    low: int
    mode: int
    log_rho: float
    log_rest: float
    log_top: float
    slack: float

    def splits(self, counts: np.ndarray):
        """(rows, N, c_a) of the count vectors whose forced c_a is an
        integer in [0, N], as lists in row order."""
        m, weight = (counts @ self.others).T
        sizes = self.n - m
        k, rest = np.divmod(self.n - 1 - weight, self.a)
        hits = np.flatnonzero((rest == 0) & (k >= 0) & (k <= sizes))
        return hits.tolist(), sizes[hits].tolist(), k[hits].tolist()

    def accepts(self, u: float, size: int, k: int) -> bool:
        """u < Bin(size, rho)(k) / M, in floats unless the logs are close."""
        threshold = _log_binomial_pmf(size, k, self.log_rho, self.log_rest) - self.log_top
        log_u = math.log(u) if u > 0 else -math.inf
        if abs(log_u - threshold) < self.slack:
            return Fraction(u) < self.exact_ratio(size, k)
        return log_u < threshold

    def exact_ratio(self, size: int, k: int) -> Fraction:
        """Bin(size, rho)(k) / M as an exact fraction."""
        return _binomial_pmf(size, k, self.rho) / _binomial_pmf(self.low, self.mode, self.rho)

    def statistic(self, row: np.ndarray, size: int, k: int) -> DegreeStatistic:
        """The degree counts of ``row`` with the pair split as forced; only
        its nonzero cells are read."""
        cells = np.flatnonzero(row)
        counts = dict(zip(self.degrees[cells].tolist(), row[cells].tolist()))
        counts[0] = size - k
        counts[self.a] = k
        return DegreeStatistic.from_counts(counts)


def _binomial_pmf(n: int, k: int, rho: Fraction) -> Fraction:
    p, d = rho.numerator, rho.denominator
    return Fraction(math.comb(n, k) * p**k * (d - p) ** (n - k), d**n)


@lru_cache(maxsize=64)
def _leaf_pair(w: OffspringDistribution, n: int) -> _LeafPair:
    """The acceptance constants of (w, n), from the same float masses the
    count vectors are drawn with (exact dyadic rationals).  Without a
    positive degree of positive mass, a = 1 with mass 0, so rho = 0 and
    only n = 1 is ever accepted."""
    degrees, masses = _mass_table(w)
    mass = dict(zip(degrees.tolist(), masses.tolist()))
    a = next((d for d in mass if d > 0), 1)
    leaf, pair = Fraction(mass.get(0, 0.0)), Fraction(mass.get(a, 0.0))
    rho = pair / (leaf + pair)
    other = ((degrees != 0) & (degrees != a)).astype(np.int64)
    low = n - (n - 1) // (a + 1)
    mode = min((low + 1) * rho.numerator // rho.denominator, low)
    log_rho = math.log(rho) if rho else -math.inf
    log_rest = math.log(1 - rho) if rho != 1 else -math.inf
    # a bound on the summed magnitudes of the float log terms (log n! <= n log n)
    scale = n * (1 + 2 * math.log(n + 1) + abs(log_rho) + abs(log_rest))
    return _LeafPair(
        n=n,
        a=a,
        degrees=degrees,
        others=np.stack((other, other * degrees), axis=1),
        rho=rho,
        low=low,
        mode=mode,
        log_rho=log_rho,
        log_rest=log_rest,
        log_top=_log_binomial_pmf(low, mode, log_rho, log_rest),
        slack=_LOG_SLACK + 1e-13 * scale,
    )


def _check_feasible(w: OffspringDistribution, n: int) -> None:
    """Reject (w, n) pairs for which no degree draw can sum to n - 1.

    Exact at every n: n - 1 must be a sum of positive degrees (n - 1 of
    them at most, since each adds at least 1), which holds iff it is at
    least the least such sum in its residue class mod the smallest
    positive degree.
    """
    if w.p(0) == 0:
        raise InfeasibleSize("trees need leaves: p_0 = 0")
    target = n - 1
    least = _least_sums(w)
    if target and target < least[target % len(least)]:
        raise InfeasibleSize(
            f"n - 1 = {target} is not a sum of degrees from {w.support()}"
        )


@lru_cache(maxsize=256)
def _least_sums(w: OffspringDistribution) -> tuple:
    """least[r] = least sum of positive degrees that is r mod a, with a
    the smallest positive degree (infinity if there is none).

    Classes that the gcd of the degrees does not divide stay infinite, so
    the table also enforces that the gcd divides n - 1.  Computed by
    Dijkstra over the a residues; only the smallest degree of each class
    (the support is sorted) can be part of a least sum.
    """
    coins = [d for d in w.support() if d >= 1]
    if not coins:
        return (math.inf,)
    a = coins[0]
    steps = {}
    for c in coins[1:]:
        steps.setdefault(c % a, c)
    least = [math.inf] * a
    least[0] = 0
    heap = [(0, 0)]
    while heap:
        total, r = heapq.heappop(heap)
        if total > least[r]:
            continue
        for c in steps.values():
            nxt = (r + c) % a
            if total + c < least[nxt]:
                least[nxt] = total + c
                heapq.heappush(heap, (total + c, nxt))
    return tuple(least)


def sample_hub_tree(n0: int, n1: int, seed) -> PlaneTree:
    """Uniform tree whose profile is n0 leaves, n1 single-child vertices and
    one hub of degree n0.

    Such trees are in bijection with compositions of n1 into n0 + 1 parts:
    the trunk above the hub and the n0 legs below it carry the degree-1
    vertices.  Sampling a uniform composition (stars and bars) therefore
    gives an exact-uniform tree, independently of the bridge-rotation
    sampler.
    """
    if n0 < 2 or n1 < 0:
        raise ValueError("need n0 >= 2 and n1 >= 0")
    rng = _as_generator(seed)
    parts = _uniform_composition(n1, n0 + 1, rng)
    degrees = [1] * parts[0] + [n0]
    for leg in parts[1:]:
        degrees.extend([1] * leg)
        degrees.append(0)
    return PlaneTree(tuple(degrees))


def _uniform_composition(total: int, parts: int, rng) -> list:
    """Uniform weak composition of ``total`` into ``parts`` parts."""
    if total == 0:
        return [0] * parts
    bars = np.sort(rng.choice(total + parts - 1, size=parts - 1, replace=False))
    out = []
    prev = -1
    for b in bars:
        out.append(int(b) - prev - 1)
        prev = int(b)
    out.append(total + parts - 2 - prev)
    return out
