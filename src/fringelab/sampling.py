"""Exact-uniform samplers for trees with prescribed degrees.

The core construction: shuffle the degree multiset uniformly (numpy's
permutation up to 10 000 entries; above, the non-zero degrees are written
at positions drawn by numpy's choice, a partial Fisher-Yates there, and
the leaves fill the rest), read the shuffled degrees as a lattice bridge
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
so for critical laws the acceptance rate does not fall with n.  Count
vectors are drawn in blocks of 8, doubling up to 256: a geometric(1/2)
tree is accepted at its fourth vector on average, so most trees need only
the first block.

Randomness is PCG64 with explicit SeedSequence stream derivation: a Seed
is (value, stream_id), and Seed.generator(*extra) uses the spawn key
(stream_id, *extra).  sample_uniform_trees draws a whole batch from one
stream; ``sample --dseq`` keys replicate r as (stream_id, r), and the
harness keys chunk c of its replicates at size index s as (stream_id, s,
c), the chunk's replicates drawing from that one stream in turn.  Identical
seeds reproduce identical output on any worker layout.
"""

from __future__ import annotations

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
from .errors import (
    AttemptsExhausted,
    InfeasibleSize,
    InvalidDegreeSequence,
    InvalidPath,
    as_integer,
)
from .tree_core import DegreeStatistic, PlaneTree, _unchecked_tree


@dataclass(frozen=True)
class Seed:
    """Reproducible RNG root: (value, stream_id) -> a PCG64 stream."""

    value: int
    stream_id: int = 0

    def __post_init__(self):
        if as_integer(self.value) < 0 or as_integer(self.stream_id) < 0:
            raise ValueError("seed components must be nonnegative")

    def generator(self, *extra: int) -> np.random.Generator:
        """Generator for this stream; extra indices derive disjoint
        sub-streams (e.g. one per replicate) via the spawn key."""
        key = (self.stream_id,) + tuple(map(as_integer, extra))
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=self.value, spawn_key=key))
        )


def _as_generator(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return seed_or_rng.generator()


@dataclass(frozen=True)
class DegreeSequence:
    """Per-label child counts (d_1, ..., d_n) with sum d_i = n - 1; a count
    that is not an integer raises TypeError."""

    degrees: tuple

    def __post_init__(self):
        degrees = list(map(as_integer, self.degrees))
        n = len(degrees)
        if n == 0 or sum(degrees) != n - 1 or min(degrees) < 0:
            raise InvalidDegreeSequence(
                f"degrees must be nonnegative and sum to {n - 1}"
            )


def sample_uniform_trees(stat: DegreeStatistic, reps: int, seed) -> list:
    """A reproducible batch of ``reps`` trees drawn from one stream; a
    negative count raises ValueError."""
    if as_integer(reps) < 0:
        raise ValueError(f"reps = {reps} must be at least 0")
    rng = _as_generator(seed)
    multiset = stat.degree_multiset()
    return [_sample_tree(multiset, rng) for _ in range(reps)]


def _sample_tree(multiset: np.ndarray, rng: np.random.Generator) -> PlaneTree:
    """The tree of one shuffle of the sorted non-negative int64 degree multiset."""
    return _unchecked_tree(tuple(excursion_degrees(multiset, rng).tolist()))


# numpy's Generator.choice(n, k, replace=False) runs a partial Fisher-Yates
# only when n is above 10 000 (and k above n // 50); at or below it, it uses
# Floyd's hash-set method, which is slower than permuting the whole word
_POSITIONS_ABOVE = 10_000


def _shuffled(multiset: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A uniform arrangement of the sorted, non-negative int64 degree multiset.

    Up to ``_POSITIONS_ABOVE`` entries it is ``rng.permutation``.  Above,
    the k non-zero entries, the tail after the zeros, are written in their
    given order at the k positions of ``rng.choice(n, k, replace=False)``
    into a word of zeros.  choice orders its sample uniformly
    (shuffle=True), so every ordered k-sample of positions is equally
    likely, and each arrangement arises from exactly prod_{d != 0} c_d!
    of them.  The tail starts at the cut ``searchsorted(0, side="right")``;
    a non-zero entry before the cut, which the word would lose, raises
    InvalidPath before any position is drawn.  Any other multiset, sorted
    or not, gives a uniform word of its own profile.
    """
    if multiset.size <= _POSITIONS_ABOVE:
        return rng.permutation(multiset)
    cut = multiset.searchsorted(0, side="right")
    if np.count_nonzero(multiset[:cut]):
        raise InvalidPath("degree multiset is not sorted: a non-zero entry precedes its zeros")
    inner = multiset[cut:]
    positions = rng.choice(multiset.size, inner.size, replace=False)
    word = np.zeros(multiset.size, multiset.dtype)
    word[positions] = inner
    return word


def excursion_degrees(multiset: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Shuffle a degree multiset and rotate the induced bridge at its first
    minimum; the result is the preorder degree word of a uniform tree.

    The multiset must be sorted and non-negative: above 10 000 entries
    only its tail after the zeros is placed, at uniformly drawn positions
    (``_shuffled``); both shuffles are exactly uniform.

    By the cycle lemma the rotated word is an excursion (partial sums of
    degree - 1 stay >= 0 and end at -1) exactly when the walk ends at -1:
    after the cut the walk stays at or above its minimum, and before the
    cut strictly above it, so at least 1 above on integers, which the
    wrap's total of -1 takes back.  So one look at the walk's last value
    replaces a second walk over the rotated word; InvalidPath is raised
    when it is not -1.
    """
    shuffled = _shuffled(multiset, rng)
    walk = shuffled - 1
    walk.cumsum(out=walk)
    if walk[-1] != -1:
        raise InvalidPath("degree word does not sum to its length - 1")
    shift = int(walk.argmin()) + 1  # argmin takes the first minimum
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
    tree = _sample_tree(np.sort(np.array(dseq.degrees, dtype=np.int64)), rng)
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


_FIRST_BLOCK, _LAST_BLOCK = 8, 256  # count vectors per block of attempts
_MAX_ATTEMPTS = 1_000_000  # count vectors drawn before AttemptsExhausted

# float decisions closer than this (plus a share of the summed log terms)
# to the threshold are redone in exact arithmetic
_LOG_SLACK = 1e-9


def sample_conditioned_gw(w: OffspringDistribution, n: int, seed) -> PlaneTree:
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

    Attempts are drawn in blocks of 8 count vectors, doubling up to 256,
    at most ``_MAX_ATTEMPTS`` in all.  The vectors of a block are tested
    one by one in row order, and the first accepted one, its split written
    in, is the multiset that is shuffled.  Feasibility of (w, n) is
    checked once per cached (w, n), by ``_leaf_pair``.
    """
    n = as_integer(n)
    if n < 1:
        raise InfeasibleSize("n must be at least 1")
    pair = _leaf_pair(w, n)
    rng = _as_generator(seed)
    attempts, block = 0, _FIRST_BLOCK
    while attempts < _MAX_ATTEMPTS:
        rows = min(block, _LAST_BLOCK, _MAX_ATTEMPTS - attempts)
        # rows of n offspring draws, each kept only as its tally
        counts = sample_offspring(w, rng, rows * n, tally=n)
        hit = pair.first_accepted(counts @ pair.others, rng.random)
        if hit is not None:
            row, size, k = hit
            return _sample_tree(pair.multiset(counts[row], size, k), rng)
        attempts += rows
        block *= 2
    raise AttemptsExhausted(
        f"no size-{n} tree accepted in {attempts} attempts",
        acceptance_rate=1.0 / attempts,
    )


@dataclass(frozen=True, eq=False)
class _LeafPair:
    """Per-(law, n) constants of the leaf-pair acceptance test.

    ``degrees`` are the degrees of the drawn count vectors and
    ``split_columns`` the columns of 0 and a among them, empty when either
    has none: then rho is 0 or 1, and a drawn vector already holds the
    only split that can be accepted.  The two columns of ``others`` hold
    1 and the degree at each degree outside {0, a} and 0 at 0 and a, so a
    vector's product with them is (m, W).  ``low`` is L, ``mode`` the mode
    of Bin(L, rho), ``log_top`` log M and ``slack`` the width of the band
    around the log threshold that is decided exactly (infinite when rho is
    0 or 1).
    """

    n: int
    a: int
    degrees: np.ndarray
    split_columns: tuple
    others: np.ndarray
    rho: Fraction
    low: int
    mode: int
    log_rho: float
    log_rest: float
    log_top: float
    slack: float

    def first_accepted(self, sums: np.ndarray, draw):
        """(row, N, c_a) of the first accepted count vector, in row order,
        given the (m, W) of each as the rows of ``sums``, or None when none
        is.  ``draw()`` gives u, one call per vector whose forced c_a is an
        integer in [0, N], in row order."""
        n, a = self.n, self.a
        for row, (m, weight) in enumerate(sums.tolist()):
            size = n - m
            k, rest = divmod(n - 1 - weight, a)
            if rest == 0 and 0 <= k <= size and self.accepts(draw(), size, k):
                return row, size, k
        return None

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

    def multiset(self, row: np.ndarray, size: int, k: int) -> np.ndarray:
        """The sorted degree multiset of the count vector ``row`` with the
        pair split as forced; the split is written into ``row``."""
        for column, count in zip(self.split_columns, (size - k, k)):
            row[column] = count
        return np.repeat(self.degrees, row)


def _binomial_pmf(n: int, k: int, rho: Fraction) -> Fraction:
    p, d = rho.numerator, rho.denominator
    return Fraction(math.comb(n, k) * p**k * (d - p) ** (n - k), d**n)


@lru_cache(maxsize=64)
def _leaf_pair(w: OffspringDistribution, n: int) -> _LeafPair:
    """The acceptance constants of (w, n), from the same float masses the
    count vectors are drawn with (exact dyadic rationals).  Without a
    positive degree of positive mass, a = 1 with mass 0, so rho = 0 and
    only n = 1 is ever accepted.

    Feasibility of (w, n) is checked first, so once per cached (w, n); an
    infeasible pair raises InfeasibleSize on every call, since the cache
    keeps no exception."""
    _check_feasible(w, n)
    degrees, masses = _mass_table(w)
    order = degrees.tolist()
    mass = dict(zip(order, masses.tolist()))
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
        split_columns=(order.index(0), order.index(a)) if leaf and pair else (),
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
    them at most, since each adds at least 1).  Bit t of ``reach`` is set
    when t is such a sum, over the n bits 0..n - 1; each degree d joins by
    the shifts d, 2d, 4d, ... up to n - 1, which reach every multiple of d
    there, and the scan stops once bit n - 1 is set.
    """
    if w.p(0) == 0:
        raise InfeasibleSize("trees need leaves: p_0 = 0")
    target = n - 1
    mask, reach = (2 << target) - 1, 1
    for d in w.support():
        shift = d
        while 0 < shift <= target and not reach >> target & 1:
            reach |= reach << shift & mask
            shift *= 2
    if not reach >> target & 1:
        raise InfeasibleSize(
            f"n - 1 = {target} is not a sum of degrees from {w.support()}"
        )
