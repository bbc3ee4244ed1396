"""Reference values used by the test suite.

The brute-force oracles avoid every moment formula: expectations are exact
averages over full enumerations, so agreement with the library is a
meaningful check.  The closed-form references are the hand-specialised
mean, factorial-moment and product-moment formulas; the library derives all
three from its bound-copy sum, so comparing the two checks the reductions at
sizes that enumeration cannot reach.  ``bound_copy_sum`` is the bound-copy
sum term by term in ``Fraction``s, each falling factorial recomputed; the
library sums the same terms as integers over one denominator.
``table_joint_factorial_moment`` is the first integer form of that sum:
it visits the whole bound-copy box and builds each term as a product of
big integers read from prefix tables of falling factorials, where the
library walks the box in rows and gets each term from the previous one
by a ratio of small integers.
``dp_feasible`` is the plain reachability table that the sampler's
residue-class feasibility test replaces.  ``rolled_excursion_degrees`` and
``offsetwise_count_occurrences`` are the first forms of the sampler's
rotation and of the harness's window counter: the rotation by ``np.roll``
checked by a second walk over the rotated word, and one fresh comparison
of the whole word per needle position.  ``compressed_shuffled`` is the
first form of the sampled-positions shuffle, which finds the non-leaves
by a mask over the whole multiset where the sampler, given the sorted
multiset, reads them as its tail after the zeros.
``two_series_degree_factorial_moment`` is the first form of the degree
moment, a product of Fractions whose normalizer P(S_n = n - 1) reads its
own series, and ``pairwise_additive_variance_forms`` the first form of the
additive variance forms, one ``fringe_covariance_density`` call per
ordered pair of toll trees.  ``law_tree_probability``,
``covariance_interaction``, ``law_row``, ``law_pair_density``,
``law_toll_rows``, ``double_loop_bilinear_density`` and
``law_variance_forms`` are the law-arithmetic form of the tree
probability, the interaction term, the covariance densities and the
variance forms: one step per degree or per tree in Fractions for an exact
law, and for a float law wrapped in ``DyadicLaw`` too, since it reads each
float weight as the dyadic rational it stores; the library sums integer
numerators over one denominator and rounds a float law's result once.
``count_fringe_unordered``,
``unordered_tree_probability`` and ``unordered_covariance_density`` are
the first forms of unordered shape counts and their limit densities,
written per shape with one plane representative; the library reads a
shape as the toll with value 1 on each of its orderings.  ``point_mass``
reads one P(S_m = k) from the library's series prefix,
``falling_factorial`` is the plain product, and ``outcome`` turns a
raised exception into its type for comparisons.
``dict_normalize_log_weights``, ``dict_tilted_pmf``, ``dict_tilted_mean``
and ``dict_solve_unit_mean`` are the first form of the tilt bisection of
``equivalent_offspring``, which builds one dict per step and takes
``math.log(s)`` once per degree, with its own dict normalizer so that it
does not read the library's; the library runs the same float operations
in the same order over parallel lists of degrees and log weights.
``RootSum``, ``normalized_interaction`` and
``root_sum_normalized_covariance_density`` are the covariance density
scaled by sqrt(pi * pi'), for every pair of trees: an accumulator class
that sums the interaction's root monomials, then adds the diagonal's 1 or
the containment terms.  Its diagonal is exact on exact weights, and the
library's ``normalized_variance`` is that diagonal as one polynomial in
the weights.

The enumeration helpers (``all_trees``, ``all_degree_statistics``) list
every plane tree and every feasible degree profile of a size;
``fringe_subtrees`` extracts the fringe subtree at each vertex, and
``count_fringe_by_extraction`` and ``fringe_distribution`` recount fringe
subtrees with it; ``additive_functional`` evaluates a toll's additive
functional on one given tree as a combination of fringe counts;
``covariance_matrix_probe`` gives the spectrum of a fringe limit
covariance matrix.  No library code needs them.
``rotation_images`` passes fixed degree words through the sampler's own
rotation, with a stand-in generator whose shuffle changes nothing, and
``sampled_position_images`` passes every ordered sample of positions
through the sampled-positions shuffle, with a stand-in ``choice``.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul, sub
from typing import NamedTuple

import numpy as np

from fringelab.asymptotics import (
    INF,
    ROOT_MAX_ITER,
    ROOT_TOLERANCE,
    CovMatrix,
    fringe_covariance_density,
    tree_probability,
)
from fringelab.distributions import OffspringDistribution
from fringelab.errors import (
    DuplicatePatterns,
    InfeasibleSize,
    InvalidPath,
    IrrationalWeights,
    NotConverged,
    as_integer,
)
from fringelab.exact_moments import _partial_sum, _pattern_constants, containment_matrix
from fringelab.sampling import _POSITIONS_ABOVE, excursion_degrees
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


def falling_factorial(x, q: int):
    """x (x-1) ... (x-q+1); equals 1 for q = 0 and vanishes for natural x
    once the product crosses zero."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    out = x**0  # 1 of the same type as x
    for j in range(q):
        out *= x - j
        if out == 0:
            return out
    return out


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


def covariance_matrix_probe(p: OffspringDistribution, patterns):
    """Spectral diagnostics of the fringe covariance matrix for distinct
    patterns with positive probability: (matrix, min eigenvalue,
    determinant).  Purely exploratory; no structural claim attached."""
    patterns = list(patterns)
    if len(set(patterns)) != len(patterns):
        raise DuplicatePatterns("patterns must be pairwise distinct")
    for t in patterns:
        if t.size <= 1:
            raise ValueError("probe needs patterns with at least 2 vertices")
        if tree_probability(p, t) == 0:
            raise ValueError(f"pattern {t.to_text()} has probability zero")
    entries = [
        [fringe_covariance_density(p, t1, t2) for t2 in patterns]
        for t1 in patterns
    ]
    matrix = CovMatrix.build(entries)
    return matrix, matrix.min_eigenvalue(), float(np.linalg.det(matrix.to_numpy()))


def random_distribution_corpus(count=100, seed=20240801, max_degree=5):
    """Seeded finite rational offspring laws with mean <= 1."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        support = {0} | {
            d for d in range(1, max_degree + 1) if rng.random() < 0.45
        }
        weights = {d: rng.randint(1, 9) for d in support}
        total = sum(weights.values())
        probs = {d: Fraction(wt, total) for d, wt in weights.items()}
        if sum(d * pr for d, pr in probs.items()) <= 1:
            corpus.append(OffspringDistribution.finite(probs))
    return corpus


def brute_mean(stat, pattern):
    """Exact average of the fringe count over every tree with this profile."""
    total = sum(
        count_fringe_by_extraction(tree, pattern) for tree in enumerate_trees(stat)
    )
    return Fraction(total, count_trees(stat))


def brute_joint_factorial(stat, patterns, q):
    """Exact average of prod_j (N_{T_j})_{q_j} over the full enumeration."""
    total = Fraction(0)
    for tree in enumerate_trees(stat):
        term = 1
        for pattern, qj in zip(patterns, q):
            term *= falling_factorial(
                count_fringe_by_extraction(tree, pattern), qj
            )
            if term == 0:
                break
        total += term
    return total / count_trees(stat)


def brute_degree_factorial(w, n, q):
    """Exact E[prod_i (n(i))_{q_i}] under the size-n weighted-tree law,
    summing over all degree profiles of size n.

    P(profile) is proportional to (number of degree arrangements) times the
    product of weights, i.e. n!/prod n(i)! * prod w_i^{n(i)}.
    """
    numer = Fraction(0)
    denom = Fraction(0)
    for stat in all_degree_statistics(n):
        arrangements = math.factorial(n)
        weight = Fraction(1)
        for degree, count in stat.items:
            arrangements //= math.factorial(count)
            weight *= Fraction(w.p(degree)) ** count
        if weight == 0:
            continue
        mass = arrangements * weight
        denom += mass
        term = mass
        for degree, qi in q.items():
            term *= falling_factorial(stat.count(degree), qi)
        numer += term
    if denom == 0:
        raise ZeroDivisionError("no feasible profile at this size")
    return numer / denom


def closed_form_mean(stat, pattern):
    """E[N_T] = |n| / (|n|)_{|T|} * prod_i (n(i))_{n_T(i)}."""
    return closed_form_factorial_moment(stat, pattern, 1)


def closed_form_factorial_moment(stat, pattern, q):
    """E[(N_T)_q] = |n| / (|n|)_{q|T|-q+1} * prod_i (n(i))_{q n_T(i)}."""
    n = stat.size
    value = Fraction(n, falling_factorial(n, q * pattern.size - q + 1))
    for degree, count in degree_statistic(pattern).items:
        value *= falling_factorial(stat.count(degree), q * count)
    return value


def closed_form_product_moment(stat, pattern, pattern2):
    """E[N_T N_T'] for distinct patterns: the two cross-containment terms
    plus the disjoint-pair term."""
    n = stat.size
    value = count_fringe(pattern2, pattern) * closed_form_mean(stat, pattern2)
    value += count_fringe(pattern, pattern2) * closed_form_mean(stat, pattern)
    disjoint = Fraction(n, falling_factorial(n, pattern.size + pattern2.size - 1))
    prof, prof2 = degree_statistic(pattern).as_dict(), degree_statistic(pattern2).as_dict()
    for degree in set(prof) | set(prof2):
        disjoint *= falling_factorial(
            stat.count(degree), prof.get(degree, 0) + prof2.get(degree, 0)
        )
    return value + disjoint


def bound_copy_term(stat, patterns, profiles, q, b, tau):
    """The bound-copy term of the vector b as one Fraction,
    |n| / (|n|)_d * prod_i (n(i))_{pulls_i}
      * prod_j (q_j)_{b_j} (hosts_j)_{b_j} / b_j!."""
    m = len(patterns)
    free = [q[j] - b[j] for j in range(m)]
    placements = Fraction(1)
    for j in range(m):
        if b[j] == 0:
            continue
        hosts = sum(free[k] * tau[j][k] for k in range(m))
        placements *= Fraction(
            falling_factorial(q[j], b[j]) * falling_factorial(hosts, b[j]),
            math.factorial(b[j]),
        )
        if placements == 0:
            return Fraction(0)
    value = placements
    for degree in set().union(*profiles):
        pulls = sum(free[j] * profiles[j].get(degree, 0) for j in range(m))
        value *= falling_factorial(stat.count(degree), pulls)
        if value == 0:
            return Fraction(0)
    # nonzero pulls fit in the tree, so depth <= |n| and (|n|)_depth > 0
    n = stat.size
    depth = 1 + sum(free[j] * (patterns[j].size - 1) for j in range(m))
    return value * Fraction(n, falling_factorial(n, depth))


def bound_copy_sum(stat, patterns, q):
    """E[prod_j (N_{T_j})_{q_j}] summed term by term over the b-box."""
    profiles = [degree_statistic(p).as_dict() for p in patterns]
    tau = containment_matrix(patterns)
    box = itertools.product(*(range(qj + 1) for qj in q))
    return sum(
        (bound_copy_term(stat, patterns, profiles, q, b, tau) for b in box),
        Fraction(0),
    )


def table_joint_factorial_moment(stat, patterns, q) -> Fraction:
    """E[prod_j (N_{T_j})_{q_j}] as integer numerators over (|n|-1)_{t-1},
    each term read from a table of the trailing factors of (|n|)_t and from
    a prefix table of falling factorials per degree."""
    patterns = tuple(patterns)
    q = [as_integer(x) for x in q]
    if len(patterns) != len(q):
        raise ValueError("patterns and q must have equal length")
    if any(x < 0 for x in q):
        raise ValueError("q entries must be nonnegative")
    n = stat.size
    edges, tau, profile = _pattern_constants(patterns)
    top = 1 + sum(map(mul, q, edges))
    cut = max(0, top - n)  # terms with sum_j b_j(|T_j|-1) < cut have d > |n|
    reach = [min(qj, sum(map(mul, q, row))) for qj, row in zip(q, tau)]
    trailing = list(itertools.accumulate(range(n - top + cut + 1, n), mul, initial=1))
    pulls = []
    for degree, uses in profile:
        count = stat.count(degree)
        steps = range(count, count - sum(map(mul, q, uses)), -1)
        pulls.append((uses, list(itertools.accumulate(steps, mul, initial=1))))
    total = 0
    for b in itertools.product(*(range(r + 1) for r in reach)):
        bound = sum(map(mul, b, edges))
        if bound < cut:
            continue
        free = list(map(sub, q, b))
        value = 1
        for j, bj in enumerate(b):
            if bj:
                hosts = sum(map(mul, free, tau[j]))
                value *= math.comb(q[j], bj) * math.perm(hosts, bj)
        if value:
            value *= trailing[bound - cut]
            for uses, falling in pulls:
                value *= falling[sum(map(mul, free, uses))]
            total += value
    return Fraction(total, trailing[-1])


def dp_feasible(w, n):
    """Whether some size-n degree draw from w sums to n - 1, by a
    coin-style reachability table over the sums 0..n - 1 of positive
    degrees (O(n * |support|))."""
    if w.p(0) == 0:
        return False
    coins = [d for d in w.support() if d >= 1]
    reachable = [True] + [False] * (n - 1)
    for value in range(1, n):
        reachable[value] = any(c <= value and reachable[value - c] for c in coins)
    return reachable[n - 1]


def compressed_shuffled(multiset, rng):
    """The sampler's shuffle with the non-zero entries masked out of the
    whole multiset: numpy's permutation up to ``_POSITIONS_ABOVE``
    entries, and above it the non-zero entries, in their given order,
    written at the positions of ``rng.choice(n, k, replace=False)``."""
    if multiset.size <= _POSITIONS_ABOVE:
        return rng.permutation(multiset)
    inner = multiset[multiset != 0]
    positions = rng.choice(multiset.size, inner.size, replace=False)
    word = np.zeros(multiset.size, multiset.dtype)
    word[positions] = inner
    return word


def rolled_excursion_degrees(multiset, rng):
    """Shuffle with ``compressed_shuffled`` (numpy's permutation up to
    10 000 entries), rotate the bridge at its first minimum with
    ``np.roll`` and walk the rotated word again to check that it is an
    excursion."""
    shuffled = compressed_shuffled(multiset, rng)
    walk = np.cumsum(shuffled - 1)
    shift = int(np.argmin(walk)) + 1  # argmin takes the first minimum
    rotated = np.roll(shuffled, -shift)
    excursion = np.cumsum(rotated - 1)
    if excursion[-1] != -1 or (excursion[:-1] < 0).any():
        raise InvalidPath("rotated degree word is not an excursion")
    return rotated


def offsetwise_count_occurrences(hay, needle):
    """Occurrences of needle as a contiguous block of hay, comparing hay
    against each needle entry afresh."""
    n, m = hay.size, needle.size
    if m > n:
        return 0
    window = n - m + 1
    match = hay[:window] == needle[0]
    for j in range(1, m):
        match &= hay[j : window + j] == needle[j]
    return int(match.sum())


class UnshuffledRng:
    """Stand-in generator: ``permutation`` returns its input unchanged, so
    ``excursion_degrees`` rotates exactly the word it is given."""

    def permutation(self, word):
        return word


def rotate_word(word) -> tuple:
    """The sampler's rotation of one fixed degree word."""
    multiset = np.array(word, dtype=np.int64)
    return tuple(excursion_degrees(multiset, UnshuffledRng()).tolist())


def rotation_images(stat) -> Counter:
    """Rotated word -> number of distinct arrangements of the profile's
    degree multiset that the sampler's rotation sends to it."""
    arrangements = set(itertools.permutations(stat.degree_multiset()))
    return Counter(rotate_word(word) for word in arrangements)


class OrderedSampleRng:
    """Stand-in generator: its ``choice(n, k, replace=False)`` calls return
    the ordered k-samples of range(n), each once, in
    ``itertools.permutations`` order.  It has no ``permutation``, so only
    the sampled-positions shuffle can run on it."""

    def __init__(self, n: int, k: int):
        self._samples = itertools.permutations(range(n), k)

    def choice(self, n, k, replace=True):
        if replace:
            raise ValueError("the stand-in draws without replacement only")
        return np.array(next(self._samples), dtype=np.int64)


def sampled_position_images(stat, shuffle) -> Counter:
    """Word -> number of ordered k-samples of positions (k the profile's
    non-leaves) that ``shuffle(multiset, rng)`` sends to it, over all of
    them, with ``OrderedSampleRng`` as the rng."""
    multiset = stat.degree_multiset()
    n, k = multiset.size, int(np.count_nonzero(multiset))
    rng = OrderedSampleRng(n, k)
    return Counter(tuple(shuffle(multiset, rng).tolist()) for _ in range(math.perm(n, k)))


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


def point_mass(w, m: int, k: int) -> Fraction:
    """P(S_m = k) as one Fraction, from the series prefix through k."""
    offset, scale, _, coefficients = _partial_sum(w, m, k)
    inside = 0 <= k - offset < len(coefficients)
    return Fraction(coefficients[k - offset] if inside else 0, scale)


def two_series_degree_factorial_moment(w, n, q) -> Fraction:
    """E[prod_i (n(i))_{q_i}] as a product of Fractions, reading P(S_n = n - 1)
    from its own series:

        (n)_{sum q} * prod_i w_i^{q_i}
          * P(S_{n - sum q} = n - 1 - sum_i i q_i) / P(S_n = n - 1).
    """
    if not w.is_exact:
        raise IrrationalWeights("exact mode needs finite rational weights")
    if not w.is_finite:
        raise IrrationalWeights("exact mode needs finite support")
    q = {int(i): int(v) for i, v in dict(q).items() if v}
    if any(v < 0 for v in q.values()):
        raise ValueError("q entries must be nonnegative")
    denominator = point_mass(w, n, n - 1)
    if denominator == 0:
        raise InfeasibleSize(f"no size-{n} tree has positive weight")
    q_total = sum(q.values())
    weighted = sum(i * v for i, v in q.items())
    if q_total > n or n - 1 - weighted < 0:
        return Fraction(0)
    value = Fraction(falling_factorial(n, q_total))
    for i, v in q.items():
        value *= w.p(i) ** v
        if value == 0:
            return Fraction(0)
    numerator = point_mass(w, n - q_total, n - 1 - weighted)
    return value * numerator / denominator


def additive_functional(tree: PlaneTree, toll):
    """F(T) = sum over vertices v of f(fringe subtree at v), evaluated as a
    finite linear combination of fringe counts."""
    return sum(value * count_fringe(tree, pattern) for pattern, value in toll.items)


def pairwise_additive_variance_forms(p, toll):
    """Both closed forms of the additive variance density, the quadratic
    form by one fringe_covariance_density call per ordered pair of toll
    trees."""
    items = toll.items
    e_ff = Fraction(0)
    e_f2 = Fraction(0)
    e_f_size = Fraction(0)
    e_f_deg = {}
    for tree, value in items:
        pi = tree_probability(p, tree)
        if pi == 0:
            continue
        e_ff += value * additive_functional(tree, toll) * pi
        e_f2 += value * value * pi
        e_f_size += value * (tree.size - 1) * pi
        for degree, count in degree_statistic(tree).items:
            e_f_deg[degree] = e_f_deg.get(degree, Fraction(0)) + value * count * pi
    direct = 2 * e_ff - e_f2 + e_f_size * e_f_size
    for degree, moment in e_f_deg.items():
        weight = p.p(degree)
        if weight > 0:
            direct -= moment * moment / weight
    quadratic = Fraction(0)
    for t1, v1 in items:
        for t2, v2 in items:
            quadratic += v1 * v2 * fringe_covariance_density(p, t1, t2)
    return direct, quadratic


class DyadicLaw(NamedTuple):
    """A law whose p(i) is Fraction(law.p(i)): a float weight read as the
    exact dyadic rational it stores, so the law-arithmetic oracles below run
    in Fractions on the same input the library reads."""

    law: OffspringDistribution

    def p(self, i):
        return Fraction(self.law.p(i))


def law_tree_probability(p, tree: PlaneTree):
    """prod over appearing degrees of p_i ** n_T(i), one step per degree
    in the law's arithmetic."""
    value = Fraction(1)
    for degree, count in degree_statistic(tree).items:
        value = value * p.p(degree) ** count
        if value == 0:
            return value
    return value


def covariance_interaction(p, t1: PlaneTree, t2: PlaneTree):
    """(|T|-1)(|T'|-1) - sum_i n_T(i) n_T'(i) / p_i  with 0/0 := 0, in the
    law's arithmetic.

    Returns -inf when a shared degree has zero probability.
    """
    prof1, prof2 = degree_statistic(t1).as_dict(), degree_statistic(t2).as_dict()
    value = (t1.size - 1) * (t2.size - 1)
    for degree in sorted(prof1.keys() & prof2.keys()):
        weight = p.p(degree)
        if weight == 0:
            return -INF
        value = value - prof1[degree] * prof2[degree] / weight
    return value


class LawRow(NamedTuple):
    """What the law-arithmetic covariance density reads of one tree besides
    the law."""

    tree: PlaneTree
    pi: object  # law_tree_probability
    profile: dict  # degree -> count


def law_row(p, tree: PlaneTree) -> LawRow:
    return LawRow(tree, law_tree_probability(p, tree), degree_statistic(tree).as_dict())


def law_pair_density(p, row1: LawRow, row2: LawRow, inner1: int, inner2: int):
    """fringe_covariance_density of two rows.  Diagonal (same tree):
    pi + eta * pi^2.  Off-diagonal: the two cross-containment terms
    inner1 * pi + inner2 * pi', where inner1 counts copies of the second
    tree inside the first and inner2 the reverse (unread on the diagonal),
    plus eta * (pi * pi') with eta = covariance_interaction.  Always
    finite (inf * 0 := 0)."""
    (t1, pi1, _), (t2, pi2, _) = row1, row2
    eta = covariance_interaction(p, t1, t2)
    if t1 == t2:
        return pi1 if pi1 == 0 else pi1 + eta * pi1 * pi1
    cross = inner1 * pi1 + inner2 * pi2
    if pi1 == 0 or pi2 == 0:
        return cross
    return cross + eta * (pi1 * pi2)


def law_toll_rows(p, trees):
    """One row per tree, and inside[j][k] = fringe copies of tree k in
    tree j."""
    rows = [law_row(p, tree) for tree in trees]
    _, tau, _ = _pattern_constants(tuple(trees))
    inside = [
        [1 if j == k else hosts[k] for k in range(len(rows))] for j, hosts in enumerate(zip(*tau))
    ]
    return rows, inside


def double_loop_bilinear_density(p, rows, inside, left, right):
    """sum over j, k of left[j] * right[k] * the covariance density of rows
    j and k, one density per ordered pair, summed in row-major order."""
    total = Fraction(0)
    for j, (row1, v1) in enumerate(zip(rows, left)):
        for k, (row2, v2) in enumerate(zip(rows, right)):
            total += v1 * v2 * law_pair_density(p, row1, row2, inside[j][k], inside[k][j])
    return total


def law_variance_forms(p, trees, values):
    """Both forms of additive_variance_forms in the law's arithmetic, from
    one row per toll tree and the fringe count of each ordered pair of toll
    trees."""
    rows, inside = law_toll_rows(p, trees)
    e_ff = Fraction(0)
    e_f2 = Fraction(0)
    e_f_size = Fraction(0)
    e_f_deg = {}
    for row, value, counts in zip(rows, values, inside):
        pi = row.pi
        if pi == 0:
            continue
        e_ff += value * sum(v * c for v, c in zip(values, counts)) * pi
        e_f2 += value * value * pi
        e_f_size += value * (row.tree.size - 1) * pi
        for degree, count in row.profile.items():
            e_f_deg[degree] = e_f_deg.get(degree, Fraction(0)) + value * count * pi
    direct = 2 * e_ff - e_f2 + e_f_size * e_f_size
    for degree, moment in e_f_deg.items():
        weight = p.p(degree)
        if weight > 0:
            direct -= moment * moment / weight
    quadratic = double_loop_bilinear_density(p, rows, inside, values, values)
    return direct, quadratic


def _as_plane_representative(tree_or_key) -> PlaneTree:
    if isinstance(tree_or_key, PlaneTree):
        return tree_or_key
    if isinstance(tree_or_key, UnorderedKey):
        return min(enumerate_orderings(tree_or_key), key=lambda t: t.degrees)
    raise TypeError(f"expected PlaneTree or UnorderedKey, got {tree_or_key!r}")


def count_fringe_unordered(tree: PlaneTree, pattern) -> int:
    """Fringe subtrees of ``tree`` isomorphic to ``pattern`` as unordered
    rooted trees."""
    rep = _as_plane_representative(pattern)
    key = canonical_unordered(rep)
    return sum(1 for sub in fringe_subtrees(tree) if canonical_unordered(sub) == key)


def unordered_tree_probability(p, tree_or_key):
    """Probability that the unordered shape of the branching tree equals the
    given unordered tree: |Ord(T)| times the plane-tree probability."""
    rep = _as_plane_representative(tree_or_key)
    orderings = enumerate_orderings(canonical_unordered(rep))
    return len(orderings) * law_tree_probability(p, rep)


def unordered_covariance_density(p, t1, t2):
    """Covariance density for counts of unordered fringe shapes: the plane
    formula with unordered probabilities and unordered containment counts
    (0/0 and inf * 0 read as 0, as in the library)."""
    r1, r2 = _as_plane_representative(t1), _as_plane_representative(t2)
    pi1, pi2 = unordered_tree_probability(p, r1), unordered_tree_probability(p, r2)
    eta = covariance_interaction(p, r1, r2)
    if canonical_unordered(r1) == canonical_unordered(r2):
        return pi1 if pi1 == 0 else pi1 + eta * pi1 * pi1
    cross = count_fringe_unordered(r1, r2) * pi1 + count_fringe_unordered(r2, r1) * pi2
    if pi1 == 0 or pi2 == 0:
        return cross
    return cross + eta * pi1 * pi2


class RootSum:
    """Accumulates terms c * prod_j p_j^(e_j/2); stays exact while every
    half-power cancels, otherwise degrades to float."""

    def __init__(self):
        self.exact_total = Fraction(0)
        self.float_total = 0.0
        self.exact = True

    def add(self, coefficient, factors):
        """factors: iterable of (probability, doubled_exponent)."""
        if coefficient == 0:
            return
        rational = Fraction(coefficient)
        radicand = Fraction(1)
        is_float = False
        float_part = 1.0
        for prob, twice_e in factors:
            if twice_e == 0:
                continue
            if prob == 0:
                if twice_e > 0:
                    return  # whole term vanishes
                raise ZeroDivisionError("negative power of a zero probability")
            if isinstance(prob, Fraction) and not is_float:
                half, rem = divmod(twice_e, 2)
                rational *= prob**half
                if rem:
                    radicand *= prob
            else:
                is_float = True
                float_part *= float(prob) ** (twice_e / 2)
        if not is_float and radicand == 1:
            self.exact_total += rational
            self.float_total += float(rational)
            return
        self.exact = False
        self.float_total += float(rational) * math.sqrt(float(radicand)) * float_part

    def value(self):
        return self.exact_total if self.exact else self.float_total


def normalized_interaction(p, t1, t2):
    """The interaction term scaled by sqrt(pi * pi'), extended by continuity
    to vanishing probabilities; a polynomial in the sqrt(p_i), hence always
    finite."""
    prof1 = degree_statistic(t1).as_dict()
    prof2 = degree_statistic(t2).as_dict()
    degrees = sorted(set(prof1) | set(prof2))
    acc = RootSum()
    acc.add(
        (t1.size - 1) * (t2.size - 1),
        [(p.p(j), prof1.get(j, 0) + prof2.get(j, 0)) for j in degrees],
    )
    for i in degrees:
        ni = prof1.get(i, 0) * prof2.get(i, 0)
        if ni == 0:
            continue
        acc.add(
            -ni,
            [
                (p.p(j), prof1.get(j, 0) + prof2.get(j, 0) - 2 * (i == j))
                for j in degrees
            ],
        )
    return acc.value()


def root_sum_normalized_covariance_density(p, t1, t2):
    """The covariance density scaled by sqrt(pi * pi'), accumulated in a
    RootSum: on the diagonal 1 + the normalized interaction, off it the
    two containment terms plus the normalized interaction."""
    if t1 == t2:
        return 1 + normalized_interaction(p, t1, t1)
    prof1 = degree_statistic(t1).as_dict()
    prof2 = degree_statistic(t2).as_dict()
    acc = RootSum()
    n21 = count_fringe(t1, t2)  # copies of t2 inside t1
    if n21:
        acc.add(
            n21,
            [(p.p(j), prof1.get(j, 0) - prof2.get(j, 0)) for j in sorted(prof1)],
        )
    n12 = count_fringe(t2, t1)
    if n12:
        acc.add(
            n12,
            [(p.p(j), prof2.get(j, 0) - prof1.get(j, 0)) for j in sorted(prof2)],
        )
    eta = normalized_interaction(p, t1, t2)
    value = acc.value()
    if isinstance(value, Fraction) and isinstance(eta, Fraction):
        return value + eta
    return float(value) + float(eta)


def dict_normalize_log_weights(logs: dict) -> dict:
    """exp(logs[i]) rescaled to sum 1, taken relative to the largest log so
    that no weight overflows; a log of -inf gets probability 0."""
    top = max(logs.values())
    raw = {i: math.exp(x - top) for i, x in logs.items()}
    total = sum(raw.values())
    return {i: v / total for i, v in raw.items()}


def dict_tilted_pmf(log_weights: dict, s: float) -> dict:
    return dict_normalize_log_weights(
        {i: lw + i * math.log(s) if s > 0 else (lw if i == 0 else -INF)
         for i, lw in log_weights.items()}
    )


def dict_tilted_mean(log_weights: dict, s: float) -> float:
    pmf = dict_tilted_pmf(log_weights, s)
    return sum(i * v for i, v in pmf.items())


def dict_solve_unit_mean(log_weights: dict, rho) -> float:
    """Bisection for the tilt s with tilted mean 1, one dict per step."""
    if math.isinf(rho):
        hi = 1.0
        for _ in range(ROOT_MAX_ITER):
            if dict_tilted_mean(log_weights, hi) >= 1:
                break
            hi *= 2
        else:
            raise NotConverged("no bracket for the tilting parameter")
    else:
        rho = float(rho)
        hi = rho
        probe = rho * (1 - 2.0**-50)
        if dict_tilted_mean(log_weights, probe) < 1:
            return rho
    lo = 0.0
    for _ in range(ROOT_MAX_ITER):
        mid = (lo + hi) / 2
        if dict_tilted_mean(log_weights, mid) >= 1:
            hi = mid
        else:
            lo = mid
        if hi - lo <= ROOT_TOLERANCE * max(hi, 1e-300):
            return (lo + hi) / 2
    raise NotConverged(f"tilt bisection stalled at [{lo}, {hi}]")
