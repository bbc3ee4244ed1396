"""Exact rational moments of fringe-subtree counts in uniform trees.

Everything here is evaluated in arbitrary-precision rational arithmetic
(``fractions.Fraction``); the only rounding is ``partial_sum_pmf``'s final
conversion for float laws.  The central
quantity is the joint factorial moment

    E[ (N_1)_{q_1} ... (N_m)_{q_m} ]

of the counts N_j of fringe subtrees equal to the pattern T_j in a uniform
random tree with prescribed degree counts.  The moment decomposes over the
number b_j of marked copies of T_j that sit inside another marked copy
("bound" copies); each term is a ratio of falling factorials of the degree
counts times a combinatorial factor counting the placements of the bound
copies.  Means, single-pattern factorial moments and product moments are
the special cases q = (1), q = (q) and q = (1, 1) of that one sum, and
``exact_covariance`` reads variances and covariances from those three.
Its terms are integer numerators over the one denominator (|n|)_t / |n|,
t = min(|n|, 1 + sum_j q_j (|T_j| - 1)), divided once.  The sum visits
only the b that can contribute: b_j is at most the number of possible
hosts of T_j, and terms that place more vertices than |n| are zero, so
every |n| >= 1 has a value.  It walks the box in rows along one axis,
where consecutive terms differ by a ratio of small integers: each term
is the previous one times a small integer, divided exactly by another.

Degree-count factorial moments of size-conditioned weighted trees need the
law of S_m, a sum of m iid child counts.  With the law scaled to integer
numerators a_i = D p_i, P(S_m = k) is the coefficient of x^k in
(sum_i a_i x^i)^m over D^m; the coefficients come from J.C.P. Miller's
recurrence for powers of a power series in integers only, so every m up to
``PARTIAL_SUM_CAP`` is reachable.  The recurrence runs only as far as the
highest coefficient requested so far for each m: a point mass P(S_m = k)
costs the prefix up to k, not the whole series.  The degree moments of
every order Q <= 4 at size n read one size-dependent series, the one for
m = n - 4; the numerator and the normalizer P(S_n = n - 1) are its dot
products with the short series for m = 4 - Q and m = 4, and the moment
is one integer ratio.  A higher order reads its own series m = n - Q.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import le, mul, sub, truediv

from .distributions import OffspringDistribution
from .errors import (
    CapExceeded,
    DuplicatePatterns,
    InfeasibleSize,
    IrrationalWeights,
    as_integer,
)
from .tree_core import DegreeStatistic, PlaneTree, count_fringe, degree_statistic

PARTIAL_SUM_CAP = 5000

# Degree moments of every order Q <= 4 at one size n read one series
# f^(n-4) against the short heads f^(4-Q) and f^4, so the mixed and
# single moments of up to the fourth order share it; a lone call grows a
# series as long as the f^(n-Q) it would otherwise read.
_SHARED_ORDER = 4

_EXTENDING = threading.Lock()


def mean_count(stat: DegreeStatistic, pattern: PlaneTree) -> Fraction:
    """E[N_T], exact."""
    return joint_factorial_moment(stat, [pattern], [1])


def factorial_moment(stat: DegreeStatistic, pattern: PlaneTree, q: int) -> Fraction:
    """E[(N_T)_q], exact; equals 1 for q = 0."""
    return joint_factorial_moment(stat, [pattern], [q])


def product_moment(
    stat: DegreeStatistic, pattern: PlaneTree, pattern2: PlaneTree
) -> Fraction:
    """E[N_T N_T'] for distinct patterns, exact."""
    return joint_factorial_moment(stat, [pattern, pattern2], [1, 1])


def exact_covariance(stat: DegreeStatistic, t1: PlaneTree, t2: PlaneTree) -> Fraction:
    """Cov(N_T, N_T') = E[N_T N_T'] - E N_T E N_T', exact; on the diagonal
    Var N_T = E(N_T)_2 + E N_T - (E N_T)^2, exact."""
    mu = mean_count(stat, t1)
    if t1 == t2:
        return factorial_moment(stat, t1, 2) + mu - mu * mu
    return product_moment(stat, t1, t2) - mu * mean_count(stat, t2)


def containment_matrix(patterns) -> list:
    """matrix[j][k] = number of proper fringe copies of pattern j inside
    pattern k (zero diagonal).  Strictly triangular when patterns are
    ordered by size."""
    patterns = list(patterns)
    if len(set(patterns)) != len(patterns):
        raise DuplicatePatterns("patterns must be pairwise distinct")
    return [
        [0 if j == k else count_fringe(pk, pj) for k, pk in enumerate(patterns)]
        for j, pj in enumerate(patterns)
    ]


def joint_factorial_moment(stat: DegreeStatistic, patterns, q) -> Fraction:
    """E[prod_j (N_{T_j})_{q_j}] as the sum over bound-count vectors b.

    Each marked copy of T_j is either free (disjoint from the other marked
    copies) or bound inside a free one; with b_j bound copies of T_j the
    expectation contributes

        |n| / (|n|)_d * prod_i (n(i))_{sum_j (q_j-b_j) n_{T_j}(i)}
          * prod_j C(q_j, b_j) (sum_k (q_k-b_k) tau_{jk})_{b_j},
        d = 1 + sum_j (q_j-b_j)(|T_j|-1),

    where tau_{jk} counts proper fringe copies of T_j in T_k.  An order
    q_j = 0 leaves the single point b_j = 0 and a factor 1.  A term
    vanishes once b_j exceeds the hosts sum_k q_k tau_{jk}, so each b_j runs
    only up to min(q_j, sum_k q_k tau_{jk}).  It also vanishes once d > |n|:
    its pulls add up to sum_j (q_j-b_j)|T_j| >= d vertices, so some
    (n(i))_p is 0.

    The sum is evaluated in integers over the terms with d <= |n|.  With
    t = min(|n|, top), top = 1 + sum_j q_j(|T_j|-1),
    |n| / (|n|)_d = (|n|-d)_{t-d} / (|n|-1)_{t-1}, so every term is an
    integer over the one denominator (|n|-1)_{t-1} = (|n|)_t / |n|, and
    one Fraction is built at the end.

    The box is walked in rows along the axis a of largest reach.  A step
    b_a -> b_a + 1 turns a term into the next by small integers only:
    (|n|-d)_{t-d} gains |T_a| - 1 rising factors, each degree's pull drops
    by n_{T_a}(i) and its falling factorial loses that many factors,
    C(q_a, b_a) (h_a)_{b_a} gains (q_a - b_a)(h_a - b_a) / (b_a + 1) (tau
    has a zero diagonal, so the hosts h_a stay fixed along the row), and
    each pattern T_j inside T_a loses tau_{ja} hosts, a factor
    (h_j - b_j)_{tau_ja} / (h_j)_{tau_ja}.  So each term is the previous
    one times one small integer, divided exactly by another.  A row's
    first term, and any term after a zero term, is evaluated directly from
    ``math.perm`` and ``math.comb``; a zero host factor ends the row.
    """
    patterns = tuple(patterns)
    q = [as_integer(x) for x in q]
    if len(patterns) != len(q):
        raise ValueError("patterns and q must have equal length")
    if any(x < 0 for x in q):
        raise ValueError("q entries must be nonnegative")
    n = stat.size
    edges, tau, profile = _pattern_constants(patterns)
    if not q:
        return Fraction(1)
    top = 1 + sum(map(mul, q, edges))
    cut = max(0, top - n)  # terms with sum_j b_j(|T_j|-1) < cut have d > |n|
    base = n - top + cut  # (|n|-d)_{t-d} = (base + k)_k with k = t - d
    reach = [min(qj, sum(map(mul, q, row))) for qj, row in zip(q, tau)]
    axis = reach.index(max(reach))
    qa, step = q[axis], edges[axis]
    inside = [(j, row[axis]) for j, row in enumerate(tau) if row[axis]]  # T_j in T_a
    counts = [stat.count(degree) for degree, _ in profile]
    drops = [(i, uses[axis]) for i, (_, uses) in enumerate(profile) if uses[axis]]
    rows = [range(r + 1) for r in reach]
    rows[axis] = (0,)
    total = 0
    for row in product(*rows):
        b = list(row)
        free = list(map(sub, q, b))
        hosts = [sum(map(mul, free, t)) for t in tau]
        pulls = [sum(map(mul, free, uses)) for _, uses in profile]
        k = sum(map(mul, b, edges)) - cut
        value, last = 0, min(qa, hosts[axis])
        for ba in range(last + 1):
            b[axis] = ba
            if not value and k >= 0 and all(map(le, pulls, counts)):
                value = math.prod(map(math.comb, q, b)) * math.prod(map(math.perm, hosts, b))
                if not value:
                    break  # some T_j has fewer hosts than bound copies from here on
                value *= math.perm(base + k, k) * math.prod(map(math.perm, counts, pulls))
            total += value
            if value and ba < last:
                up = math.perm(base + k + step, step) * (qa - ba) * (hosts[axis] - ba)
                down = ba + 1
                for i, u in drops:
                    down *= math.perm(counts[i] - pulls[i] + u, u)
                for j, t in inside:
                    up *= math.perm(hosts[j] - b[j], t)
                    down *= math.perm(hosts[j], t)
                if not up:
                    break  # every later term of the row is 0
                value = value * up // down
            k += step
            for i, u in drops:
                pulls[i] -= u
            for j, t in inside:
                hosts[j] -= t
    return Fraction(total, math.perm(n - 1, top - cut - 1))


@lru_cache(maxsize=256)
def _pattern_constants(patterns: tuple) -> tuple:
    """(edges, tau, profile) of a pattern tuple: |T_j| - 1 per pattern, the
    containment matrix, and per degree any pattern has, the pair (degree,
    n_{T_j}(degree) per pattern).  The 256 most recently used tuples are
    kept; duplicate patterns raise DuplicatePatterns on every call, since
    the cache keeps no exception."""
    tau = tuple(map(tuple, containment_matrix(patterns)))
    profiles = [degree_statistic(p).as_dict() for p in patterns]
    profile = tuple(
        (degree, tuple(counts.get(degree, 0) for counts in profiles))
        for degree in sorted(set().union(*profiles))
    )
    return tuple(p.size - 1 for p in patterns), tau, profile


def partial_sum_pmf(w: OffspringDistribution, m: int) -> dict:
    """P(S_m = k) for every k in the support of S_m, the sum of m iid draws
    from w: Fractions for exact laws, floats converted from the exact
    values for float laws.  A non-integer m raises TypeError, a negative
    one ValueError, and m above ``PARTIAL_SUM_CAP`` CapExceeded."""
    offset, scale, _, coefficients = _partial_sum(w, m, math.inf)
    convert = Fraction if w.is_exact else truediv
    return {offset + k: convert(c, scale) for k, c in enumerate(coefficients) if c}


def _partial_sum(w: OffspringDistribution, m: int, k) -> tuple:
    """_partial_sum_cached(w, m) = (offset, D^m, a, c) with c grown through
    index k - offset, or through the last one if that comes first.  m goes
    through ``as_integer`` before it keys the cache, so no float-valued
    series is ever stored."""
    m = as_integer(m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > PARTIAL_SUM_CAP:
        raise CapExceeded(f"m = {m} exceeds partial-sum cap {PARTIAL_SUM_CAP}")
    offset, scale, a, c = _partial_sum_cached(w, m)
    last = min(k - offset, m * (len(a) - 1))
    if len(c) <= last:
        # ((m+1) j - t) a_j = u_j - t a_j with u_j fixed per series
        steps = [(j, (m + 1) * j * aj, aj) for j, aj in enumerate(a) if j and aj]
        with _EXTENDING:  # entries are final once appended; readers need no lock
            for t in range(len(c), last + 1):
                acc = 0
                for j, u, aj in steps:
                    if j > t:
                        break
                    acc += (u - t * aj) * c[t - j]
                c.append(acc // (t * a[0]))
    return offset, scale, a, c


@lru_cache(maxsize=256)
def _partial_sum_cached(w: OffspringDistribution, m: int) -> tuple:
    """(offset, D^m, a, c) with P(S_m = offset + k) = c[k] / D^m.

    The law's integer form (low, D, a) comes from ``_integer_law``, built
    once per law; the coefficients c of (sum_i a_i x^i)^m then follow from
    Miller's recurrence  k a_0 c_k = sum_{j>=1} ((m+1) j - k) a_j c_{k-j},
    in which every division is exact.  c starts as the prefix [a_0^m];
    _partial_sum extends it in place up to the highest index requested so
    far, so a later request reuses it and a shorter one costs nothing.
    Exact and float laws that compare equal hash alike and give the same
    integers, so they share a cache slot.  The 256 most recently used
    (w, m) prefixes are kept, so a run over many laws holds bounded memory;
    an evicted prefix starts again from [a_0^m] and gives the same
    coefficients.
    """
    low, scale, a = _integer_law(w)
    return low * m, scale**m, a, [a[0] ** m]


def _over_common(values) -> tuple:
    """(numerators, L): values[j] = numerators[j] / L, L the least common
    denominator; the one such reader, for the integer law here and every
    integer form of asymptotics.  Each value is read by as_integer_ratio(),
    so a float is the dyadic rational it stores."""
    ratios = [v.as_integer_ratio() for v in values]
    common = math.lcm(*(d for _, d in ratios))
    return [n * (common // d) for n, d in ratios], common


@lru_cache(maxsize=256)
def _integer_law(w: OffspringDistribution) -> tuple:
    """(low, D, a): the law scaled to integers a_i = D p_{low+i} by
    _over_common, with low its least degree of positive probability, so
    that a_0 > 0.  The 256 most recently used laws are kept."""
    probs = {i: p for i, p in w.probabilities().items() if p}
    low = min(probs)
    a, scale = _over_common([probs.get(i, 0) for i in range(low, max(probs) + 1)])
    return low, scale, tuple(a)


def degree_factorial_moment(w: OffspringDistribution, n: int, q) -> Fraction:
    """Exact joint factorial moment of the per-degree vertex counts of a
    size-n tree drawn proportionally to its offspring weights:

        E[prod_i (n(i))_{q_i}]
          = (n)_Q * prod_i w_i^{q_i} * P(S_{n-Q} = n - 1 - W) / P(S_n = n - 1),
        Q = sum_i q_i,  W = sum_i i q_i.

    With f = sum_i a_i x^i the law scaled to integers, the powers of D
    cancel, so the value is the one integer ratio

        (n)_Q * prod_i a_i^{q_i} * [x^{n-1-W}] f^{n-Q}  /  [x^{n-1}] f^n.

    Both coefficients are read from one long series f^{n-B}, with
    B = min(n, max(Q, ``_SHARED_ORDER``)): the numerator is its dot product
    with the short head f^{B-Q} and the denominator its dot product with
    f^B.  The heads have at most B d + 1 coefficients for a law of span d,
    and every size shares them.  So every order Q <= 4 at a size n >= 4
    reads the same series f^{n-4}; a higher order grows its own f^{n-Q},
    and f^n is never built.  A negative n raises ValueError; n above
    ``PARTIAL_SUM_CAP`` raises CapExceeded.
    """
    if not w.is_exact:
        raise IrrationalWeights("exact mode needs finite rational weights")
    if not w.is_finite:
        raise IrrationalWeights("exact mode needs finite support")
    n = as_integer(n)
    if n < 0:
        raise ValueError(f"n = {n} must be nonnegative")
    q = {as_integer(i): as_integer(v) for i, v in dict(q).items()}
    q = {i: v for i, v in q.items() if v}
    if any(v < 0 for v in q.values()):
        raise ValueError("q entries must be nonnegative")
    if n > PARTIAL_SUM_CAP:
        raise CapExceeded(f"n = {n} exceeds partial-sum cap {PARTIAL_SUM_CAP}")
    q_total = sum(q.values())
    base = min(n, max(q_total, _SHARED_ORDER))
    low, _, a = _integer_law(w)  # the series hold g^m = f^m / x^(low m)
    top = n - 1 - low * n  # [x^{n-1}] f^n = [x^top] g^n
    tail = _partial_sum(w, n - base, top + low * (n - base))[3]
    denominator = _head_dot(w, low, base, tail, top)
    if denominator == 0:
        raise InfeasibleSize(f"no size-{n} tree has positive weight")
    value = math.perm(n, q_total)  # Q > n gives 0
    for i, v in q.items():
        value *= a[i - low] ** v if 0 <= i - low < len(a) else 0
    if value:  # so Q <= n and every i >= low, and the index is at most top
        at = top + low * q_total - sum(i * v for i, v in q.items())
        value *= _head_dot(w, low, base - q_total, tail, at)
    return Fraction(value, denominator)


def _head_dot(w: OffspringDistribution, low: int, m: int, tail: list, k: int) -> int:
    """[x^k] g^m * tail = sum_j [x^j] g^m tail[k - j], for the head g^m of
    the law's shifted series (least degree low) and a tail grown through
    index k."""
    head = _partial_sum(w, m, k + low * m)[3]
    first = max(0, k - len(tail) + 1)
    return sum(head[j] * tail[k - j] for j in range(first, min(len(head), k + 1)))
