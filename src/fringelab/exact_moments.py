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
the special cases q = (1), q = (q) and q = (1, 1) of that one sum.  Its
terms are integer numerators over the one denominator (|n|)_t / |n|,
t = min(|n|, 1 + sum_j q_j (|T_j| - 1)), read from prefix and suffix tables
of falling factorials and divided once.  The sum visits only the b that can
contribute: b_j is at most the number of possible hosts of T_j, and terms
that place more vertices than |n| are skipped, so every |n| >= 1 has a
value.

Degree-count factorial moments of size-conditioned weighted trees need the
law of S_m, a sum of m iid child counts.  With the law scaled to integer
numerators a_i = D p_i, P(S_m = k) is the coefficient of x^k in
(sum_i a_i x^i)^m over D^m; the coefficients come from J.C.P. Miller's
recurrence for powers of a power series in integers only, so every m up to
``PARTIAL_SUM_CAP`` is reachable.  The recurrence runs only as far as the
highest coefficient requested so far for each m: a point mass P(S_m = k)
costs the prefix up to k, not the whole series.  A degree moment of order
Q at size n grows one size-dependent series, the one for m = n - Q; the
normalizer P(S_n = n - 1) is its dot product with the short series for
m = Q, and the moment is one integer ratio.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from operator import mul, sub, truediv
from typing import NamedTuple

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
    integer over the one denominator (|n|-1)_{t-1} = (|n|)_t / |n|.  The
    numerators read (|n|-d)_{t-d} from a table of the trailing factors of
    (|n|)_t, indexed by t - d = sum_j b_j(|T_j|-1) - (top - t), and each
    (n(i))_p from a prefix table of falling factorials; one Fraction is
    built at the end.
    """
    patterns = list(patterns)
    q = [as_integer(x) for x in q]
    if len(patterns) != len(q):
        raise ValueError("patterns and q must have equal length")
    if any(x < 0 for x in q):
        raise ValueError("q entries must be nonnegative")
    n = stat.size
    edges = [p.size - 1 for p in patterns]
    top = 1 + sum(map(mul, q, edges))
    cut = max(0, top - n)  # terms with sum_j b_j(|T_j|-1) < cut have d > |n|
    tau = containment_matrix(patterns)
    reach = [min(qj, sum(map(mul, q, row))) for qj, row in zip(q, tau)]
    profiles = [degree_statistic(p).as_dict() for p in patterns]
    trailing = list(accumulate(range(n - top + cut + 1, n), mul, initial=1))
    pulls = []
    for degree in set().union(*profiles):
        uses = [profile.get(degree, 0) for profile in profiles]
        count = stat.count(degree)
        steps = range(count, count - sum(map(mul, q, uses)), -1)
        pulls.append((uses, list(accumulate(steps, mul, initial=1))))
    total = 0
    for b in product(*(range(r + 1) for r in reach)):
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


class PartialSumDistribution(NamedTuple):
    """Distribution of a sum of iid child counts; ``exact`` reports whether
    the values are Fractions (rational weights) or floats (fallback)."""

    pmf: dict
    exact: bool


def partial_sum_pmf(
    w: OffspringDistribution, m: int, cap: int = PARTIAL_SUM_CAP
) -> PartialSumDistribution:
    """Distribution of S_m, the sum of m iid draws from w, over its
    support; floats only for float laws, converted from the exact values."""
    offset, scale, _, coefficients = _partial_sum(w, m, cap, math.inf)
    convert = Fraction if w.is_exact else truediv
    pmf = {offset + k: convert(c, scale) for k, c in enumerate(coefficients) if c}
    return PartialSumDistribution(pmf, w.is_exact)


def _partial_sum(w: OffspringDistribution, m: int, cap: int, k) -> tuple:
    """_partial_sum_cached(w, m) = (offset, D^m, a, c) with c grown through
    index k - offset, or through the last one if that comes first."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > cap:
        raise CapExceeded(f"m = {m} exceeds partial-sum cap {cap}")
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

    The law is scaled to integers a_i = D p_i and shifted so that a_0 > 0;
    the coefficients c of (sum_i a_i x^i)^m then follow from Miller's
    recurrence  k a_0 c_k = sum_{j>=1} ((m+1) j - k) a_j c_{k-j},  in which
    every division is exact.  c starts as the prefix [a_0^m]; _partial_sum
    extends it in place up to the highest index requested so far, so a
    later request reuses it and a shorter one costs nothing.  Exact and
    float laws that compare equal give the same integers, so they may share
    a cache slot.  The 256 most recently used (w, m) prefixes are kept, so a
    run over many laws holds bounded memory; an evicted prefix starts again
    from [a_0^m] and gives the same coefficients.
    """
    probs = [(i, Fraction(p)) for i, p in sorted(w.probabilities().items()) if p]
    scale = math.lcm(*(p.denominator for _, p in probs))
    low = probs[0][0]
    a = [0] * (probs[-1][0] - low + 1)
    for i, p in probs:
        a[i - low] = p.numerator * (scale // p.denominator)
    return low * m, scale**m, a, [a[0] ** m]


def degree_factorial_moment(
    w: OffspringDistribution, n: int, q, cap: int = PARTIAL_SUM_CAP
) -> Fraction:
    """Exact joint factorial moment of the per-degree vertex counts of a
    size-n tree drawn proportionally to its offspring weights:

        E[prod_i (n(i))_{q_i}]
          = (n)_Q * prod_i w_i^{q_i} * P(S_{n-Q} = n - 1 - W) / P(S_n = n - 1),
        Q = sum_i q_i,  W = sum_i i q_i.

    With f = sum_i a_i x^i the law scaled to integers, the powers of D
    cancel, so the value is the one integer ratio

        (n)_Q * prod_i a_i^{q_i} * [x^{n-1-W}] f^{n-Q}  /  [x^{n-1}] f^n.

    The denominator is the dot product sum_j [x^j] f^Q [x^{n-1-j}] f^{n-Q}
    of the short series for m = Q, which every call with the same Q shares,
    and the one series for m = n - Q that the numerator also reads; f^n is
    never built.  n above ``cap`` raises CapExceeded.
    """
    if not w.is_exact:
        raise IrrationalWeights("exact mode needs finite rational weights")
    if not w.is_finite:
        raise IrrationalWeights("exact mode needs finite support")
    q = {as_integer(i): as_integer(v) for i, v in dict(q).items()}
    q = {i: v for i, v in q.items() if v}
    if any(v < 0 for v in q.values()):
        raise ValueError("q entries must be nonnegative")
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds partial-sum cap {cap}")
    q_total = sum(q.values())
    split = min(q_total, n)  # Q > n splits f^n as f^n * f^0; the value is 0
    low = w.support()[0]  # the series hold g^m = f^m / x^(low m)
    top = n - 1 - low * n  # [x^{n-1}] f^n = [x^top] g^n
    _, _, a, head = _partial_sum(w, split, cap, top + low * split)
    _, _, _, tail = _partial_sum(w, n - split, cap, top + low * (n - split))
    first = max(0, top - len(tail) + 1)
    last = min(len(head), top + 1)
    denominator = sum(head[j] * tail[top - j] for j in range(first, last))
    if denominator == 0:
        raise InfeasibleSize(f"no size-{n} tree has positive weight")
    at = top + low * q_total - sum(i * v for i, v in q.items())
    value = math.perm(n, q_total) * tail[at] if 0 <= at < len(tail) else 0
    for i, v in q.items():
        value *= a[i - low] ** v if 0 <= i - low < len(a) else 0
    return Fraction(value, denominator)
