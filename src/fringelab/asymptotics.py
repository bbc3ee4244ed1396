"""Limit-law quantities for fringe counts in trees with given degrees.

Conventions used throughout (hard-coded at the formula sites):

* 0/0 := 0 inside the interaction sum, so degrees absent from either tree
  contribute nothing;
* the interaction term is -inf when the two trees share a degree of
  probability zero, and then inf * 0 := 0 wherever it multiplies a
  vanishing tree probability;
* 1/inf := 0 when vs^2 = inf in the simply generated covariances.

Every limit scalar of an offspring law (tree probability, normalized
variance, mean and covariance densities, variance forms) is evaluated in
integers under every law: each weight and toll value is read exactly by
as_integer_ratio() (a float is the dyadic rational it stores), and with
the weights scaled to a_i = D p_i every tree probability is an integer
over a power of D, so each scalar is one integer numerator over a power
of D and the toll denominators.  That one Fraction is the result under an
exact law with int or Fraction tolls, and is rounded once by float()
otherwise.

Pattern counts, unordered shape counts and additive functionals are all
linear statistics sum_T f(T) N_T, given by a TollFunction (``indicator``,
``orderings`` or any finite toll); their limit densities are
additive_mean_density and the bilinear additive_covariance_density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import repeat
from operator import add, mul, ne
from typing import NamedTuple

import numpy as np

from .distributions import OffspringDistribution, WeightSequence, normalize_log_weights
from .errors import NotConverged, as_integer
from .exact_moments import _over_common, _pattern_constants
from .tree_core import (
    DegreeStatistic,
    PlaneTree,
    UnorderedKey,
    canonical_unordered,
    degree_statistic,
    enumerate_orderings,
)

INF = math.inf

# bisection tolerance well below the 1e-12 contract: downstream quantities
# (the tilted variance in particular) amplify tau error by O(10)
ROOT_TOLERANCE = 1e-15
ROOT_MAX_ITER = 200


# ---------------------------------------------------------------------------
# Scalar limit quantities


def tree_probability(p: OffspringDistribution, tree: PlaneTree):
    """pi_T, the probability that an unconditioned branching tree with
    offspring law p equals ``tree``: prod over appearing degrees of
    p_i ** n_T(i).  It is the mean density of the indicator toll of T (see
    additive_mean_density)."""
    return additive_mean_density(p, TollFunction.indicator(tree))


def fringe_covariance_density(p: OffspringDistribution, t1: PlaneTree, t2: PlaneTree):
    """Asymptotic covariance per vertex of the two fringe counts: the
    bilinear density of the two indicator tolls (see
    additive_covariance_density)."""
    return additive_covariance_density(p, TollFunction.indicator(t1), TollFunction.indicator(t2))


def normalized_variance(p: OffspringDistribution, tree: PlaneTree):
    """Variance density over tree probability, gamma_TT / pi_T, extended by
    continuity to pi_T = 0: the polynomial 1 + (|T|-1)^2 pi_T - sum_i
    n_T(i)^2 prod_j p_j^{n_T(j) - [i = j]} in the weights.  With a_i = D p_i
    as in _IntegerTrees it is one integer over D^{|T|}, rounded as
    _exact_or_float says.  Each product is taken from the weights, since
    it stays nonzero where a_i = 0 and n_T(i) = 1 although pi_T = 0: under
    {0: 1} the cherry gives exactly 1 - 1 = 0."""
    degrees, counts = zip(*degree_statistic(tree).items)
    a, scale = _over_common([p.p(degree) for degree in degrees])
    lowered = sum(
        n * n * math.prod(map(pow, a, [c - (j == i) for j, c in enumerate(counts)]))
        for i, n in enumerate(counts)
    )
    power = scale**tree.size
    numerator = power + (tree.size - 1) ** 2 * math.prod(map(pow, a, counts)) - scale * lowered
    return _exact_or_float(p, (), Fraction(numerator, power))


def classify_exceptional(tree: PlaneTree, p: OffspringDistribution) -> str:
    """The cases in which the normalized diagonal covariance degenerates:
    a single vertex; a path when degree 1 is almost sure; a star (root with
    d leaf children) when degree 0 is almost sure.  Everything else is
    'none' and has strictly positive normalized variance."""
    if tree.size == 1:
        return "single_vertex"
    prof = degree_statistic(tree)
    if set(prof.as_dict()) <= {0, 1} and p.p(1) == 1:
        return "path_p1"
    d = tree.size - 1
    if prof.count(0) == d and prof.count(d) == 1 and p.p(0) == 1:
        return "star_p0"
    return "none"


def plugin_mean(stat: DegreeStatistic, tree: PlaneTree) -> Fraction:
    """|n| * prod_i (n(i)/|n|)^{n_T(i)}, the tree probability under the
    profile's empirical law p_n: the plug-in approximation of the expected
    fringe count, exact in rational arithmetic.  Since sum_i n_T(i) = |T|,
    it is prod_i n(i)^{n_T(i)} / |n|^{|T|-1}, one integer fraction."""
    numerator = math.prod(stat.count(d) ** c for d, c in degree_statistic(tree).items)
    return Fraction(numerator, stat.size ** (tree.size - 1))


# ---------------------------------------------------------------------------
# Simply generated / weighted trees


@dataclass(frozen=True)
class EquivalentOffspring:
    """Tilted offspring view of a weight sequence: theta_i = w_i tau^i /
    Phi(tau), the unique equivalent probability law with mean min(1, nu),
    and its variance sigma2.  varsigma2 is the vs^2 of the simply generated
    covariances: sigma2 in the critical case nu >= 1 (inf for a heavy tail
    at the radius) and inf when nu < 1."""

    tau: object
    theta: OffspringDistribution
    nu: object
    sigma2: object
    varsigma2: object


def _tilted_pmf(degrees: list, logs: list, s: float) -> list:
    """normalize_log_weights of logs[j] + degrees[j] log s, the law
    proportional to exp(logs[j]) s^degrees[j], for a tilt s > 0: the
    bisection and the radius give no other."""
    return normalize_log_weights(list(map(add, logs, map(mul, degrees, repeat(math.log(s))))))


def _tilted_mean(degrees: list, logs: list, s: float) -> float:
    return sum(map(mul, degrees, _tilted_pmf(degrees, logs, s)))


@lru_cache(maxsize=256)
def equivalent_offspring(w: WeightSequence) -> EquivalentOffspring:
    """Solve for the tilting parameter and return the equivalent offspring
    law with its mean and variance (inf for heavy power-law tails) and the
    vs^2 the simply generated covariances use."""
    nu = w.nu()
    theta = w.critical_law()
    if theta is not None:  # critical rational weights tilt to themselves: stay exact
        tau = Fraction(1)
        sigma2 = sum(i * i * v for i, v in theta.probabilities().items()) - 1
    else:
        log_weights = w.log_weights()
        degrees, logs = list(log_weights), list(log_weights.values())
        rho = w.radius_of_convergence()
        tau = float(rho) if nu < 1 else _solve_unit_mean(degrees, logs, rho)
        pmf = list(zip(degrees, _tilted_pmf(degrees, logs, tau)))
        theta = OffspringDistribution.finite({i: v for i, v in pmf if v > 0})
        mean = sum(i * v for i, v in pmf)
        sigma2 = sum(i * i * v for i, v in pmf) - mean * mean
        if w.heavy_tailed and tau >= float(rho) - 1e-15:
            sigma2 = INF
    return EquivalentOffspring(tau, theta, nu, sigma2, sigma2 if nu >= 1 else INF)


def _solve_unit_mean(degrees: list, logs: list, rho) -> float:
    """Bisection for the tilt s with tilted mean 1; the mean is
    nondecreasing in s on [0, rho)."""
    if math.isinf(rho):
        hi = 1.0
        for _ in range(ROOT_MAX_ITER):
            if _tilted_mean(degrees, logs, hi) >= 1:
                break
            hi *= 2
        else:
            raise NotConverged("no bracket for the tilting parameter")
    else:
        rho = float(rho)
        hi = rho
        probe = rho * (1 - 2.0**-50)
        if _tilted_mean(degrees, logs, probe) < 1:
            # mean reaches 1 only at the boundary
            return rho
    lo = 0.0
    for _ in range(ROOT_MAX_ITER):
        mid = (lo + hi) / 2
        if _tilted_mean(degrees, logs, mid) >= 1:
            hi = mid
        else:
            lo = mid
        if hi - lo <= ROOT_TOLERANCE * max(hi, 1e-300):
            return (lo + hi) / 2
    raise NotConverged(f"tilt bisection stalled at [{lo}, {hi}]")


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric positive-semidefinite limit covariance."""

    entries: tuple

    def __post_init__(self):
        rows = self.entries
        m = len(rows)
        for row in rows:
            if len(row) != m:
                raise ValueError("covariance matrix must be square")
        # row j against column j from the diagonal on: each pair j < k
        # once, and each diagonal entry with itself, which only a NaN fails
        for j, column in enumerate(zip(*rows)):
            if any(map(ne, rows[j][j:], column[j:])):
                raise ValueError("covariance matrix must be symmetric")
        if m and self.min_eigenvalue() < -1e-9:
            raise ValueError("covariance matrix is not PSD within tolerance")

    @classmethod
    def build(cls, entries) -> "CovMatrix":
        return cls(tuple(tuple(row) for row in entries))

    def to_numpy(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.entries])

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.to_numpy()).min())


def sg_fringe_covariance(w: WeightSequence, patterns) -> CovMatrix:
    """Limit covariance matrix of fringe counts in size-conditioned weighted
    trees, centered at size * theta-probability.

    Diagonal: pi - (2|T| - 1 + 1/vs^2) pi^2; off-diagonal: the containment
    terms minus (|T| + |T'| - 1 + 1/vs^2) pi pi', where vs^2 is the
    equivalent law's varsigma2: the tilted variance sigma2 when nu >= 1,
    inf otherwise, and 1/inf := 0 as the int 0, so exact entries stay
    exact.  pi, |T| - 1 and the containment counts come from one
    _integer_trees of the patterns under theta, which raises
    DuplicatePatterns on repeated patterns.
    """
    eq = equivalent_offspring(w)
    it = _integer_trees(eq.theta, tuple(patterns))
    inv = 0 if eq.varsigma2 == INF else 1 / eq.varsigma2
    pis = [_exact_or_float(eq.theta, (), Fraction(mass, it.power)) for mass in it.mass]

    def entry(i, j):
        if i == j:
            return pis[i] - (2 * it.edges[i] + 1 + inv) * pis[i] ** 2
        cross = it.tau[j][i] * pis[i] + it.tau[i][j] * pis[j]  # tau[j][i]: copies of j in i
        return cross - (it.edges[i] + it.edges[j] + 1 + inv) * pis[i] * pis[j]

    return CovMatrix.build(_symmetric(len(it.mass), entry))


def sg_degree_covariance(w: WeightSequence, k: int) -> CovMatrix:
    """Limit covariance of the vertex counts per degree 0..k in
    size-conditioned weighted trees; k must be at least 0.  1/vs^2 is read
    from the equivalent law's varsigma2 as in sg_fringe_covariance."""
    if as_integer(k) < 0:
        raise ValueError(f"degree bound k = {k} must be at least 0")
    eq = equivalent_offspring(w)
    inv = 0 if eq.varsigma2 == INF else 1 / eq.varsigma2
    theta = [eq.theta.p(i) for i in range(k + 1)]

    def entry(i, j):
        if i == j:
            return theta[i] * (1 - theta[i]) - (i - 1) ** 2 * theta[i] ** 2 * inv
        return -theta[i] * theta[j] * (1 + (i - 1) * (j - 1) * inv)

    return CovMatrix.build(_symmetric(k + 1, entry))


def _symmetric(m: int, pair) -> list:
    """The m x m matrix of pair(j, k) as a list of rows, for a symmetric
    pair: each unordered pair j <= k is evaluated once and mirrored.  The
    one builder of the package's symmetric matrices."""
    entries = [[None] * m for _ in range(m)]
    for j in range(m):
        for k in range(j, m):
            entries[j][k] = entries[k][j] = pair(j, k)
    return entries


# ---------------------------------------------------------------------------
# Additive functionals


@dataclass(frozen=True)
class TollFunction:
    """Finite-support functional on plane trees, items (tree, value): the
    linear statistic F = sum_T f(T) N_T of fringe counts.  A NaN or
    infinite value raises ValueError naming its tree."""

    items: tuple

    def __post_init__(self):
        for tree, value in self.items:
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"toll value {value} at tree {tree.to_text()} is not finite")

    @classmethod
    def from_dict(cls, mapping) -> "TollFunction":
        items = tuple(
            sorted(
                ((tree, value) for tree, value in dict(mapping).items() if value),
                key=lambda kv: kv[0].degrees,
            )
        )
        return cls(items)

    @classmethod
    def indicator(cls, tree: PlaneTree) -> "TollFunction":
        return cls(((tree, Fraction(1)),))

    @classmethod
    def orderings(cls, shape) -> "TollFunction":
        """Value 1 on every plane ordering of an unordered shape (a PlaneTree
        or an UnorderedKey), so F counts fringe subtrees up to reordering of
        children.  Shapes above enumerate_orderings' cap raise CapExceeded."""
        if isinstance(shape, PlaneTree):
            shape = canonical_unordered(shape)
        elif not isinstance(shape, UnorderedKey):
            raise TypeError(f"expected PlaneTree or UnorderedKey, got {shape!r}")
        return cls.from_dict(dict.fromkeys(enumerate_orderings(shape), Fraction(1)))

    def value(self, tree: PlaneTree):
        for t, v in self.items:
            if t == tree:
                return v
        return Fraction(0)

    def support(self) -> tuple:
        return tuple(t for t, _ in self.items)


def additive_mean_density(p: OffspringDistribution, toll: TollFunction):
    """Limit mean per vertex of the additive functional: sum_T f(T) pi_T.
    For an ``orderings`` toll this is the probability that the unordered
    shape of the branching tree is the toll's shape.  It is one integer
    over D^S L (see _IntegerTrees; L the common denominator of the toll),
    rounded as _exact_or_float says."""
    values = [value for _, value in toll.items]
    it = _integer_trees(p, toll.support())
    numerators, common = _over_common(values)
    return _exact_or_float(p, values, Fraction(sum(map(mul, numerators, it.mass)), it.power * common))


def additive_covariance_density(p: OffspringDistribution, f: TollFunction, g: TollFunction):
    """Limit covariance per vertex of the additive functionals of f and g:
    the sum over T, T' of f(T) g(T') times the fringe covariance density of
    (T, T'), over the trees of either support.  It is one integer over
    D^{2S} L_f L_g (see _IntegerTrees; L_f and L_g the common denominators
    of the tolls), rounded as _exact_or_float says."""
    trees = tuple(sorted(set(f.support()) | set(g.support()), key=lambda t: t.degrees))
    left, right = [f.value(t) for t in trees], [g.value(t) for t in trees]
    it = _integer_trees(p, trees)
    (lefts, left_scale), (rights, right_scale) = _over_common(left), _over_common(right)
    total = _bilinear(partial(_integer_pair, it), lefts, rights)
    return _exact_or_float(p, left + right, Fraction(total, it.power**2 * left_scale * right_scale))


def _exact_or_float(p: OffspringDistribution, values, exact: Fraction):
    """exact itself when the law is exact and every toll value an int or a
    Fraction; otherwise float(exact), the one rounding of a float input."""
    if p.is_exact and all(isinstance(v, (int, Fraction)) for v in values):
        return exact
    return float(exact)


class _IntegerTrees(NamedTuple):
    """Distinct trees under a law, in integers.  With the weights p_i of
    the degrees the trees use read exactly by as_integer_ratio() (a float
    is the dyadic rational it stores), D their least common denominator,
    a_i = D p_i and S the largest tree size, pi_j = prod_i a_i^{n_j(i)} /
    D^{|T_j|}, so mass[j] = D^S pi_j is an integer, and so is
    share[j][i] = n_j(i) mass[j] / a_i, since a_i divides the product
    whenever n_j(i) >= 1 (share is 0 where the mass is 0)."""

    scale: int  # D
    power: int  # D^S
    edges: tuple  # |T_j| - 1
    tau: tuple  # tau[j][k]: proper fringe copies of tree j inside tree k
    counts: list  # counts[j][i] = n_j(i), over the degrees the trees use
    mass: list
    share: list


def _integer_trees(p: OffspringDistribution, trees: tuple) -> _IntegerTrees:
    """The integer form of the trees under the law p; sizes, degree
    profiles and containment counts come from the pattern-tuple cache."""
    edges, tau, profile = _pattern_constants(trees)
    a, scale = _over_common([p.p(degree) for degree, _ in profile])
    top = max(edges, default=0)
    counts = list(zip(*(uses for _, uses in profile)))
    mass, share = [], []
    for e, row in zip(edges, counts):
        m = scale ** (top - e) * math.prod(map(pow, a, row))
        mass.append(m)
        share.append([n * (m // ai) if n and m else 0 for n, ai in zip(row, a)])
    return _IntegerTrees(scale, scale ** (top + 1), edges, tau, counts, mass, share)


def _integer_pair(it: _IntegerTrees, j: int, k: int) -> int:
    """D^{2S} times the fringe covariance density of trees j and k: the
    cross terms inner1 * pi_j + inner2 * pi_k (pi_j alone on the diagonal),
    inner1 the copies of tree k in tree j and inner2 the reverse, plus
    eta * pi_j * pi_k with eta = (|T_j|-1)(|T_k|-1) - sum_i n_j(i) n_k(i) /
    p_i (0/0 := 0), in which each n_j(i) n_k(i) / p_i becomes
    n_k(i) * D * share[j][i] / mass[j].  A zero mass leaves the cross terms
    only (inf * 0 := 0 when eta = -inf)."""
    mj, mk = it.mass[j], it.mass[k]
    cross = mj if j == k else it.tau[k][j] * mj + it.tau[j][k] * mk
    shared = sum(map(mul, it.counts[k], it.share[j]))
    eta = it.edges[j] * it.edges[k] * mj - it.scale * shared
    return cross * it.power + eta * mk


def _bilinear(pair, left, right) -> int:
    """The sum over j, k of left[j] * right[k] * pair(j, k), for a
    symmetric pair evaluated once per unordered pair (see _symmetric)."""
    density = _symmetric(len(left), pair)
    return sum(v1 * sum(map(mul, right, densities)) for v1, densities in zip(left, density))


def additive_variance_forms(p: OffspringDistribution, toll: TollFunction):
    """The limit variance density of the additive functional, via both
    closed forms: the four-expectation formula and the quadratic form in
    fringe covariance densities.  They agree identically; both are returned
    so callers can assert it.  Each form is one integer over D^{2S} L^2
    (see _IntegerTrees; L the common denominator of the toll), the
    quadratic one summed pair by pair, and each is rounded as
    _exact_or_float says."""
    trees, values = toll.support(), [value for _, value in toll.items]
    it = _integer_trees(p, trees)
    numerators, common = _over_common(values)
    denominator = (it.power * common) ** 2
    # with F the toll summed over the fringe subtrees: hosted, size,
    # moments[i] and quotients[i] are 2 E[f F] - E[f^2], E[f (|T| - 1)],
    # E[f n_T(i)] and E[f n_T(i)] / a_i, times L^2 D^S for hosted and
    # L D^S for the others
    hosted = sum(
        v * m * (v + 2 * sum(map(mul, numerators, column)))
        for v, m, column in zip(numerators, it.mass, zip(*it.tau))
    )
    size = sum(map(mul, numerators, map(mul, it.edges, it.mass)))
    moments = [sum(map(mul, numerators, map(mul, it.mass, uses))) for uses in zip(*it.counts)]
    quotients = [sum(map(mul, numerators, shares)) for shares in zip(*it.share)]
    direct = hosted * it.power + size * size - it.scale * sum(map(mul, moments, quotients))
    quadratic = _bilinear(partial(_integer_pair, it), numerators, numerators)
    return tuple(_exact_or_float(p, values, Fraction(form, denominator)) for form in (direct, quadratic))


def additive_variance_density(p: OffspringDistribution, toll: TollFunction):
    """Limit variance density of F; the two closed forms, both rounded
    from their exact values, are cross-checked before returning."""
    direct, quadratic = additive_variance_forms(p, toll)
    if direct != quadratic:
        raise ArithmeticError(f"additive variance forms disagree: {direct} != {quadratic}")
    return direct
