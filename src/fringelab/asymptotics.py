"""Limit-law quantities for fringe counts in trees with given degrees.

Conventions used throughout (hard-coded at the formula sites):

* 0/0 := 0 inside the interaction sum, so degrees absent from either tree
  contribute nothing;
* the interaction term is -inf when the two trees share a degree of
  probability zero, and then inf * 0 := 0 wherever it multiplies a
  vanishing tree probability;
* 1/inf := 0 for the infinite-variance regimes of the simply generated
  covariances.

Exact inputs (rational probabilities) produce exact rational outputs
everywhere except where a genuine square root enters (the normalized
cross-covariances of distinct trees); those fall back to floats.

Pattern counts, unordered shape counts and additive functionals are all
linear statistics sum_T f(T) N_T, given by a TollFunction (``indicator``,
``orderings`` or any finite toll); their limit densities are
additive_mean_density and the bilinear additive_covariance_density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .distributions import OffspringDistribution, WeightSequence, normalize_log_weights
from .errors import DuplicatePatterns, NotConverged, UnsupportedRegime
from .tree_core import (
    DegreeStatistic,
    PlaneTree,
    UnorderedKey,
    canonical_unordered,
    count_fringe,
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
    """Probability that an unconditioned branching tree with offspring law p
    equals ``tree``: prod over appearing degrees of p_i ** n_T(i)."""
    value = Fraction(1)
    for degree, count in degree_statistic(tree).items:
        value = value * p.p(degree) ** count
        if value == 0:
            return value
    return value


def covariance_interaction(p: OffspringDistribution, t1: PlaneTree, t2: PlaneTree):
    """(|T|-1)(|T'|-1) - sum_i n_T(i) n_T'(i) / p_i  with 0/0 := 0.

    Returns -inf when a shared degree has zero probability.
    """
    return _interaction(p.p, _row(p, t1), _row(p, t2))


def _interaction(weight_of, row1: _Row, row2: _Row):
    """covariance_interaction of two rows, with weight_of(i) = p_i."""
    prof1, prof2 = row1.profile, row2.profile
    value = Fraction((row1.tree.size - 1) * (row2.tree.size - 1))
    for degree in set(prof1) & set(prof2):
        weight = weight_of(degree)
        if weight == 0:
            return -INF
        value = value - Fraction(prof1[degree] * prof2[degree]) / weight
    return value


class _Row(NamedTuple):
    """What the covariance density reads of one tree besides the law."""

    tree: PlaneTree
    pi: object  # tree_probability
    profile: dict  # degree -> count


def _row(p: OffspringDistribution, tree: PlaneTree) -> _Row:
    return _Row(tree, tree_probability(p, tree), degree_statistic(tree).as_dict())


def fringe_covariance_density(
    p: OffspringDistribution, t1: PlaneTree, t2: PlaneTree
):
    """Asymptotic covariance per vertex of the two fringe counts."""
    inner1, inner2 = count_fringe(t1, t2), count_fringe(t2, t1)
    return _pair_density(p.p, _row(p, t1), _row(p, t2), inner1, inner2)


def _pair_density(weight_of, row1: _Row, row2: _Row, inner1: int, inner2: int):
    """fringe_covariance_density of two rows.  Diagonal (same tree):
    pi + eta * pi^2.  Off-diagonal: the two cross-containment terms
    inner1 * pi + inner2 * pi', where inner1 counts copies of the second
    tree inside the first and inner2 the reverse (unread on the diagonal),
    plus eta * pi * pi'.  Always finite (inf * 0 := 0)."""
    (t1, pi1, _), (t2, pi2, _) = row1, row2
    eta = _interaction(weight_of, row1, row2)
    if t1 == t2:
        return pi1 if pi1 == 0 else pi1 + eta * pi1 * pi1
    cross = inner1 * pi1 + inner2 * pi2
    if pi1 == 0 or pi2 == 0:
        return cross
    return cross + eta * pi1 * pi2


class _RootSum:
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
        if is_float:
            self.float_total += float(rational) * float_part
        else:
            self.float_total += float(rational) * math.sqrt(float(radicand))

    def value(self):
        return self.exact_total if self.exact else self.float_total


def normalized_interaction(p: OffspringDistribution, t1: PlaneTree, t2: PlaneTree):
    """The interaction term scaled by sqrt(pi * pi'), extended by continuity
    to vanishing probabilities; a polynomial in the sqrt(p_i), hence always
    finite."""
    prof1 = degree_statistic(t1).as_dict()
    prof2 = degree_statistic(t2).as_dict()
    degrees = sorted(set(prof1) | set(prof2))
    acc = _RootSum()
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


def normalized_covariance_density(
    p: OffspringDistribution, t1: PlaneTree, t2: PlaneTree
):
    """Covariance density scaled by sqrt(pi * pi'), extended by continuity.

    Equals fringe_covariance_density / sqrt(pi * pi') whenever both tree
    probabilities are positive; on the diagonal it is 1 + the normalized
    interaction."""
    if t1 == t2:
        return 1 + normalized_interaction(p, t1, t1)
    prof1 = degree_statistic(t1).as_dict()
    prof2 = degree_statistic(t2).as_dict()
    acc = _RootSum()
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
    """|n| * prod_i (n(i)/|n|)^{n_T(i)}: the plug-in approximation of the
    expected fringe count, exact in rational arithmetic."""
    n = stat.size
    value = Fraction(n)
    for degree, count in degree_statistic(tree).items:
        value *= Fraction(stat.count(degree), n) ** count
        if value == 0:
            return value
    return value


# ---------------------------------------------------------------------------
# Simply generated / weighted trees


@dataclass(frozen=True)
class EquivalentOffspring:
    """Tilted offspring view of a weight sequence: theta_i = w_i tau^i /
    Phi(tau), the unique equivalent probability law with mean min(1, nu)."""

    tau: object
    theta: OffspringDistribution
    nu: object
    sigma2: object


def _tilted_pmf(log_weights: dict, s: float) -> dict:
    return normalize_log_weights(
        {i: lw + i * math.log(s) if s > 0 else (lw if i == 0 else -INF)
         for i, lw in log_weights.items()}
    )


def _tilted_mean(log_weights: dict, s: float) -> float:
    pmf = _tilted_pmf(log_weights, s)
    return sum(i * v for i, v in pmf.items())


@lru_cache(maxsize=256)
def equivalent_offspring(w: WeightSequence) -> EquivalentOffspring:
    """Solve for the tilting parameter and return the equivalent offspring
    law with its mean and variance (inf for heavy power-law tails)."""
    theta = w.critical_law()
    if theta is not None:  # critical rational weights tilt to themselves: stay exact
        sigma2 = sum(i * i * v for i, v in theta.probabilities().items()) - 1
        return EquivalentOffspring(Fraction(1), theta, w.nu(), sigma2)

    log_weights = w.log_weights()
    rho = w.radius_of_convergence()
    nu = w.nu()
    if nu < 1:
        tau = float(rho)
    else:
        tau = _solve_unit_mean(log_weights, rho)

    pmf = _tilted_pmf(log_weights, tau)
    theta = OffspringDistribution.finite(
        {i: v for i, v in pmf.items() if v > 0}
    )
    mean = sum(i * v for i, v in pmf.items())
    sigma2 = sum(i * i * v for i, v in pmf.items()) - mean * mean
    if w.heavy_tailed and tau >= float(rho) - 1e-15:
        sigma2 = INF
    return EquivalentOffspring(tau, theta, nu, sigma2)


def _solve_unit_mean(log_weights: dict, rho) -> float:
    """Bisection for the tilt s with tilted mean 1; the mean is
    nondecreasing in s on [0, rho)."""
    if math.isinf(rho):
        hi = 1.0
        for _ in range(ROOT_MAX_ITER):
            if _tilted_mean(log_weights, hi) >= 1:
                break
            hi *= 2
        else:
            raise NotConverged("no bracket for the tilting parameter")
    else:
        rho = float(rho)
        hi = rho
        probe = rho * (1 - 2.0**-50)
        if _tilted_mean(log_weights, probe) < 1:
            # mean reaches 1 only at the boundary
            return rho
    lo = 0.0
    for _ in range(ROOT_MAX_ITER):
        mid = (lo + hi) / 2
        if _tilted_mean(log_weights, mid) >= 1:
            hi = mid
        else:
            lo = mid
        if hi - lo <= ROOT_TOLERANCE * max(hi, 1e-300):
            return (lo + hi) / 2
    raise NotConverged(f"tilt bisection stalled at [{lo}, {hi}]")


def _inverse_variance(w: WeightSequence, regime: str):
    """(equivalent law, 1/vs^2) with 1/inf := 0 in the infinite-variance regime."""
    eq = equivalent_offspring(w)
    if regime == "infinite_variance":
        return eq, 0
    if regime not in ("auto", "finite_variance"):
        raise UnsupportedRegime(f"unknown regime {regime!r}")
    if not (eq.nu >= 1 and 0 < eq.sigma2 < INF):
        raise UnsupportedRegime(
            "weights outside the finite-variance critical case; pass "
            "regime='infinite_variance' to assert a stable/subcritical regime"
        )
    return eq, 1 / eq.sigma2


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric positive-semidefinite limit covariance with row labels."""

    entries: tuple
    labels: tuple

    def __post_init__(self):
        m = len(self.entries)
        for row in self.entries:
            if len(row) != m:
                raise ValueError("covariance matrix must be square")
        for i in range(m):
            for j in range(m):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError("covariance matrix must be symmetric")
        if m and self.min_eigenvalue() < -1e-9:
            raise ValueError("covariance matrix is not PSD within tolerance")

    @classmethod
    def build(cls, entries, labels) -> "CovMatrix":
        return cls(tuple(tuple(row) for row in entries), tuple(labels))

    def to_numpy(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.entries])

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.to_numpy()).min())

    def entry(self, i: int, j: int):
        return self.entries[i][j]


def sg_fringe_covariance(
    w: WeightSequence, patterns, regime: str = "auto"
) -> CovMatrix:
    """Limit covariance matrix of fringe counts in size-conditioned weighted
    trees, centered at size * theta-probability.

    Diagonal: pi - (2|T| - 1 + 1/vs^2) pi^2; off-diagonal: the containment
    terms minus (|T| + |T'| - 1 + 1/vs^2) pi pi', where vs^2 is the
    offspring variance in the finite-variance case and inf otherwise
    (1/inf := 0).
    """
    patterns = list(patterns)
    if len(set(patterns)) != len(patterns):
        raise DuplicatePatterns("patterns must be pairwise distinct")
    eq, inv = _inverse_variance(w, regime)
    theta = eq.theta
    pis = [tree_probability(theta, t) for t in patterns]
    m = len(patterns)
    entries = [[None] * m for _ in range(m)]
    for i in range(m):
        entries[i][i] = pis[i] - (2 * patterns[i].size - 1 + inv) * pis[i] ** 2
        for j in range(i + 1, m):
            value = (
                count_fringe(patterns[i], patterns[j]) * pis[i]
                + count_fringe(patterns[j], patterns[i]) * pis[j]
                - (patterns[i].size + patterns[j].size - 1 + inv) * pis[i] * pis[j]
            )
            entries[i][j] = entries[j][i] = value
    return CovMatrix.build(entries, [t.to_text() for t in patterns])


def sg_degree_covariance(w: WeightSequence, k: int, regime: str = "auto") -> CovMatrix:
    """Limit covariance of the vertex counts per degree 0..k in
    size-conditioned weighted trees."""
    eq, inv = _inverse_variance(w, regime)
    theta = [eq.theta.p(i) for i in range(k + 1)]
    entries = [[None] * (k + 1) for _ in range(k + 1)]
    for i in range(k + 1):
        entries[i][i] = theta[i] * (1 - theta[i]) - (i - 1) ** 2 * theta[i] ** 2 * inv
        for j in range(i + 1, k + 1):
            value = -theta[i] * theta[j] * (1 + (i - 1) * (j - 1) * inv)
            entries[i][j] = entries[j][i] = value
    return CovMatrix.build(entries, [f"degree {i}" for i in range(k + 1)])


# ---------------------------------------------------------------------------
# Additive functionals


@dataclass(frozen=True)
class TollFunction:
    """Finite-support functional on plane trees, items (tree, value): the
    linear statistic F = sum_T f(T) N_T of fringe counts."""

    items: tuple

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


def additive_functional(tree: PlaneTree, toll: TollFunction):
    """F(T) = sum over vertices v of f(fringe subtree at v), evaluated as a
    finite linear combination of fringe counts."""
    return sum(
        value * count_fringe(tree, pattern) for pattern, value in toll.items
    )


def additive_mean_density(p: OffspringDistribution, toll: TollFunction):
    """Limit mean per vertex of the additive functional: sum_T f(T) pi_T.
    For an ``orderings`` toll this is the probability that the unordered
    shape of the branching tree is the toll's shape."""
    return sum((value * tree_probability(p, tree) for tree, value in toll.items), Fraction(0))


def additive_covariance_density(p: OffspringDistribution, f: TollFunction, g: TollFunction):
    """Limit covariance per vertex of the additive functionals of f and g:
    the sum over T, T' of f(T) g(T') times the fringe covariance density of
    (T, T'), read from one row per tree of either support."""
    trees = sorted(set(f.support()) | set(g.support()), key=lambda t: t.degrees)
    rows, inside, weights = _toll_rows(p, trees)
    left, right = [f.value(t) for t in trees], [g.value(t) for t in trees]
    return _bilinear_density(weights.get, rows, inside, left, right)


def _toll_rows(p: OffspringDistribution, trees):
    """One row per tree, inside[j][k] = fringe copies of tree k in tree j,
    and the law's weight of each degree the rows use."""
    rows = [_row(p, tree) for tree in trees]
    inside = [[count_fringe(r.tree, s.tree) for s in rows] for r in rows]
    weights = {degree: p.p(degree) for row in rows for degree in row.profile}
    return rows, inside, weights


def _bilinear_density(weight_of, rows, inside, left, right):
    """sum over j, k of left[j] * right[k] * the covariance density of rows
    j and k, summed in row-major order."""
    total = Fraction(0)
    for j, (row1, v1) in enumerate(zip(rows, left)):
        for k, (row2, v2) in enumerate(zip(rows, right)):
            total += v1 * v2 * _pair_density(weight_of, row1, row2, inside[j][k], inside[k][j])
    return total


def additive_variance_forms(p: OffspringDistribution, toll: TollFunction):
    """The limit variance density of the additive functional, via both
    closed forms: the four-expectation formula and the quadratic form in
    fringe covariance densities.  They agree identically; both are returned
    so callers can assert it.  Both read one row per toll tree, the law's
    weight of each degree and the fringe count of each ordered pair of toll
    trees, each computed once."""
    values = [value for _, value in toll.items]
    rows, inside, weights = _toll_rows(p, toll.support())
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
        weight = weights[degree]
        if weight > 0:
            direct -= moment * moment / weight
    quadratic = _bilinear_density(weights.get, rows, inside, values, values)
    return direct, quadratic


def additive_variance_density(p: OffspringDistribution, toll: TollFunction):
    """Limit variance density of F; the two closed forms are cross-checked
    before returning."""
    direct, quadratic = additive_variance_forms(p, toll)
    if isinstance(direct, Fraction) and isinstance(quadratic, Fraction):
        agree = direct == quadratic
    else:
        agree = math.isclose(float(direct), float(quadratic), rel_tol=1e-9, abs_tol=1e-12)
    if not agree:
        raise ArithmeticError(f"additive variance forms disagree: {direct} != {quadratic}")
    return direct
