"""Offspring distributions and unnormalized weight sequences.

Finite distributions and geometric ones with a rational ratio are exact
(Fraction probabilities); the other named families (poisson, power_law)
are truncated at a configurable index, renormalized, and evaluated in
floats.  Exact-mode operations elsewhere in the package require
``is_exact`` inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

DEFAULT_TRUNCATION = 512

_FLOAT_TOL = 1e-12


def _as_exact(value):
    """Coerce ints and integer-ratio inputs to Fraction, leave floats alone."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    return float(value)


@dataclass(frozen=True)
class OffspringDistribution:
    """Probability weights p_i on child counts {0, 1, 2, ...}.

    kind is 'finite', 'geometric', 'poisson' or 'power_law'; params is the
    kind-specific parameter tuple.  p(i) returns a Fraction for exact kinds
    and a float otherwise.
    """

    kind: str
    params: tuple
    truncation: int = DEFAULT_TRUNCATION

    # -- constructors ------------------------------------------------------

    @classmethod
    def finite(cls, probs) -> "OffspringDistribution":
        items = []
        for degree, p in dict(probs).items():
            value = _as_exact(p)
            if value < 0:
                raise ValueError(f"negative probability at degree {degree}")
            if value:
                items.append((int(degree), value))
        items.sort()
        total = sum(v for _, v in items)
        if any(isinstance(v, float) for _, v in items):
            if abs(total - 1.0) > _FLOAT_TOL:
                raise ValueError(f"probabilities sum to {total}, not 1")
        elif total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        return cls("finite", tuple(items))

    @classmethod
    def geometric(cls, ratio, truncation: int = DEFAULT_TRUNCATION):
        """p_i = (1 - ratio) * ratio**i; exact when ratio is rational."""
        r = _as_exact(ratio)
        if not 0 < r < 1:
            raise ValueError("geometric ratio must lie in (0, 1)")
        return cls("geometric", (r,), truncation)

    @classmethod
    def poisson(cls, rate, truncation: int = DEFAULT_TRUNCATION):
        """p_i proportional to rate**i / i!, truncated and renormalized."""
        rate = float(rate)
        if rate <= 0:
            raise ValueError("poisson rate must be positive")
        return cls("poisson", (rate,), truncation)

    @classmethod
    def power_law(cls, c, beta, truncation: int = DEFAULT_TRUNCATION):
        """p_i = c * i**-beta for 1 <= i <= truncation; p_0 soaks the rest."""
        c, beta = float(c), float(beta)
        tail = sum(c * i ** -beta for i in range(1, truncation + 1))
        if tail >= 1:
            raise ValueError("power-law tail mass >= 1; reduce c")
        return cls("power_law", (c, beta), truncation)

    @classmethod
    def from_spec(cls, text: str) -> "OffspringDistribution":
        """Parse CLI syntax: 'geometric:1/2', 'poisson:0.9',
        'power_law:0.3,2.5', or a JSON-ish finite map handled by callers."""
        kind, _, arg = text.partition(":")
        kind = kind.strip()
        if kind == "geometric":
            return cls.geometric(Fraction(arg))
        if kind == "poisson":
            return cls.poisson(float(arg))
        if kind == "power_law":
            c, beta = arg.split(",")
            return cls.power_law(float(c), float(beta))
        raise ValueError(f"unknown distribution spec {text!r}")

    # -- accessors ---------------------------------------------------------

    def p(self, i: int):
        """Probability of child count i (0 outside the support)."""
        if i < 0:
            return Fraction(0)
        if self.kind == "finite":
            for degree, value in self.params:
                if degree == i:
                    return value
            return Fraction(0)
        if self.kind == "geometric":
            (r,) = self.params
            return (1 - r) * r**i
        return _family_pmf(self).get(i, 0.0)

    @property
    def is_exact(self) -> bool:
        if self.kind == "finite":
            return all(isinstance(v, Fraction) for _, v in self.params)
        if self.kind == "geometric":
            return isinstance(self.params[0], Fraction)
        return False

    def support(self) -> tuple:
        """Degrees with positive probability (families: up to truncation)."""
        if self.kind == "finite":
            return tuple(d for d, _ in self.params)
        if self.kind == "geometric":
            return tuple(range(self.truncation + 1))
        return tuple(sorted(_family_pmf(self)))

    def probabilities(self) -> dict:
        """Mapping over the (truncated) support."""
        return {i: self.p(i) for i in self.support()}

    def mean(self):
        if self.kind == "geometric":
            (r,) = self.params
            return r / (1 - r)
        return sum(i * p for i, p in self.probabilities().items())

    def label(self) -> str:
        if self.kind == "finite":
            body = ",".join(f"{d}:{v}" for d, v in self.params)
            return f"finite{{{body}}}"
        args = ",".join(str(x) for x in self.params)
        return f"{self.kind}:{args}"


@lru_cache(maxsize=None)
def _family_pmf(dist: OffspringDistribution) -> dict:
    """Truncated, renormalized float pmf for the non-exact families."""
    k = dist.truncation
    if dist.kind == "poisson":
        (rate,) = dist.params
        logs = [i * math.log(rate) - math.lgamma(i + 1) for i in range(k + 1)]
        top = max(logs)
        weights = [math.exp(x - top) for x in logs]
        total = sum(weights)
        return {i: w / total for i, w in enumerate(weights) if w / total > 0}
    if dist.kind == "power_law":
        c, beta = dist.params
        pmf = {i: c * i**-beta for i in range(1, k + 1)}
        pmf[0] = 1.0 - sum(pmf.values())
        return pmf
    raise ValueError(f"no family pmf for kind {dist.kind!r}")


@lru_cache(maxsize=None)
def _cdf_table(dist: OffspringDistribution):
    """(support array, cumulative float probabilities) for inverse sampling."""
    support = np.array(dist.support(), dtype=np.int64)
    probs = np.array([float(dist.p(int(i))) for i in support], dtype=float)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return support, cdf


def sample_offspring(dist: OffspringDistribution, rng, size: int, *, tally=None):
    """Draw iid child counts via inverse CDF over the (truncated) support.

    With ``tally=n`` the ``size`` draws form size // n rows of n, and each
    row is returned only as its degree counts: a pair (degrees, counts)
    where counts[r, j] is how many draws of row r equal degrees[j].  A row
    is one multinomial(n, p) vector over the same masses the inverse CDF
    uses, drawn at O(support) cost; degrees of float mass 0 are left out.
    """
    support, cdf = _cdf_table(dist)
    if tally is not None:
        rows, rest = divmod(size, tally)
        if rest:
            raise ValueError(f"size {size} is not a multiple of tally {tally}")
        probs = np.diff(np.minimum(cdf, 1.0), prepend=0.0)
        keep = probs > 0
        return support[keep], rng.multinomial(tally, probs[keep], size=rows)
    u = rng.random(size)
    return support[np.searchsorted(cdf, u, side="left")]


@dataclass(frozen=True)
class WeightSequence:
    """Nonnegative weights w_i with w_0 > 0 and some w_i > 0 for i >= 2.

    Same kinds as OffspringDistribution but unnormalized:
    geometric(ratio) means w_i = ratio**i (ratio=1 gives all-ones weights),
    poisson(rate) means w_i = rate**i / i!, and power_law(c, beta, w0) means
    w_0 = w0 and w_i = c * i**-beta for i >= 1.
    """

    kind: str
    params: tuple
    truncation: int = DEFAULT_TRUNCATION

    @classmethod
    def finite(cls, weights) -> "WeightSequence":
        items = tuple(
            sorted((int(d), _as_exact(w)) for d, w in dict(weights).items() if w)
        )
        seq = cls("finite", items)
        seq._check_weight_constraints()
        return seq

    @classmethod
    def geometric(cls, ratio, truncation: int = DEFAULT_TRUNCATION):
        r = _as_exact(ratio)
        if r <= 0:
            raise ValueError("ratio must be positive")
        return cls("geometric", (r,), truncation)

    @classmethod
    def poisson(cls, rate, truncation: int = DEFAULT_TRUNCATION):
        return cls("poisson", (float(rate),), truncation)

    @classmethod
    def power_law(cls, c, beta, w0=1, truncation: int = DEFAULT_TRUNCATION):
        if w0 <= 0:
            raise ValueError("w_0 must be positive")
        return cls("power_law", (float(c), float(beta), _as_exact(w0)), truncation)

    @classmethod
    def from_spec(cls, text: str) -> "WeightSequence":
        kind, _, arg = text.partition(":")
        kind = kind.strip()
        if kind == "geometric":
            return cls.geometric(Fraction(arg))
        if kind == "poisson":
            return cls.poisson(float(arg))
        if kind == "power_law":
            parts = arg.split(",")
            return cls.power_law(float(parts[0]), float(parts[1]))
        raise ValueError(f"unknown weight spec {text!r}")

    def _check_weight_constraints(self):
        if self.weight(0) <= 0:
            raise ValueError("w_0 must be positive")
        if not any(self.weight(i) > 0 for i in range(2, self.truncated_degree() + 1)):
            raise ValueError("need w_i > 0 for some i >= 2")

    def weight(self, i: int):
        if i < 0:
            return Fraction(0)
        if self.kind == "finite":
            for degree, value in self.params:
                if degree == i:
                    return value
            return Fraction(0)
        if self.kind == "geometric":
            (r,) = self.params
            return r**i
        if self.kind == "poisson":
            (rate,) = self.params
            return math.exp(i * math.log(rate) - math.lgamma(i + 1))
        c, beta, w0 = self.params
        return w0 if i == 0 else c * i**-beta

    def truncated_degree(self) -> int:
        """Largest index kept when evaluating generating functions."""
        if self.kind == "finite":
            return self.params[-1][0]
        return self.truncation

    def radius_of_convergence(self):
        if self.kind == "finite":
            return math.inf
        if self.kind == "geometric":
            (r,) = self.params
            return 1 / r
        if self.kind == "poisson":
            return math.inf
        return 1  # power law

    def scaled(self, a, b) -> "WeightSequence":
        """Equivalent weights a * b**i * w_i (finite kind only)."""
        if self.kind != "finite":
            raise ValueError("scaling implemented for finite weights only")
        a, b = _as_exact(a), _as_exact(b)
        return WeightSequence.finite(
            {d: a * b**d * w for d, w in self.params}
        )

    def label(self) -> str:
        if self.kind == "finite":
            body = ",".join(f"{d}:{v}" for d, v in self.params)
            return f"finite{{{body}}}"
        args = ",".join(str(x) for x in self.params)
        return f"{self.kind}:{args}"
