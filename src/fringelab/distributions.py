"""Offspring distributions and unnormalized weight sequences.

Both are laws of one kind: 'finite', 'geometric', 'poisson' or
'power_law', with a kind-specific parameter tuple.  Finite laws and
geometric ones with a rational ratio are exact (Fraction values); the other
named families (poisson, power_law) are truncated at a configurable index
and evaluated in floats.  Exact-mode operations elsewhere in the package
require ``is_exact`` inputs.  This is the only module that reads a law's
kind or parameters; other modules ask the law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import as_integer

DEFAULT_TRUNCATION = 512

_FLOAT_TOL = 1e-12


def _as_exact(value):
    """Coerce ints and integer-ratio inputs to Fraction, leave floats alone."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    return float(value)


def _poisson_log_weight(rate: float, i: int) -> float:
    """log(rate**i / i!)."""
    return i * math.log(rate) - math.lgamma(i + 1)


def _log_binomial_pmf(n: int, k: int, log_p: float, log_q: float) -> float:
    """log(C(n, k) p**k q**(n-k)) from log p and log q; a power with
    exponent 0 adds 0 even when the log of its base is -inf."""
    value = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    if k:
        value += k * log_p
    if n - k:
        value += (n - k) * log_q
    return value


def normalize_log_weights(logs: dict) -> dict:
    """exp(logs[i]) rescaled to sum 1, taken relative to the largest log so
    that no weight overflows; a log of -inf gets probability 0."""
    top = max(logs.values())
    raw = {i: math.exp(x - top) for i, x in logs.items()}
    total = sum(raw.values())
    return {i: v / total for i, v in raw.items()}


# one parser per field of each family spec that from_spec reads
_SPEC_ARGS = {"geometric": [Fraction], "poisson": [float], "power_law": [float, float]}


@dataclass(frozen=True)
class _Law:
    """A law kind with its params and truncation; the base of both
    OffspringDistribution and WeightSequence.  A finite law's params are
    its sorted (degree, nonzero value) pairs.  Each class checks its
    constraints in __post_init__, after the base rejects NaN and infinite
    parameters, so every way of building a law is validated.  Laws of
    different classes never compare equal, so caches keyed by laws keep
    them apart."""

    kind: str
    params: tuple
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        values = [v for _, v in self.params] if self.kind == "finite" else self.params
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ValueError(f"non-finite parameter in {self.kind} law")
        if self.kind == "poisson" and not self.params[0] > 0:
            raise ValueError("poisson rate must be positive")

    @classmethod
    def finite(cls, values):
        items = ((as_integer(d), _as_exact(v)) for d, v in dict(values).items())
        return cls("finite", tuple(sorted(item for item in items if item[1])))

    @classmethod
    def geometric(cls, ratio, truncation: int = DEFAULT_TRUNCATION):
        return cls("geometric", (_as_exact(ratio),), truncation)

    @classmethod
    def poisson(cls, rate, truncation: int = DEFAULT_TRUNCATION):
        return cls("poisson", (float(rate),), truncation)

    @classmethod
    def from_spec(cls, text: str):
        """Parse CLI syntax: 'geometric:1/2', 'poisson:0.9',
        'power_law:0.3,2.5', or a JSON-ish finite map handled by callers.
        A spec with the wrong number of fields or an unreadable number
        raises ValueError quoting the spec."""
        kind, _, arg = text.partition(":")
        kind = kind.strip()
        if kind not in _SPEC_ARGS:
            raise ValueError(f"unknown {cls._spec_noun} spec {text!r}")
        try:
            fields = zip(_SPEC_ARGS[kind], arg.split(","), strict=True)
            values = [parse(field) for parse, field in fields]
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"malformed {cls._spec_noun} spec {text!r}") from None
        return getattr(cls, kind)(*values)

    def _finite_value(self, i: int):
        """Value listed at degree i by a finite law (0 when unlisted)."""
        for degree, value in self.params:
            if degree == i:
                return value
        return Fraction(0)

    @property
    def is_exact(self) -> bool:
        if self.kind == "finite":
            return all(isinstance(v, Fraction) for _, v in self.params)
        if self.kind == "geometric":
            return isinstance(self.params[0], Fraction)
        return False

    @property
    def is_finite(self) -> bool:
        """True for a law given by its listed (degree, value) pairs."""
        return self.kind == "finite"

    def truncated_degree(self) -> int:
        """Largest index kept when evaluating the law."""
        if self.kind == "finite":
            return self.params[-1][0]
        return self.truncation

    def label(self) -> str:
        if self.kind == "finite":
            body = ",".join(f"{d}:{v}" for d, v in self.params)
            return f"finite{{{body}}}"
        args = ",".join(str(x) for x in self.params)
        return f"{self.kind}:{args}"


@dataclass(frozen=True)
class OffspringDistribution(_Law):
    """Probability weights p_i on child counts {0, 1, 2, ...}.

    geometric(ratio) means p_i = (1 - ratio) * ratio**i, exact when the
    ratio is rational; poisson(rate) means p_i proportional to rate**i / i!,
    truncated and renormalized; power_law(c, beta) means p_i = c * i**-beta
    for 1 <= i <= truncation, with p_0 soaking up the rest.  p(i) returns a
    Fraction for exact kinds and a float otherwise.
    """

    _spec_noun = "distribution"

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "finite":
            for degree, value in self.params:
                if value < 0:
                    raise ValueError(f"negative probability at degree {degree}")
            total = sum(v for _, v in self.params)
            if any(isinstance(v, float) for _, v in self.params):
                if abs(total - 1.0) > _FLOAT_TOL:
                    raise ValueError(f"probabilities sum to {total}, not 1")
            elif total != 1:
                raise ValueError(f"probabilities sum to {total}, not 1")
        elif self.kind == "geometric" and not 0 < self.params[0] < 1:
            raise ValueError("geometric ratio must lie in (0, 1)")
        elif self.kind == "power_law":
            c, beta = self.params
            if c < 0:
                raise ValueError("power-law c must be nonnegative")
            if sum(c * i**-beta for i in range(1, self.truncation + 1)) >= 1:
                raise ValueError("power-law tail mass >= 1; reduce c")

    @classmethod
    def power_law(cls, c, beta, truncation: int = DEFAULT_TRUNCATION):
        return cls("power_law", (float(c), float(beta)), truncation)

    def p(self, i: int):
        """Probability of child count i (0 outside the support)."""
        if i < 0:
            return Fraction(0)
        if self.kind == "finite":
            return self._finite_value(i)
        if self.kind == "geometric":
            (r,) = self.params
            return (1 - r) * r**i
        return _family_pmf(self).get(i, 0.0)

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


@lru_cache(maxsize=256)
def _family_pmf(dist: OffspringDistribution) -> dict:
    """Truncated, renormalized float pmf for the non-exact families."""
    k = dist.truncation
    if dist.kind == "poisson":
        (rate,) = dist.params
        logs = {i: _poisson_log_weight(rate, i) for i in range(k + 1)}
        return {i: v for i, v in normalize_log_weights(logs).items() if v > 0}
    if dist.kind == "power_law":
        c, beta = dist.params
        pmf = {i: c * i**-beta for i in range(1, k + 1)}
        pmf[0] = 1.0 - sum(pmf.values())
        return {i: v for i, v in pmf.items() if v > 0}
    raise ValueError(f"no family pmf for kind {dist.kind!r}")


@lru_cache(maxsize=256)
def _cdf_table(dist: OffspringDistribution):
    """(support array, cumulative float probabilities) for inverse sampling."""
    support = np.array(dist.support(), dtype=np.int64)
    probs = np.array([float(dist.p(int(i))) for i in support], dtype=float)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return support, cdf


@lru_cache(maxsize=256)
def _mass_table(dist: OffspringDistribution):
    """(degrees, masses) of the steps of the inverse-CDF table that carry
    positive float mass: the cell masses of every multinomial row drawn in
    tally mode.  The arrays are read-only, since callers share them."""
    support, cdf = _cdf_table(dist)
    masses = np.diff(np.minimum(cdf, 1.0), prepend=0.0)
    keep = masses > 0
    degrees, masses = support[keep], masses[keep]
    degrees.flags.writeable = masses.flags.writeable = False
    return degrees, masses


def sample_offspring(dist: OffspringDistribution, rng, size: int, *, tally=None):
    """Draw iid child counts via inverse CDF over the (truncated) support.

    With ``tally=n`` the ``size`` draws form size // n rows of n, and each
    row is returned only as its degree counts: a pair (degrees, counts)
    where counts[r, j] is how many draws of row r equal degrees[j].  A row
    is one multinomial(n, p) vector over the same masses the inverse CDF
    uses, drawn at O(support) cost; degrees of float mass 0 are left out.
    The degrees array is cached and read-only.
    """
    if tally is not None:
        rows, rest = divmod(size, tally)
        if rest:
            raise ValueError(f"size {size} is not a multiple of tally {tally}")
        degrees, masses = _mass_table(dist)
        return degrees, rng.multinomial(tally, masses, size=rows)
    support, cdf = _cdf_table(dist)
    u = rng.random(size)
    return support[np.searchsorted(cdf, u, side="left")]


@dataclass(frozen=True)
class WeightSequence(_Law):
    """Nonnegative weights w_i with w_0 > 0 and some w_i > 0 for i >= 2.

    Same kinds as OffspringDistribution but unnormalized:
    geometric(ratio) means w_i = ratio**i (ratio=1 gives all-ones weights),
    poisson(rate) means w_i = rate**i / i!, and power_law(c, beta, w0) means
    w_0 = w0 and w_i = c * i**-beta for i >= 1.
    """

    _spec_noun = "weight"

    def __post_init__(self):
        super().__post_init__()
        if self.weight(0) <= 0:
            raise ValueError("w_0 must be positive")
        weights = self._weights()
        if min(weights) < 0:
            raise ValueError("weights must be nonnegative")
        if not any(v > 0 for v in weights[2:]):
            raise ValueError("need w_i > 0 for some i >= 2")

    @classmethod
    def power_law(cls, c, beta, w0=1, truncation: int = DEFAULT_TRUNCATION):
        return cls("power_law", (float(c), float(beta), _as_exact(w0)), truncation)

    def weight(self, i: int):
        if i < 0:
            return Fraction(0)
        if self.kind == "finite":
            return self._finite_value(i)
        if self.kind == "geometric":
            (r,) = self.params
            return r**i
        if self.kind == "poisson":
            (rate,) = self.params
            return math.exp(_poisson_log_weight(rate, i))
        c, beta, w0 = self.params
        return w0 if i == 0 else c * i**-beta

    def _weights(self) -> list:
        return [self.weight(i) for i in range(self.truncated_degree() + 1)]

    def log_weights(self) -> dict:
        """log w_i for every positive w_i up to the truncated degree.  Poisson
        logs come from the closed form, so weights that underflow as floats
        keep their logarithm."""
        if self.kind == "poisson":
            (rate,) = self.params
            return {i: _poisson_log_weight(rate, i) for i in range(self.truncation + 1)}
        return {i: math.log(float(v)) for i, v in enumerate(self._weights()) if v > 0}

    def radius_of_convergence(self):
        if self.kind == "finite":
            return math.inf
        if self.kind == "geometric":
            (r,) = self.params
            return 1 / r
        if self.kind == "poisson":
            return math.inf
        return 1  # power law

    def nu(self):
        """Supremum of the tilted mean over tilts below the radius: the top
        degree of finite weights, inf for geometric and poisson weights, and
        the mean of the normalized (truncated) weights at the radius 1 for a
        power law."""
        if self.kind == "finite":
            return self.truncated_degree()
        if self.kind in ("geometric", "poisson"):
            return math.inf
        return sum(i * v for i, v in normalize_log_weights(self.log_weights()).items())

    @property
    def heavy_tailed(self) -> bool:
        """True for power-law weights with beta <= 3, whose tilted variance
        at the radius of convergence is infinite."""
        return self.kind == "power_law" and self.params[1] <= 3

    def critical_law(self):
        """These weights as an OffspringDistribution when they are finite,
        rational, sum to 1 and have mean 1 (they then tilt to themselves);
        None otherwise."""
        if not (self.is_finite and self.is_exact):
            return None
        if sum(v for _, v in self.params) != 1 or sum(d * v for d, v in self.params) != 1:
            return None
        return OffspringDistribution.finite(dict(self.params))

    def scaled(self, a, b) -> "WeightSequence":
        """Equivalent weights a * b**i * w_i (finite kind only)."""
        if self.kind != "finite":
            raise ValueError("scaling implemented for finite weights only")
        a, b = _as_exact(a), _as_exact(b)
        return WeightSequence.finite(
            {d: a * b**d * w for d, w in self.params}
        )
