"""Seeded Monte Carlo confrontation of fringe counts with their limit laws.

The harness draws uniform trees from built-in convergent families of degree
profiles, tallies fringe-pattern counts, and compares empirical moments with
three references: the exact finite-size values (rational arithmetic), the
covariance-density predictions scaled by the size, and the plug-in mean.
Counts centered at the exact mean are tested for normality by
Kolmogorov-Smirnov distance.  The gates are module constants: a KS
verdict passes below DEFAULT_KS_THRESHOLD, and the variance verdicts
allow the relative error DEFAULT_VAR_REL_TOL.  Two purely exact scans
probe the finite-size error of the moment approximations: one tracks the
gap between exact mean/variance and their limit forms across sizes, the
other checks the quadratic-exponent shape of high factorial moments that
underlies the normality proofs.  The
crosscheck tests the bridge-rotation sampler on hub profiles against the
exact hypergeometric law of their path counts.

Aggregation is exact (integer count sums), so reports are byte-identical
for a given (config, seed) regardless of worker count.  The replicates of
a size are cut into chunks whose length depends on the profile size alone,
and chunk c draws its replicates in turn from seed.generator(size_index,
c); each replicate compares its word once with each degree of the
patterns.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial

import numpy as np
from scipy import stats as scistats

from .asymptotics import _symmetric, fringe_covariance_density, plugin_mean
from .distributions import OffspringDistribution
from .errors import SizeTooSmall, TooFewSamples, as_integer
from .exact_moments import exact_covariance, factorial_moment, mean_count
from .sampling import Seed, excursion_degrees, sample_uniform_trees
from .tree_core import DegreeStatistic, PlaneTree, count_fringe

DEFAULT_KS_THRESHOLD = 0.05
DEFAULT_VAR_REL_TOL = 0.10
TESTS = ("moments", "normality")
_KS_MIN_SAMPLES = 100  # the fewest samples normality_test takes


# ---------------------------------------------------------------------------
# Built-in statistic families

# family name -> number of parameters
_FAMILIES = {"full_binary": 0, "geometric_profile": 0, "one_hub": 1}


@dataclass(frozen=True)
class StatFamily:
    """A named rule mapping a requested size to a feasible degree profile,
    together with the limiting degree distribution the rule converges to."""

    name: str
    params: tuple = ()

    def __post_init__(self):
        arity = _FAMILIES.get(self.name)
        if arity is None:
            raise ValueError(f"unknown family {self.name!r}; known: {', '.join(_FAMILIES)}")
        if len(self.params) != arity:
            raise ValueError(f"{self.name} takes {arity} parameter(s), not {list(self.params)}")
        if self.name == "one_hub":
            ratio = self.params[0]  # what a label carries; JSON true is a bool, a bool an int
            if isinstance(ratio, bool) or not (isinstance(ratio, (int, float)) and 0 <= ratio < math.inf):
                raise ValueError(f"the one_hub ratio is a finite int or float >= 0, not {ratio!r}")

    @classmethod
    def from_label(cls, text: str) -> "StatFamily":
        """``name(p, ...)`` as ``label`` writes it, each p a JSON number, or
        a bare ``name``.  ValueError if malformed."""
        name, paren, body = text.partition("(")
        try:
            params = json.loads(f"[{body[:-1]}]" if body.endswith(")") else "") if paren else ()
        except ValueError:
            raise ValueError(f"malformed family label {text!r}") from None
        return cls(name, tuple(params))

    @classmethod
    def full_binary(cls) -> "StatFamily":
        return cls("full_binary")

    @classmethod
    def geometric_profile(cls) -> "StatFamily":
        return cls("geometric_profile")

    @classmethod
    def one_hub(cls, ratio: float = 0.5) -> "StatFamily":
        """Hub profiles with n1 ~ ratio * n0 single-child vertices; the
        ratio is checked as given."""
        return cls("one_hub", (ratio,))

    def statistic(self, size: int) -> DegreeStatistic:
        """The family's profile at ``size``; ValueError for a size below 3
        or a profile of fewer than 3 vertices."""
        if size < 3:
            raise ValueError("families need size >= 3")
        if self.name == "full_binary":
            m = max(1, round((size - 1) / 2))
            stat = DegreeStatistic.from_counts({0: m + 1, 2: m})
        elif self.name == "geometric_profile":
            stat = _geometric_profile(size)
        else:
            (ratio,) = self.params  # one_hub
            n0 = max(2, round(size / (1 + ratio)) - 1)
            stat = DegreeStatistic.from_counts({0: n0, 1: size - n0 - 1, n0: 1})
        if stat.size < 3:
            raise ValueError(f"{self.label()} at size {size} has {stat.size} vertices, fewer than 3")
        return stat

    def target(self) -> OffspringDistribution:
        if self.name == "full_binary":
            return OffspringDistribution.finite(
                {0: Fraction(1, 2), 2: Fraction(1, 2)}
            )
        if self.name == "geometric_profile":
            return OffspringDistribution.geometric(Fraction(1, 2))
        (ratio,) = self.params  # one_hub
        r = Fraction(ratio).limit_denominator(10**6)
        return OffspringDistribution.finite({0: 1 / (1 + r), 1: r / (1 + r)})

    def label(self) -> str:
        if self.params:
            return f"{self.name}({','.join(map(str, self.params))})"
        return self.name


def _geometric_profile(size: int) -> DegreeStatistic:
    """Counts n(i) ~ size * 2^-(i+1), floored, with n(0) adjusted by the
    signed balance deficit so the profile is feasible: n(0) ends at
    1 + n(2) + 2 n(3) + ... >= 1.  Below size 8 it has fewer than 3
    vertices."""
    counts = {}
    i = 0
    while True:
        c = size >> (i + 1)
        if c == 0:
            break
        counts[i] = c
        i += 1
    deficit = 1 + sum(d * c for d, c in counts.items()) - sum(counts.values())
    counts[0] += deficit
    return DegreeStatistic.from_counts(counts)


# ---------------------------------------------------------------------------
# Config and report


@dataclass(frozen=True)
class ExperimentConfig:
    family: StatFamily
    patterns: tuple
    sizes: tuple
    replicates: int
    seed: Seed
    tests: tuple = TESTS

    def __post_init__(self):
        if isinstance(self.tests, str) or not self.tests:
            raise ValueError(f"tests is a non-empty list of test names, not {self.tests!r}")
        if not all(test in TESTS for test in self.tests):
            raise ValueError(f"unknown tests in {list(self.tests)}; known: {', '.join(TESTS)}")
        if not (self.sizes and self.patterns):
            raise ValueError("an experiment needs non-empty sizes and patterns")
        if len(set(self.patterns)) < len(self.patterns):
            raise ValueError("patterns must be distinct")
        for size in self.sizes:
            self.family.statistic(as_integer(size))  # raises before any size is sampled
        if as_integer(self.replicates) < 2:
            raise ValueError("an experiment needs at least 2 replicates")
        if "normality" in self.tests and self.replicates < _KS_MIN_SAMPLES:
            raise ValueError(f"normality needs at least {_KS_MIN_SAMPLES} replicates, not {self.replicates}")

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        """The config of an experiment JSON object, the form ``to_dict``
        echoes.  Absent keys default to full_binary, the cherry 2,0,0, the
        one size 10001, 2000 replicates, seed 0 on stream 0 and both tests.
        A value that is not an object, an unknown key, an unknown value, a
        size below 3 or fewer than 100 replicates with ``normality``
        raises ValueError, and so does a ``patterns``,
        ``sizes`` or ``tests`` value that is not a non-empty list; a count
        or seed that is not an integer raises TypeError."""
        if not isinstance(raw, dict):
            raise ValueError(f"an experiment config is a JSON object, not {raw!r}")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown experiment config keys {sorted(unknown)}")
        family = raw.get("family", "full_binary")
        if not isinstance(family, str):
            raise ValueError(f'"family" is a label such as "one_hub(0.5)", not {family!r}')
        seed = raw.get("seed", {})
        if not isinstance(seed, dict) or not seed.keys() <= {"value", "stream_id"}:
            raise ValueError(f'"seed" is an object of "value" and "stream_id", not {seed!r}')
        patterns = raw.get("patterns", ["2,0,0"])
        if not (isinstance(patterns, list) and all(isinstance(text, str) for text in patterns)):
            raise ValueError(f'"patterns" lists texts such as "2,0,0", not {patterns!r}')
        sizes = raw.get("sizes", [10001])
        if not isinstance(sizes, list):
            raise ValueError(f'"sizes" lists sizes such as 10001, not {sizes!r}')
        tests = raw.get("tests", list(TESTS))
        if not isinstance(tests, list):
            raise ValueError(f'"tests" lists test names such as "moments", not {tests!r}')
        return cls(
            family=StatFamily.from_label(family),
            patterns=tuple(PlaneTree.from_text(text) for text in patterns),
            sizes=tuple(sizes),
            replicates=raw.get("replicates", 2000),
            seed=Seed(as_integer(seed.get("value", 0)), as_integer(seed.get("stream_id", 0))),
            tests=tuple(tests),
        )

    def to_dict(self) -> dict:
        return {
            "family": self.family.label(),
            "patterns": [p.to_text() for p in self.patterns],
            "sizes": list(self.sizes),
            "replicates": self.replicates,
            "seed": {"value": self.seed.value, "stream_id": self.seed.stream_id},
            "tests": list(self.tests),
        }


@dataclass
class ExperimentReport:
    """The echoed config, one entry per size and the verdicts, as
    ``to_dict`` writes them.  ``samples`` holds (size, pattern text,
    standardized counts) per size and pattern in run order; it is not
    part of the report."""

    config: dict
    per_size: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    samples: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "per_size": self.per_size,
            "verdicts": self.verdicts,
            "all_passed": self.all_passed,
        }


# ---------------------------------------------------------------------------
# Count collection


def _degree_masks(word: np.ndarray, degrees) -> dict:
    """degree -> the boolean mask ``word == degree``, for each of ``degrees``."""
    return {d: word == d for d in degrees}


def _count_occurrences(hay: np.ndarray, needle: np.ndarray, masks: dict) -> int:
    """Occurrences of needle as a contiguous block of hay, given
    ``masks = _degree_masks(hay, D)`` for a set D of degrees that holds
    the needle's: every offset ANDs a shifted slice of its degree's mask."""
    n, m = hay.size, needle.size
    if m > n:
        return 0
    window = n - m + 1
    degrees = needle.tolist()
    match = masks[degrees[0]][:window].copy()
    for j in range(1, m):
        match &= masks[degrees[j]][j : window + j]
    return int(np.count_nonzero(match))


# a chunk of harness replicates holds about this many degree-word entries;
# its length must not depend on the worker count, or the samples would
_CHUNK_ENTRIES = 2**17


def _count_chunk(
    multiset, needles, seed: Seed, size_index: int, replicates: int, length: int, chunk: int
) -> list:
    """The needle counts of the replicates chunk * length up to (chunk + 1)
    * length or ``replicates``, drawn in turn from
    seed.generator(size_index, chunk); each word is compared once with
    each degree of the needles."""
    degrees = set().union(*(needle.tolist() for needle in needles))
    rng = seed.generator(size_index, chunk)
    rows = []
    for _ in range(min(length, replicates - chunk * length)):
        word = excursion_degrees(multiset, rng)
        masks = _degree_masks(word, degrees)
        rows.append([_count_occurrences(word, needle, masks) for needle in needles])
    return rows


def collect_counts(
    stat: DegreeStatistic,
    patterns,
    replicates: int,
    seed: Seed,
    size_index: int = 0,
) -> np.ndarray:
    """(replicates x len(patterns)) matrix of fringe counts.

    The replicates are cut into chunks of max(1, 2**17 // n), n the
    profile size, the last one possibly short.  Chunk c draws its
    replicates in turn from seed.generator(size_index, c), so replicate 0
    is the first draw of seed.generator(size_index, 0).  The chunks run serially, or
    whole chunks are spread over the FRINGELAB_THREADS workers when there
    are at least two per worker.  The chunk boundaries depend on n alone,
    so any worker split agrees.  A negative count raises ValueError."""
    replicates = as_integer(replicates)
    if replicates < 0:
        raise ValueError(f"replicates = {replicates} must be at least 0")
    multiset = stat.degree_multiset()
    length = max(1, _CHUNK_ENTRIES // multiset.size)
    chunks = range(-(-replicates // length))
    workers = max(1, int(os.environ.get("FRINGELAB_THREADS", "1")))
    needles = [np.array(p.degrees, dtype=np.int64) for p in patterns]
    count = partial(_count_chunk, multiset, needles, seed, size_index, replicates, length)
    if workers > 1 and len(chunks) >= 2 * workers:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(count, chunks, chunksize=-(-len(chunks) // workers)))
    else:
        parts = list(map(count, chunks))
    rows = [row for part in parts for row in part]
    return np.array(rows, dtype=np.int64).reshape(replicates, len(needles))


# ---------------------------------------------------------------------------
# Statistics helpers (exact aggregation)


def _empirical_moments(counts: np.ndarray) -> dict:
    """Exact sample mean/variance/covariance from the integer power sums
    s_k = sum x^k of each column (and s12 = sum x*y of each pair); the
    variances are the diagonal of the covariance matrix, and the fourth
    central moment behind se_var is exact too, as
    R^4 m4 = R^3 s4 - 4 R^2 s1 s3 + 6 R s1^2 s2 - 3 s1^4."""
    reps, m = counts.shape
    cols = [[int(x) for x in counts[:, j]] for j in range(m)]
    sums = []  # (s1, s2, s3, s4) of each column
    for col in cols:
        squares = [x * x for x in col]
        s3 = sum(x * q for x, q in zip(col, squares))
        sums.append((sum(col), sum(squares), s3, sum(q * q for q in squares)))

    def covariance(j, k):
        s12 = sums[j][1] if j == k else sum(a * b for a, b in zip(cols[j], cols[k]))
        return Fraction(reps * s12 - sums[j][0] * sums[k][0], reps * (reps - 1))

    cov = _symmetric(m, covariance)
    out = {"mean": [], "var": [], "se_mean": [], "se_var": [], "cov": cov}
    for j, (s1, s2, s3, s4) in enumerate(sums):
        var = cov[j][j]
        out["mean"].append(Fraction(s1, reps))
        out["var"].append(var)
        out["se_mean"].append(math.sqrt(float(var) / reps))
        m4 = Fraction(
            reps**3 * s4 - 4 * reps**2 * s1 * s3 + 6 * reps * s1 * s1 * s2 - 3 * s1**4,
            reps**4,
        )
        out["se_var"].append(math.sqrt(max(float(m4 - var * var), 0.0) / reps))
    return out


def normality_test(samples, threshold: float = DEFAULT_KS_THRESHOLD):
    """Kolmogorov-Smirnov distance of the studentized samples to the
    standard normal; returns (distance, verdict)."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < _KS_MIN_SAMPLES:
        raise TooFewSamples(f"need >= {_KS_MIN_SAMPLES} samples, got {samples.size}")
    spread = samples.std(ddof=1)
    if spread == 0:
        return 0.5, False
    z = (samples - samples.mean()) / spread
    distance = float(scistats.kstest(z, "norm").statistic)
    return distance, distance < threshold


# ---------------------------------------------------------------------------
# The main experiment


@dataclass(frozen=True)
class _References:
    """The exact references of ``patterns`` at one profile of size ``n``:
    exact means and variances, plug-in means, and the covariance densities
    ``gamma[j][k]`` under the profile's empirical law p_n."""

    n: int
    patterns: list
    means: list
    variances: list
    plugin: list
    gamma: list


def _references(stat: DegreeStatistic, patterns) -> _References:
    pn = OffspringDistribution.finite(stat.empirical_distribution())
    patterns = list(patterns)
    return _References(
        n=stat.size,
        patterns=patterns,
        means=[mean_count(stat, p) for p in patterns],
        variances=[exact_covariance(stat, p, p) for p in patterns],
        plugin=[plugin_mean(stat, p) for p in patterns],
        gamma=_symmetric(
            len(patterns), lambda j, k: fringe_covariance_density(pn, patterns[j], patterns[k])
        ),
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport(config=cfg.to_dict())
    for size_index, size in enumerate(cfg.sizes):
        stat = cfg.family.statistic(size)
        ref = _references(stat, cfg.patterns)
        counts = collect_counts(stat, ref.patterns, cfg.replicates, cfg.seed, size_index)
        emp = _empirical_moments(counts)
        # standardized counts: count minus the exact mean, over sqrt(n)
        columns = zip(counts.T.astype(float), ref.means)
        samples = [(column - float(mean)) / math.sqrt(ref.n) for column, mean in columns]
        report.samples += [(ref.n, t.to_text(), z) for t, z in zip(ref.patterns, samples)]
        entry = {
            "size": ref.n,
            "replicates": cfg.replicates,
            "patterns": [p.to_text() for p in ref.patterns],
            "empirical_mean": [float(x) for x in emp["mean"]],
            "empirical_var": [float(x) for x in emp["var"]],
            "se_mean": emp["se_mean"],
            "se_var": emp["se_var"],
            "exact_mean": [float(x) for x in ref.means],
            "exact_var": [float(x) for x in ref.variances],
            "plugin_mean": [float(x) for x in ref.plugin],
            "asymptotic_var": [float(ref.n * row[j]) for j, row in enumerate(ref.gamma)],
        }
        if "moments" in cfg.tests:
            _moment_verdicts(report, cfg, entry, emp, ref)
        if "normality" in cfg.tests:
            _normality_verdicts(report, entry, samples, ref)
        report.per_size.append(entry)
    return report


def _verdict(check, n, pattern, observed, tolerance, passed=None) -> dict:
    """One verdict record; it passes when ``observed <= tolerance`` unless
    ``passed`` says otherwise."""
    passed = observed <= tolerance if passed is None else passed
    return dict(
        check=check, size=n, pattern=pattern, observed=observed, tolerance=tolerance, passed=passed
    )


def _correlation(cov, j, k) -> float:
    """cov[j][k] / sqrt(cov[j][j] cov[k][k]) as a float, 0.0 where either
    variance is 0."""
    denom = float(cov[j][j] * cov[k][k])
    return float(cov[j][k]) / math.sqrt(denom) if denom > 0 else 0.0


def _moment_verdicts(report, cfg, entry, emp, ref: _References):
    n, patterns = ref.n, ref.patterns
    for j, pattern in enumerate(patterns):
        se_var, density = emp["se_var"][j], float(ref.gamma[j][j])
        # the density check takes the looser of the relative tolerance and 4
        # MC standard errors: the density can be tiny, and short runs carry
        # real sampling noise
        for check, observed, tolerance in (
            (
                "empirical mean within 4 SE of exact mean",
                abs(float(emp["mean"][j] - ref.means[j])),
                4 * emp["se_mean"][j] + 1e-12,
            ),
            (
                "empirical variance within max(4 SE, rel tol) of exact",
                abs(float(emp["var"][j] - ref.variances[j])),
                max(4 * se_var, DEFAULT_VAR_REL_TOL * float(ref.variances[j])),
            ),
            (
                "empirical variance per vertex near covariance density",
                abs(float(emp["var"][j]) / n - density),
                max(DEFAULT_VAR_REL_TOL * max(density, 1e-12), 4 * se_var / n),
            ),
        ):
            report.verdicts.append(_verdict(check, n, pattern.to_text(), observed, tolerance))
    for j in range(len(patterns)):
        for k in range(j + 1, len(patterns)):
            rho_pred, rho_emp = _correlation(ref.gamma, j, k), _correlation(emp["cov"], j, k)
            se = (1 - rho_pred**2) / math.sqrt(cfg.replicates) + 1e-12
            pair = [patterns[j].to_text(), patterns[k].to_text()]
            entry.setdefault("correlation", []).append(
                {"pair": pair, "empirical": rho_emp, "predicted": rho_pred}
            )
            check = "empirical correlation within 3 SE of prediction"
            report.verdicts.append(
                _verdict(check, n, " vs ".join(pair), abs(rho_emp - rho_pred), 3 * se)
            )


def _normality_verdicts(report, entry, samples, ref: _References):
    entry["ks"] = []
    for pattern, z in zip(ref.patterns, samples):
        if z.std(ddof=1) == 0:
            entry["ks"].append(None)
            continue
        distance, ok = normality_test(z, DEFAULT_KS_THRESHOLD)
        entry["ks"].append(distance)
        check = f"KS distance of standardized count below {DEFAULT_KS_THRESHOLD}"
        # strict: normality_test passes distance < threshold
        report.verdicts.append(_verdict(check, ref.n, pattern.to_text(), distance, DEFAULT_KS_THRESHOLD, ok))


# ---------------------------------------------------------------------------
# Exact scans


def _log_int(x: int) -> float:
    if x <= 0:
        raise ValueError("log of nonpositive integer")
    if x < 2**53:
        return math.log(x)
    shift = x.bit_length() - 53
    return math.log(x >> shift) + shift * math.log(2)


def _log_fraction(fr: Fraction) -> float:
    return _log_int(fr.numerator) - _log_int(fr.denominator)


def moment_condition_scan(
    family: StatFamily, pattern: PlaneTree, sizes, c: float = 1.0
) -> list:
    """Check the quadratic-exponent form of high factorial moments.

    For q up to c * mu / sqrt(n), the exact E[(N)_q] should track
    mu^q * exp(((gamma n - mu) / (2 mu^2)) q^2); the report records the
    worst |log LHS - log RHS| per size, which should shrink as sizes grow.
    c must be finite and at least 0.
    """
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"c = {c} must be finite and at least 0")
    results = []
    for size in sizes:
        stat = family.statistic(size)
        ref = _references(stat, [pattern])
        n, mu, gamma = ref.n, ref.plugin[0], ref.gamma[0][0]
        if mu <= 0:
            raise SizeTooSmall(f"pattern has zero plug-in mean at size {n}")
        coeff = float((gamma * n - mu) / (2 * mu * mu))
        log_mu = _log_fraction(mu)
        q_max = int(c * float(mu) / math.sqrt(n))
        deviations = []
        for q in range(q_max + 1):
            lhs = factorial_moment(stat, pattern, q)
            if lhs <= 0:
                deviations.append(math.inf)
                continue
            log_lhs = _log_fraction(lhs)
            log_rhs = q * log_mu + coeff * q * q
            deviations.append(abs(log_lhs - log_rhs))
        results.append(
            {
                "size": n,
                "q_max": q_max,
                "max_deviation": max(deviations),
                "deviations": deviations,
            }
        )
    return results


def moment_gap_scan(family: StatFamily, pattern: PlaneTree, sizes) -> dict:
    """Exact finite-size gaps |E N - plug-in mean| and |Var N - n * gamma|
    across a size sweep; both stay bounded."""
    rows = []
    for size in sizes:
        ref = _references(family.statistic(size), [pattern])
        mean_gap = abs(ref.means[0] - ref.plugin[0])
        var_gap = abs(ref.variances[0] - ref.n * ref.gamma[0][0])
        rows.append({"size": ref.n, "mean_gap": float(mean_gap), "var_gap": float(var_gap)})
    return {
        "pattern": pattern.to_text(),
        "family": family.label(),
        "rows": rows,
        "sup_mean_gap": max(r["mean_gap"] for r in rows),
        "sup_var_gap": max(r["var_gap"] for r in rows),
    }


# ---------------------------------------------------------------------------
# Hub-tree crosscheck


def _hub_law(n0: int, n1: int) -> list:
    """Entry k counts the trees with profile {0: n0, 1: n1, n0: 1} and k
    copies of ``1,0``, C(n0, k) C(n1, k): a tree is a weak composition of n1
    into the trunk and the n0 legs of the hub, and a copy is a nonempty leg."""
    return [math.comb(n0, k) * math.comb(n1, k) for k in range(min(n0, n1) + 1)]


def composition_crosscheck(n0: int, n1: int, reps: int, seed: Seed) -> dict:
    """Tally N_{1,0} in ``reps`` bridge-rotation trees with profile
    {0: n0, 1: n1, n0: 1} and test the tally against the exact
    hypergeometric law of ``_hub_law`` at every size: ``exact_p_uniform``
    is a chi-square whose lowest cell merges into the next while it expects
    fewer than 5 draws, then likewise at the top.  With one cell left, p is
    1.0 if every draw lies in the support, else 0.0.  ``passed`` when p
    exceeds 1e-3."""
    for name, value, low in (("n0", n0, 2), ("n1", n1, 0), ("reps", reps, 1)):
        if as_integer(value) < low:
            raise ValueError(f"{name} = {value} must be at least {low}")
    pattern = PlaneTree((1, 0))
    stat = DegreeStatistic.from_counts({0: n0, 1: n1, n0: 1})
    trees = sample_uniform_trees(stat, reps, seed.generator(1))
    tally = Counter(count_fringe(tree, pattern) for tree in trees)
    total = math.comb(n0 + n1, n0)
    law = [v / total for v in _hub_law(n0, n1)]
    result = {"n0": n0, "n1": n1, "reps": reps, "support": sorted(tally)}
    result["exact_support"] = list(range(len(law)))
    cells = [[tally[k], p * reps] for k, p in enumerate(law)]
    for end in (0, -1):
        while len(cells) > 1 and cells[end][1] < 5:
            obs, exp = cells.pop(end)
            cells[end] = [cells[end][0] + obs, cells[end][1] + exp]
    obs, exp = zip(*cells)
    if len(cells) == 1 or sum(obs) < reps:
        result["exact_p_uniform"] = float(sum(obs) == reps)
    else:
        result["exact_p_uniform"] = float(scistats.chisquare(obs, exp).pvalue)
    result["passed"] = result["exact_p_uniform"] > 1e-3
    return result
