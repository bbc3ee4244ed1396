"""The five benchmark workloads, each a closed loop of ops on fringelab.

Every input is derived from the workload seed.  An op is one call into the
public library, timed on its own; ``check`` then verifies the op's output
outside the timed region with properties that hold for any seed and any
correct implementation.  A check returns a list of failure messages (empty
when the output is correct); statistical outcomes (KS distances,
chi-square p-values, experiment verdicts) go to ``info`` and never count
as failures.

Library functions are called through their modules (``sampling.f``, not a
name imported from it), so the traced run sees every call.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy import stats as scistats

from fringelab import asymptotics, exact_moments, mc_harness, sampling, tree_core
from fringelab.distributions import OffspringDistribution, WeightSequence
from fringelab.errors import FringelabError

CHERRY = tree_core.PlaneTree.from_text("2,0,0")
T5 = tree_core.PlaneTree.from_text("2,2,0,0,0")

# Seed-independent report fields of a full_binary experiment on the two
# patterns (CHERRY, T5): the exact rationals of the library rounded to
# float.  The means agree with the closed forms
# E N_T = |n| (n0)_a (n2)_b / (|n|)_|T| and |n| (n0/|n|)^a (n2/|n|)^b for a
# pattern with a leaves and b binary vertices.
PINNED = {
    101: {
        "exact_mean": [12.878787878787879, 3.252889721961887],
        "exact_var": [3.15431730614486, 2.2237171313571475],
        "plugin_mean": [12.748750122537006, 3.1868750918997515],
        "asymptotic_var": [3.1874937824631178, 2.191014136013421],
    },
    1001: {
        "exact_mean": [125.37537537537537, 31.375282002162646],
        "exact_var": [31.281061936090083, 21.558699288299024],
        "plugin_mean": [125.24987500012475, 31.312437500093562],
        "asymptotic_var": [31.312499937531374, 21.52730467194915],
    },
    10001: {
        "exact_mean": [1250.3750375037503, 312.62502813250217],
        "exact_var": [312.5312312443736, 214.91797929757738],
        "plugin_mean": [1250.2499875, 312.5624937500001],
        "asymptotic_var": [312.562499999375, 214.88671484359384],
    },
    1000001: {
        "exact_mean": [125000.375000375, 31250.125000281252],
        "exact_var": [31250.0312498125, 21484.44921885547],
        "plugin_mean": [125000.249999875, 31250.0624999375],
        "asymptotic_var": [31250.0625, 21484.41796871094],
    },
}

# The five acceptance-3 profiles (sizes 5-7, 2 to 14 tree classes each).
SMALL_PROFILES = (
    {0: 3, 2: 2},
    {0: 2, 1: 2, 2: 1},
    {0: 3, 1: 1, 2: 2},
    {0: 2, 1: 3, 2: 1},
    {0: 4, 2: 3},
)

# Small plane trees a seeded toll function is drawn over.
TOLL_TREES = tuple(
    tree_core.PlaneTree.from_text(t)
    for t in ("0", "1,0", "2,0,0", "1,1,0", "3,0,0,0", "2,1,0,0", "2,2,0,0,0")
)


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


class Workload:
    """Base: ``build`` prepares the inputs from the seed, ``op`` runs one
    timed op and returns (output, work units), ``check`` lists failures."""

    name = ""
    unit = ""
    why = ""
    moves = ()
    unmoved = ()

    def build(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.info = {}
        self._drawn = []

    def inputs(self, index: int):
        """The inputs of op ``index``, drawn from the seed in op order."""
        while len(self._drawn) <= index:
            self._drawn.append(self.draw(len(self._drawn)))
        return self._drawn[index]

    def draw(self, index: int):
        raise NotImplementedError

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> list:
        raise NotImplementedError


class _Experiment(Workload):
    """One ``run_experiment`` per op on full_binary with CHERRY and T5."""

    unit = "replicates"

    def __init__(self, size, replicates, tests, pinned=None):
        self.size = size
        self.replicates = replicates
        self.tests = tests
        self.pinned = PINNED[size] if pinned is None else pinned

    def build(self, seed):
        super().build(seed)
        self.family = mc_harness.StatFamily.full_binary()
        self.stat = self.family.statistic(self.size)

    def draw(self, index):
        return sampling.Seed(_draw_seed(self.rng), 4)

    def op(self, index):
        cfg = mc_harness.ExperimentConfig(
            family=self.family,
            patterns=(CHERRY, T5),
            sizes=(self.size,),
            replicates=self.replicates,
            seed=self.inputs(index),
            tests=self.tests,
        )
        return mc_harness.run_experiment(cfg), self.replicates

    def check(self, index, report):
        failures = []
        entry = report.per_size[0]
        for key, expected in self.pinned.items():
            if entry[key] != expected:
                failures.append(f"{key} {entry[key]} != pinned {expected}")
        if entry["size"] != self.stat.size or entry["replicates"] != self.replicates:
            failures.append("report size or replicate count differs from the config")
        failed = sum(1 for v in report.verdicts if not v["passed"])
        self.info.setdefault("verdicts_failed", []).append(failed)
        if "ks" in entry:
            self.info.setdefault("ks", []).append(entry["ks"])
        if index == 0:
            failures += self._replicate_rerun(self.inputs(index))
        return failures

    def _replicate_rerun(self, seed):
        """Replicate 0 re-run twice through the harness, and once through
        the sampler with the independent plain-Python fringe counter."""
        first = mc_harness.collect_counts(self.stat, [CHERRY, T5], 1, seed)
        second = mc_harness.collect_counts(self.stat, [CHERRY, T5], 1, seed)
        multiset = np.array(self.stat.degree_multiset(), dtype=np.int64)
        word = sampling.excursion_degrees(multiset, seed.generator(0, 0))
        tree = tree_core.PlaneTree(tuple(word.tolist()))
        direct = [tree_core.count_fringe(tree, p) for p in (CHERRY, T5)]
        if first.tolist() != second.tolist() or first.tolist() != [direct]:
            return [f"replicate 0 counts differ: {first.tolist()} {second.tolist()} {direct}"]
        return []


class DeskClt(_Experiment):
    name = "desk_clt"
    why = ("the paper's headline experiment at mid n (acceptance-4 config): "
           "sampling, counting, exact references and KS per replicate batch")
    moves = ("sampling.Seed.generator", "sampling.excursion_degrees",
             "mc_harness._count_occurrences", "mc_harness._empirical_moments",
             "mc_harness.normality_test")
    unmoved = ("distributions.sample_offspring", "exact_moments.partial_sum_pmf")

    def __init__(self, size=10_001, replicates=2_000, pinned=None):
        super().__init__(size, replicates, ("moments", "normality"), pinned)


class LargeN(_Experiment):
    name = "large_n"
    why = ("one tree of a million vertices per replicate: the shuffle and the "
           "counter dominate and memory scales with n")
    moves = ("sampling.excursion_degrees", "mc_harness._count_occurrences",
             "mc_harness.collect_counts")
    unmoved = ("sampling.Seed.generator", "mc_harness.normality_test",
               "exact_moments.partial_sum_pmf")

    def __init__(self, size=1_000_001, replicates=20, pinned=None):
        super().__init__(size, replicates, ("moments",), pinned)


class SmallTrees(Workload):
    name = "small_trees"
    unit = "trees"
    why = ("10 000 uniform trees of 5-7 vertices per op: per-call overhead of "
           "the sampler dominates")
    moves = ("sampling.sample_uniform_trees", "sampling.excursion_degrees",
             "tree_core._unchecked_tree")
    unmoved = ("mc_harness._count_occurrences", "exact_moments.partial_sum_pmf")

    def __init__(self, reps=10_000):
        self.reps = reps

    def build(self, seed):
        super().build(seed)
        self.stats = [tree_core.DegreeStatistic.from_counts(c) for c in SMALL_PROFILES]
        self.classes = [tree_core.count_trees(s) for s in self.stats]
        self.offset = self.rng.randrange(len(self.stats))

    def draw(self, index):
        which = (index + self.offset) % len(self.stats)
        return which, sampling.Seed(_draw_seed(self.rng), index)

    def op(self, index):
        which, seed = self.inputs(index)
        trees = sampling.sample_uniform_trees(self.stats[which], self.reps, seed)
        return Counter(t.degrees for t in trees), self.reps

    def check(self, index, tally):
        which, _ = self.inputs(index)
        stat = self.stats[which]
        failures = []
        for word in tally:
            try:
                tree = tree_core.PlaneTree(tuple(word))
            except FringelabError as exc:
                failures.append(f"invalid preorder word {word}: {exc}")
                continue
            if tree_core.degree_statistic(tree) != stat:
                failures.append(f"word {word} has the wrong degree counts")
        if sum(tally.values()) != self.reps:
            failures.append(f"tally holds {sum(tally.values())} trees, not {self.reps}")
        if len(tally) != self.classes[which]:
            failures.append(f"{len(tally)} of {self.classes[which]} tree classes drawn")
        if not failures:
            expected = [self.reps / len(tally)] * len(tally)
            self.info.setdefault("chi2_p", []).append(
                float(scistats.chisquare(list(tally.values()), expected).pvalue)
            )
        return failures


class GwTrees(Workload):
    name = "gw_trees"
    unit = "trees"
    why = ("size-conditioned geometric(1/2) trees by rejection: the only "
           "workload through distributions.sample_offspring")
    moves = ("sampling.sample_conditioned_gw", "distributions.sample_offspring")
    unmoved = ("mc_harness._count_occurrences", "exact_moments.partial_sum_pmf")

    def __init__(self, n=1_000, trees=5):
        self.n = n
        self.trees = trees

    def build(self, seed):
        super().build(seed)
        self.law = OffspringDistribution.geometric(Fraction(1, 2))

    def draw(self, index):
        value = _draw_seed(self.rng)
        return [sampling.Seed(value, k) for k in range(self.trees)]

    def op(self, index):
        out = [sampling.sample_conditioned_gw(self.law, self.n, s) for s in self.inputs(index)]
        return out, len(out)

    def check(self, index, trees):
        failures = []
        if len(trees) != self.trees:
            failures.append(f"{len(trees)} trees, not {self.trees}")
        for tree in trees:
            if tree.size != self.n:
                failures.append(f"tree of size {tree.size}, not {self.n}")
                continue
            try:
                tree_core.PlaneTree(tree.degrees)
            except FringelabError as exc:
                failures.append(f"invalid tree: {exc}")
        return failures


class ExactLadder(Workload):
    name = "exact_ladder"
    unit = "laws"
    why = ("a fresh seeded rational law per op, so the exact caches start cold: "
           "degree moments over n = 25..200, joint moments and limit covariances")
    moves = ("exact_moments.degree_factorial_moment", "exact_moments.partial_sum_pmf",
             "exact_moments.joint_factorial_moment", "asymptotics.equivalent_offspring")
    unmoved = ("sampling.excursion_degrees", "distributions.sample_offspring")

    def __init__(
        self,
        sizes=tuple(range(25, 201, 25)),
        q_ladder=tuple((q, q // 2) for q in range(10, 61, 10)),
        stat_size=10_001,
    ):
        self.sizes = sizes
        self.q_ladder = q_ladder
        self.stat_size = stat_size

    def build(self, seed):
        super().build(seed)
        self.stat = mc_harness.StatFamily.full_binary().statistic(self.stat_size)

    def draw(self, index):
        """Numerators a_0..a_3 >= 1 over 64 (full support, so every size is
        feasible), a toll on TOLL_TREES and a q for the joint-moment check."""
        cuts = sorted(self.rng.sample(range(1, 64), 3))
        numerators = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], 64 - cuts[2]]
        tolls = {t: self.rng.choice((-3, -2, -1, 1, 2, 3)) for t in TOLL_TREES}
        q = self.rng.randrange(1, self.q_ladder[-1][0] + 1)
        return numerators, tolls, q

    def op(self, index):
        numerators, tolls, _ = self.inputs(index)
        probs = {i: Fraction(a, 64) for i, a in enumerate(numerators)}
        p = OffspringDistribution.finite(probs)
        w = WeightSequence.finite(probs)
        degree_moments = {}
        for n in self.sizes:
            singles = [exact_moments.degree_factorial_moment(p, n, {i: 1}) for i in probs]
            mixed = exact_moments.degree_factorial_moment(p, n, {0: 2, 2: 1})
            degree_moments[n] = (singles, mixed)
        joint = [
            exact_moments.joint_factorial_moment(self.stat, [CHERRY, T5], q)
            for q in self.q_ladder
        ]
        fringe_cov = asymptotics.sg_fringe_covariance(w, [CHERRY, T5])
        degree_cov = asymptotics.sg_degree_covariance(w, 3)
        forms = asymptotics.additive_variance_forms(
            p, asymptotics.TollFunction.from_dict(tolls)
        )
        return (degree_moments, joint, fringe_cov, degree_cov, forms), 1

    def check(self, index, output):
        degree_moments, joint, _, _, forms = output
        _, _, q = self.inputs(index)
        failures = []
        for n, (singles, mixed) in degree_moments.items():
            if not all(isinstance(x, Fraction) for x in singles + [mixed]):
                failures.append(f"n={n}: degree moments are not Fractions")
                continue
            if sum(singles) != n:
                failures.append(f"n={n}: sum_i E n(i) = {sum(singles)}")
            if sum(i * x for i, x in enumerate(singles)) != n - 1:
                failures.append(f"n={n}: sum_i i E n(i) != n - 1")
        if not all(isinstance(x, Fraction) for x in joint):
            failures.append("joint factorial moments are not Fractions")
        single = exact_moments.joint_factorial_moment(self.stat, [CHERRY], [q])
        if single != exact_moments.factorial_moment(self.stat, CHERRY, q):
            failures.append(f"joint_factorial_moment([T],[{q}]) != factorial_moment")
        if forms[0] != forms[1]:
            failures.append(f"additive variance forms differ: {forms}")
        return failures


WORKLOADS = {w.name: w for w in (DeskClt, SmallTrees, LargeN, GwTrees, ExactLadder)}
