"""Spans recorded around calls into fringelab, from outside the library.

The traced benchmark run replaces selected module-level functions of
``fringelab`` with thin wrappers that record a span (name, start, end,
parent span, op id, counts) per call.  Nothing under ``src/`` changes: the
wrapper is installed under every name that refers to the original object
in any loaded ``fringelab`` module, so ``mc_harness.excursion_degrees`` is
wrapped together with ``sampling.excursion_degrees``.  A target missing
from the library is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time


def _verdicts_failed(arg, report):
    if report is None:
        return {}
    return {"verdicts_failed": sum(1 for v in report.verdicts if not v["passed"])}


# (module, attribute path, counter).  A counter maps an argument getter
# (parameter name -> value) and the result (None when the call raised) to
# counts stored on the span.
TARGETS = (
    ("sampling", "excursion_degrees",
     lambda arg, r: {"bytes_shuffled": int(arg("multiset").nbytes)}),
    ("sampling", "Seed.generator", None),
    ("sampling", "sample_uniform_trees", lambda arg, r: {"trees": int(arg("reps"))}),
    ("tree_core", "_unchecked_tree", None),
    ("sampling", "sample_conditioned_gw",
     lambda arg, r: {"trees": int(r is not None), "n": int(arg("n"))}),
    ("distributions", "sample_offspring", lambda arg, r: {"draws": int(arg("size"))}),
    ("mc_harness", "collect_counts", None),
    ("mc_harness", "_count_occurrences",
     lambda arg, r: {"windows": max(0, arg("hay").size - arg("needle").size + 1)}),
    ("mc_harness", "_empirical_moments", None),
    ("mc_harness", "normality_test", None),
    ("mc_harness", "run_experiment", _verdicts_failed),
    ("exact_moments", "mean_count", None),
    ("exact_moments", "factorial_moment", None),
    ("exact_moments", "product_moment", None),
    ("exact_moments", "joint_factorial_moment", None),
    ("exact_moments", "degree_factorial_moment", None),
    ("exact_moments", "partial_sum_pmf", None),
    ("asymptotics", "fringe_covariance_density", None),
    ("asymptotics", "plugin_mean", None),
    ("asymptotics", "equivalent_offspring", None),
    ("asymptotics", "sg_fringe_covariance", None),
    ("asymptotics", "sg_degree_covariance", None),
    ("asymptotics", "additive_variance_forms", None),
)

# metric prefix -> (module, attribute) of an lru_cache'd function
CACHES = (
    ("exact_moments.partial_sum", "exact_moments", "_partial_sum_cached"),
    ("asymptotics.equivalent_offspring", "asymptotics", "equivalent_offspring"),
)


class Tracer:
    """In-memory span store.  Spans are recorded only while an op is open,
    so output checks run between ops leave no spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # each span: [name, start, end, parent index or None, op id, counts]
        self.spans = []
        self._stack = []
        self.op = None

    def begin(self, name, op=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, op, None])
        self._stack.append(index)
        return index

    def end(self, index, counts=None) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        span[5] = counts
        self._stack.pop()

    def open_op(self, op_id) -> int:
        self.op = op_id
        return self.begin("op", op_id)

    def close_op(self, index) -> None:
        self.end(index)
        self.op = None

    def wrap(self, name, fn, counter=None):
        positions = (
            {p: i for i, p in enumerate(inspect.signature(fn).parameters)}
            if counter else None
        )

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = self.begin(name, self.op)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                counts = None
                if counter is not None:
                    def arg(key):
                        i = positions[key]
                        return args[i] if i < len(args) else kwargs[key]

                    counts = counter(arg, result)
                self.end(index, counts)

        traced.__wrapped__ = fn
        return traced


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(tracer: Tracer):
    """Wrap every target; returns (restore callable, absent target names)."""
    patched = []
    absent = []
    for module_name, path, counter in TARGETS:
        name = f"{module_name}.{path}"
        try:
            module = importlib.import_module(f"fringelab.{module_name}")
            owner, attr, original = _resolve(module, path)
        except (ImportError, AttributeError):
            absent.append(name)
            continue
        wrapper = tracer.wrap(name, original, counter)
        if isinstance(owner, type):
            patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        holders = [
            m for key, m in list(sys.modules.items())
            if key == "fringelab" or key.startswith("fringelab.")
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    patched.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def restore():
        for holder, key, original in reversed(patched):
            setattr(holder, key, original)

    return restore, absent


def cache_snapshot() -> dict:
    """(hits, misses) per tracked cache; None when the cache is absent."""
    out = {}
    for prefix, module_name, attr in CACHES:
        try:
            module = importlib.import_module(f"fringelab.{module_name}")
            info = getattr(module, attr).cache_info()
            out[prefix] = (info.hits, info.misses)
        except (ImportError, AttributeError):
            out[prefix] = None
    return out


def _covered(start, end, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list:
    """Per span: duration minus the part its direct children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - _covered(span[1], span[2], children[i])
        for i, span in enumerate(spans)
    ]


def summarize(spans) -> dict:
    """name -> {"calls", "self_s", summed counts}; op spans give the
    per-op unattributed time under "unattributed_s" (a list)."""
    out = {}
    unattributed = []
    for span, own in zip(spans, self_times(spans)):
        if span[0] == "op":
            unattributed.append(own)
            continue
        entry = out.setdefault(span[0], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in (span[5] or {}).items():
            if key != "n":
                entry[key] = entry.get(key, 0) + value
    # rows drawn by the rejection sampler: offspring draws made below a
    # conditioned-GW span, in units of that span's size n
    for span in spans:
        if span[0] != "distributions.sample_offspring":
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] != "sampling.sample_conditioned_gw":
            parent = spans[parent][3]
        if parent is not None:
            gw = out["sampling.sample_conditioned_gw"]
            gw["rows_drawn"] = gw.get("rows_drawn", 0) + span[5]["draws"] / spans[parent][5]["n"]
    out["unattributed_s"] = unattributed
    return out
