"""fringelab benchmark: one seeded workload per invocation, closed loop.

    python3 perfbench/run.py --workload desk_clt --seed 1 --seconds 15 --trace 0

Runs ops of the named workload back to back (each waits for the one
before it) until their summed wall time reaches ``--seconds``, checks every
op's output, prints one line per metric and, as the last line, a JSON
object {"correct", "attempted", "failed", "metrics"}.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the first half of
the time runs untraced and the second half traced, and the metrics are the
per-layer ones (see tracing.py).  ``--workload all`` runs every workload
in turn and prints a summary.  The exit code is non-zero when an op fails
its check or raises.

The library is imported from ``src/`` of the checkout this file sits in,
single-threaded (FRINGELAB_THREADS=1, one BLAS thread).
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_ENV = {
    "FRINGELAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# the held-back confirmation seed is recorded in README.md
DEFAULT_SEED = 20231207
DEFAULT_SECONDS = 22
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"work_per_s": "work/s", "setup_s": "s", "peak_rss_mb": "MB"}

FIELD_UNITS = {
    "calls": "calls/op", "self_s": "s/op", "bytes_shuffled": "B/op",
    "trees": "trees/op", "rows_drawn": "rows/op", "accept_ratio": "ratio",
    "draws": "draws/op", "windows": "windows/op",
    "cache_hits": "hits/op", "cache_misses": "misses/op",
}
LAYER_FIELDS = (
    ("sampling.excursion_degrees", ("calls", "self_s", "bytes_shuffled")),
    ("sampling.Seed.generator", ("calls", "self_s")),
    ("sampling.sample_uniform_trees", ("calls", "self_s", "trees")),
    ("tree_core._unchecked_tree", ("calls", "self_s")),
    ("sampling.sample_conditioned_gw", ("calls", "self_s", "rows_drawn", "accept_ratio")),
    ("distributions.sample_offspring", ("calls", "self_s", "draws")),
    ("mc_harness.collect_counts", ("calls", "self_s")),
    ("mc_harness._count_occurrences", ("calls", "self_s", "windows")),
    ("mc_harness._empirical_moments", ("calls", "self_s")),
    ("mc_harness.normality_test", ("calls", "self_s")),
    ("mc_harness.run_experiment", ("calls", "self_s")),
    ("exact_moments.mean_count", ("calls", "self_s")),
    ("exact_moments.factorial_moment", ("calls", "self_s")),
    ("exact_moments.product_moment", ("calls", "self_s")),
    ("exact_moments.joint_factorial_moment", ("calls", "self_s")),
    ("exact_moments.degree_factorial_moment", ("calls", "self_s")),
    ("exact_moments.partial_sum_pmf", ("calls", "self_s")),
    ("exact_moments.partial_sum", ("cache_hits", "cache_misses")),
    ("asymptotics.fringe_covariance_density", ("calls", "self_s")),
    ("asymptotics.plugin_mean", ("calls", "self_s")),
    ("asymptotics.equivalent_offspring", ("calls", "self_s")),
    ("asymptotics.sg_fringe_covariance", ("calls", "self_s")),
    ("asymptotics.sg_degree_covariance", ("calls", "self_s")),
    ("asymptotics.additive_variance_forms", ("calls", "self_s")),
    ("asymptotics.equivalent_offspring", ("cache_hits", "cache_misses")),
)
# per-layer metric name -> unit; values are per traced op unless the unit
# says otherwise
PER_LAYER_UNITS = {
    f"{name}.{field}": FIELD_UNITS[field] for name, fields in LAYER_FIELDS for field in fields
}
PER_LAYER_UNITS.update({
    "mc_harness.verdicts_failed": "count/op",
    "unattributed_s": "s",
    "trace.untraced_work_per_s": "work/s",
    "trace.traced_work_per_s": "work/s",
    "trace.overhead_pct": "%",
})


def _load_library():
    if not (SRC / "fringelab" / "__init__.py").is_file():
        raise SystemExit(f"fringelab sources not found under {SRC}")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import workloads

    return workloads


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, env=git_env, timeout=10,
                                  capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "threads_env": THREAD_ENV,
    }


def measure_setup(workload: str, seed: int) -> list:
    """Wall time of fresh interpreters that import fringelab and build the
    workload's inputs, SETUP_PROBES times."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def run_ops(workload, seconds, first_index=0, tracer=None, max_ops=None) -> list:
    """Closed loop of ops until their summed time reaches ``seconds``.
    Each record: index, seconds, work, and the error (type: message) if the
    op raised or failed its check."""
    records = []
    busy = 0.0
    index = first_index
    while busy < seconds and (max_ops is None or len(records) < max_ops):
        span = tracer.open_op(index) if tracer else None
        error = None
        start = time.perf_counter()
        try:
            output, work = workload.op(index)
        except Exception as exc:  # the loop must go on; the op counts as failed
            elapsed = time.perf_counter() - start
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        else:
            elapsed = time.perf_counter() - start
        if tracer:
            tracer.close_op(span)
        if error is None:
            try:
                failures = workload.check(index, output)
            except Exception as exc:
                failures = [f"check raised {type(exc).__name__}: {exc}"]
                traceback.print_exc(file=sys.stderr)
            if failures:
                error = "CheckFailed: " + "; ".join(failures)
        records.append({"index": index, "seconds": elapsed,
                        "work": 0 if error else work, "error": error})
        busy += elapsed
        index += 1
    return records


def work_rate(records) -> float:
    return sum(r["work"] for r in records) / sum(r["seconds"] for r in records)


def run_untraced(workload, seconds):
    """Ops for ``seconds`` plus the peak resident set after the first op:
    import, inputs and one op, as a one-shot CLI user pays it.  Later ops
    would add the lru_cache growth of however many ops fit in the run."""
    records = run_ops(workload, seconds, max_ops=1)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records += run_ops(workload, seconds - records[0]["seconds"], first_index=1)
    return records, peak_mb


def end_to_end(records, setup_times, peak_mb) -> dict:
    return {
        "work_per_s": work_rate(records),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_mb,
    }


def per_layer(summary, cache_delta, ops, untraced, traced) -> dict:
    from perfbench import tracing

    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name, entry in summary.items():
        if name == "unattributed_s":
            continue
        for field, value in entry.items():
            key = f"{name}.{field}"
            if key in metrics:
                metrics[key] = value / ops
    gw = summary.get("sampling.sample_conditioned_gw", {})
    if gw.get("rows_drawn"):
        metrics["sampling.sample_conditioned_gw.accept_ratio"] = gw["trees"] / gw["rows_drawn"]
    metrics["mc_harness.verdicts_failed"] = (
        summary.get("mc_harness.run_experiment", {}).get("verdicts_failed", 0) / ops
    )
    for prefix, _, _ in tracing.CACHES:
        if cache_delta.get(prefix):
            metrics[f"{prefix}.cache_hits"] = cache_delta[prefix][0] / ops
            metrics[f"{prefix}.cache_misses"] = cache_delta[prefix][1] / ops
    metrics["unattributed_s"] = statistics.median(summary["unattributed_s"])
    metrics["trace.untraced_work_per_s"] = untraced
    metrics["trace.traced_work_per_s"] = traced
    metrics["trace.overhead_pct"] = 100.0 * (untraced / traced - 1.0)
    return metrics


def run_traced(workload, seconds):
    from perfbench import tracing

    plain = run_ops(workload, seconds / 2)
    tracer = tracing.Tracer()
    before = tracing.cache_snapshot()
    restore, absent = tracing.install(tracer)
    try:
        traced = run_ops(workload, seconds / 2, first_index=len(plain), tracer=tracer)
    finally:
        restore()
    after = tracing.cache_snapshot()
    delta = {
        k: (after[k][0] - before[k][0], after[k][1] - before[k][1])
        for k in before if before[k] is not None and after[k] is not None
    }
    absent += [k for k in before if before[k] is None or after[k] is None]
    summary = tracing.summarize(tracer.spans)
    metrics = per_layer(summary, delta, len(traced), work_rate(plain), work_rate(traced))
    extra = {
        "absent": absent,
        "unattributed_s_per_op": summary["unattributed_s"],
        "spans": len(tracer.spans),
        "traced_ops": len(traced),
    }
    return plain + traced, metrics, extra, tracer.spans


def _write(path: Path, payload, compress=False) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(payload, default=str).encode()
    if compress:
        with gzip.open(path, "wb") as fh:
            fh.write(data)
    else:
        path.write_bytes(data)


def run_one(args, workloads) -> int:
    # setup_s is an end-to-end metric; the traced run does not report it
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload]()
    workload.build(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = {}
    if args.trace:
        records, metrics, extra, spans = run_traced(workload, args.seconds)
        units = PER_LAYER_UNITS
        _write(OUT / f"spans-{tag}.json.gz", {
            "fields": ["name", "start", "end", "parent", "op", "counts"],
            "spans": spans,
        }, compress=True)
    else:
        records, peak_mb = run_untraced(workload, args.seconds)
        metrics = end_to_end(records, setup_times, peak_mb)
        units = END_TO_END_UNITS
    failed = [r for r in records if r["error"]]
    error_types = {}
    for r in failed:
        kind = r["error"].split(":", 1)[0]
        error_types[kind] = error_types.get(kind, 0) + 1
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": workload.why,
        "work_unit": workload.unit,
        "moves": workload.moves,
        "unmoved": workload.unmoved,
        "ops": len(records),
        "op_p50_s": statistics.median(r["seconds"] for r in records),
        "error_rate": len(failed) / len(records),
        "error_types": error_types,
        "errors": [r["error"] for r in failed][:20],
        "setup_probe_s": setup_times,
        "op_seconds": [r["seconds"] for r in records],
        "outcomes": workload.info,
        "env": environment(),
        **extra,
    }
    _write(OUT / f"result-{tag}.json", {"detail": detail, "metrics": metrics})
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} op_p50_s = {detail['op_p50_s']:.6g} s "
          f"(median of {len(records)} ops, not gated)")
    print(f"{args.workload} error_rate = {detail['error_rate']:.6g} "
          f"({len(failed)} of {len(records)} ops failed)")
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if failed else 0


def run_all(args, workloads) -> int:
    """Every workload in its own interpreter, then one merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print("\n".join(line for line in lines[:-2]))
        merged["correct"] &= result["correct"] and done.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)  # before numpy loads; probes inherit it
    workloads = _load_library()
    if args.workload == "all":
        return run_all(args, workloads)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.setup_probe:
        workloads.WORKLOADS[args.workload]().build(args.seed)
        return 0
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
