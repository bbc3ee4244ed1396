"""Command-line surface: ``fringelab <subcommand>``.

Every run echoes its fully resolved configuration into the output (the
``config`` object of JSON results, or a leading ``#`` comment line in CSV),
so outputs are self-describing and reproducible.  Exact rationals are
serialized as "num/den" strings, infinities as "inf"/"-inf".  All
randomness flows from --seed/--stream.

Exit codes: 0 success, 1 validation/usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .asymptotics import (
    _symmetric,
    classify_exceptional,
    equivalent_offspring,
    fringe_covariance_density,
    normalized_variance,
    sg_degree_covariance,
    sg_fringe_covariance,
    tree_probability,
)
from .distributions import OffspringDistribution, WeightSequence
from .errors import FringelabError
from .exact_moments import containment_matrix, joint_factorial_moment
from .mc_harness import (
    ExperimentConfig,
    StatFamily,
    composition_crosscheck,
    moment_condition_scan,
    run_experiment,
)
from .sampling import DegreeSequence, Seed, sample_labelled_tree, sample_uniform_trees
from .schemas import SCHEMA_VERSION
from .tree_core import DegreeStatistic, PlaneTree, count_trees, enumerate_trees


def encode(value):
    """Lossless JSON encoding: Fractions as 'num/den', infinities as text."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def _read_arg(text: str) -> str:
    """Flag values starting with @ are read from the named file."""
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return fh.read()
    return text


def parse_stat(text: str) -> DegreeStatistic:
    raw = json.loads(_read_arg(text))
    if not isinstance(raw, dict):
        raise ValueError(f"--stat is a JSON object of degree counts, not {raw!r}")
    return DegreeStatistic.from_counts({int(k): v for k, v in raw.items()})


def parse_patterns(text: str) -> list:
    body = _read_arg(text)
    chunks = [c.strip() for c in body.replace("\n", ";").split(";") if c.strip()]
    return [PlaneTree.from_text(c) for c in chunks]


def parse_law(cls, text: str):
    """An OffspringDistribution or WeightSequence (``cls``) from a JSON map
    of exact values or a spec such as ``geometric:1/2``, the finite label
    ``finite{0:1/2,2:1/2}`` that the echo writes included."""
    body = _read_arg(text).strip()
    if body.startswith("{"):
        raw = json.loads(body)
        return cls.finite({int(k): Fraction(str(v)) for k, v in raw.items()})
    return cls.from_spec(body)


def _write(text: str, out_path) -> None:
    """Write text and a newline to ``out_path``, or to stdout if none is given."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _csv(config: dict, rows) -> str:
    return "\n".join(["# " + json.dumps(config, sort_keys=True), *rows])


def _respond(args, config: dict, result, rows=None) -> int:
    """Write the envelope of a run: ``config`` with its subcommand and
    schema added, and ``result``, both encoded, as JSON; or, when the
    command takes --format and it is csv, ``rows`` under a ``#`` config
    line."""
    config = encode({**config, "subcommand": args.subcommand, "schema": SCHEMA_VERSION})
    if rows is not None and args.format == "csv":
        _write(_csv(config, rows), args.out)
    else:
        payload = {"config": config, "result": encode(result)}
        _write(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_count(args) -> int:
    stat = parse_stat(args.stat)
    count = str(count_trees(stat))
    return _respond(args, {"stat": stat.as_dict()}, count, [count])


def _cmd_enumerate(args) -> int:
    stat = parse_stat(args.stat)
    trees = [t.to_text() for t in enumerate_trees(stat, cap=args.cap)]
    return _respond(args, {"stat": stat.as_dict(), "cap": args.cap}, trees, trees)


def _cmd_sample(args) -> int:
    if bool(args.stat) == bool(args.dseq):
        raise ValueError("pass exactly one of --stat or --dseq")
    if args.reps < 0:
        raise ValueError(f"reps = {args.reps} must be at least 0")
    seed = Seed(args.seed, args.stream)
    config = {
        "reps": args.reps,
        "seed": {"value": seed.value, "stream_id": seed.stream_id},
        "format": args.format,
    }
    if args.stat:
        stat = parse_stat(args.stat)
        config["stat"] = stat.as_dict()
        rows = [t.to_text() for t in sample_uniform_trees(stat, args.reps, seed)]
        records = rows
    else:
        dseq = DegreeSequence(tuple(int(x) for x in _read_arg(args.dseq).split(",")))
        config["dseq"] = list(dseq.degrees)
        rows, records = [], []
        for r in range(args.reps):
            tree, labels = sample_labelled_tree(dseq, seed.generator(r))
            rows.append(f"{tree.to_text()};{','.join(map(str, labels))}")
            records.append({"tree": tree.to_text(), "labels": list(labels)})
    return _respond(args, config, records, rows)


def _cmd_moments(args) -> int:
    stat = parse_stat(args.stat)
    patterns = parse_patterns(args.patterns)
    orders = [int(x) for x in args.q.split(",")] if args.q else [1] * len(patterns)
    if len(orders) != len(patterns):
        raise ValueError("--q must list one order per pattern")
    config = {"stat": stat.as_dict(), "patterns": [t.to_text() for t in patterns], "q": orders}
    value = joint_factorial_moment(stat, patterns, orders)
    return _respond(args, config, {"value": value, "float": float(value)})


def _cmd_asymptotics(args) -> int:
    if not args.p and not args.w:
        raise ValueError("need --p (offspring law) or --w (weight sequence)")
    if args.p and args.w:
        raise ValueError("--w is not read with --p: give one of them")
    if args.degree_cov is not None and not args.w:
        raise ValueError("--degree-cov needs --w (weight sequence)")
    if args.p:
        p = parse_law(OffspringDistribution, args.p)
        patterns = parse_patterns(args.patterns) if args.patterns else []
        containment_matrix(patterns)  # raises DuplicatePatterns, as --w and moments do
        config = {"p": p.label(), "patterns": [t.to_text() for t in patterns]}
        matrix = _symmetric(
            len(patterns), lambda j, k: fringe_covariance_density(p, patterns[j], patterns[k])
        )
        result = {
            "patterns": [
                {
                    "pattern": t.to_text(),
                    "probability": tree_probability(p, t),
                    "variance_density": matrix[j][j],
                    "normalized_variance": normalized_variance(p, t),
                    "exceptional_case": classify_exceptional(t, p),
                }
                for j, t in enumerate(patterns)
            ]
        }
        if len(patterns) > 1:
            result["covariance_matrix"] = matrix
        return _respond(args, config, result)
    w = parse_law(WeightSequence, args.w)
    eq = equivalent_offspring(w)
    config = {"w": w.label(), "degree_cov": args.degree_cov}
    result = {
        "tau": eq.tau,
        "nu": eq.nu,
        "sigma2": eq.sigma2,
        "varsigma2": eq.varsigma2,
        "theta": {
            i: eq.theta.p(i) for i in eq.theta.support() if float(eq.theta.p(i)) > 1e-15
        },
    }
    if args.patterns:
        patterns = parse_patterns(args.patterns)
        config["patterns"] = [t.to_text() for t in patterns]
        cov = sg_fringe_covariance(w, patterns)
        result["fringe_covariance"] = cov.entries
    if args.degree_cov is not None:
        cov = sg_degree_covariance(w, args.degree_cov)
        result["degree_covariance"] = cov.entries
    return _respond(args, config, result)


def _overlay(raw, flags: dict):
    """``raw`` with the flags that were given laid over it, nested objects
    merged; a value that is not an object is left for
    ExperimentConfig.from_dict to reject."""
    if not isinstance(raw, dict):
        return raw
    out = dict(raw)
    for key, value in flags.items():
        if isinstance(value, dict):
            value = _overlay(raw.get(key, {}), value)
        if value is not None:
            out[key] = value
    return out


def _cmd_experiment(args) -> int:
    raw = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    flags = {
        "family": args.family,
        "replicates": args.reps,
        "seed": {"value": args.seed, "stream_id": args.stream},
    }
    if args.patterns:
        flags["patterns"] = [t.to_text() for t in parse_patterns(args.patterns)]
    if args.sizes:
        flags["sizes"] = [int(s) for s in args.sizes.split(",")]
    report = run_experiment(ExperimentConfig.from_dict(_overlay(raw, flags)))
    if args.samples_csv:
        rows = ["size,pattern,replicate,standardized"] + [
            f'{n},"{pattern}",{r},{val!r}'
            for n, pattern, z in report.samples
            for r, val in enumerate(z.tolist())
        ]
        _write(_csv(report.config, rows), args.samples_csv)
    payload = {**report.to_dict(), "schema": SCHEMA_VERSION}
    _write(json.dumps(encode(payload), indent=2, sort_keys=True), args.out)
    return 0


def _cmd_check_gw(args) -> int:
    family = StatFamily.from_label(args.family)
    pattern = PlaneTree.from_text(args.pattern)
    sizes = [int(s) for s in args.sizes.split(",")]
    config = {"family": family.label(), "pattern": pattern.to_text(), "sizes": sizes}
    config["c"] = args.c
    rows = moment_condition_scan(family, pattern, sizes, c=args.c)
    decreasing = all(
        rows[i]["max_deviation"] > rows[i + 1]["max_deviation"]
        for i in range(len(rows) - 1)
    )
    result = {
        "per_size": rows,
        "strictly_decreasing": decreasing,
        "final_deviation": rows[-1]["max_deviation"] if rows else None,
    }
    return _respond(args, config, result)


def _cmd_crosscheck(args) -> int:
    seed = Seed(args.seed, args.stream)
    config = {
        "n0": args.n0,
        "n1": args.n1,
        "reps": args.reps,
        "seed": {"value": seed.value, "stream_id": seed.stream_id},
    }
    return _respond(args, config, composition_crosscheck(args.n0, args.n1, args.reps, seed))


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fringelab",
        description="Fringe-subtree statistics of random trees with given degrees",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("count", help="number of trees with a degree statistic")
    p.add_argument("--stat", required=True, help='JSON counts, e.g. {"0":3,"2":2}')
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list every tree with the statistic")
    p.add_argument("--stat", required=True)
    p.add_argument("--cap", type=int, default=12)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sample", help="uniform random trees")
    p.add_argument("--stat", help="degree-count JSON for plane trees")
    p.add_argument("--dseq", help="per-label degrees d1,d2,... for labelled trees")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("moments", help="exact factorial moments of fringe counts")
    p.add_argument("--stat", required=True)
    p.add_argument(
        "--patterns",
        "--pattern",
        dest="patterns",
        required=True,
        help="semicolon-separated preorder degree lists, e.g. '2,0,0;1,0'",
    )
    p.add_argument("--q", help="comma-separated factorial orders, default all 1")
    add_common(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("asymptotics", help="limit-law quantities")
    p.add_argument("--p", help="offspring law: geometric:1/2 or JSON map")
    p.add_argument("--w", help="weight sequence: geometric:1 or JSON map")
    p.add_argument("--patterns", help="pattern list as in moments")
    p.add_argument("--degree-cov", type=int, default=None, metavar="K")
    add_common(p)
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("experiment", help="Monte Carlo limit-law verification")
    p.add_argument("--config", help="JSON config file; flags override")
    p.add_argument("--family", help="full_binary | geometric_profile | one_hub(r)")
    p.add_argument("--patterns")
    p.add_argument("--sizes")
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--stream", type=int)
    p.add_argument("--samples-csv", help="also dump standardized samples as CSV")
    add_common(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("check-gw", help="factorial-moment growth-condition scan")
    p.add_argument("--family", default="full_binary", help="as in experiment")
    p.add_argument("--pattern", default="2,0,0")
    p.add_argument("--sizes", default="1000,10000,100000")
    p.add_argument("--c", type=float, default=1.0)
    add_common(p)
    p.set_defaults(func=_cmd_check_gw)

    p = sub.add_parser("crosscheck", help="sampler test against the exact law on hub profiles")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (FringelabError, ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
