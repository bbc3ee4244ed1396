"""Byte-for-byte regression corpus for the command-line surface.

Each case runs ``fringelab.cli.main`` in-process and compares its stdout with
``tests/golden/<name>.txt``.  To regenerate the files after an intended
output change, run ``PYTHONPATH=src python tests/test_golden.py`` and say in
the change log which outputs moved and why.
"""

import contextlib
import io
from pathlib import Path

import pytest

from fringelab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "count_json": ["count", "--stat", '{"0":4,"1":1,"2":3}'],
    "count_csv": ["count", "--stat", '{"0":6,"2":5}', "--format", "csv"],
    "enumerate_json": ["enumerate", "--stat", '{"0":3,"1":1,"2":2}'],
    "enumerate_csv": ["enumerate", "--stat", '{"0":4,"3":1,"2":1}', "--format", "csv"],
    "sample_csv": ["sample", "--stat", '{"0":6,"1":2,"2":5}', "--reps", "8", "--seed", "11"],
    "sample_json": [
        "sample", "--stat", '{"0":4,"2":3}', "--reps", "5", "--seed", "2",
        "--stream", "3", "--format", "json",
    ],
    "sample_dseq": ["sample", "--dseq", "2,0,1,0,3,0,0", "--reps", "4", "--seed", "7"],
    "moments_single": ["moments", "--stat", '{"0":8,"2":7}', "--pattern", "2,0,0"],
    "moments_single_q3": [
        "moments", "--stat", '{"0":10001,"2":10000}', "--pattern", "2,2,0,0,0",
        "--q", "3",
    ],
    "moments_q0": ["moments", "--stat", '{"0":5,"1":2,"2":4}', "--pattern", "1,0", "--q", "0"],
    "moments_joint": [
        "moments", "--stat", '{"0":9,"1":3,"2":8}', "--patterns", "2,0,0;2,2,0,0,0;1,0",
        "--q", "2,1,1",
    ],
    "moments_joint_default_q": [
        "moments", "--stat", '{"0":6,"2":5}', "--patterns", "2,0,0;0",
    ],
    "moments_joint_high_q": [
        "moments", "--stat", '{"0":10001,"2":10000}', "--patterns", "2,0,0;2,2,0,0,0",
        "--q", "20,10",
    ],
    "asymptotics_p": [
        "asymptotics", "--p", "geometric:1/2", "--patterns", "2,0,0;2,2,0,0,0;1,0",
    ],
    "asymptotics_p_float": [
        "asymptotics", "--p", "poisson:1", "--patterns", "2,0,0;1,1,1,0;2,2,0,0,0;1,0",
    ],
    "asymptotics_p_leaf": [
        "asymptotics", "--p", "power_law:0.3,2.5", "--patterns", "0;2,0,0",
    ],
    "asymptotics_p_json": [
        "asymptotics", "--p", '{"0": "1/2", "1": "1/4", "3": "1/4"}', "--patterns",
        "3,0,0,0;1,0",
    ],
    "asymptotics_w": [
        "asymptotics", "--w", '{"0": 1, "2": 1}', "--patterns", "2,0,0;2,2,0,0,0",
        "--degree-cov", "2",
    ],
    "asymptotics_w_geometric": [
        "asymptotics", "--w", "geometric:1", "--patterns", "1,0", "--degree-cov", "3",
    ],
    "asymptotics_w_infinite_variance": [
        "asymptotics", "--w", "power_law:0.1,3.5", "--patterns", "2,0,0",
    ],
    "experiment_small": [
        "experiment", "--family", "full_binary", "--patterns", "2,0,0;2,2,0,0,0",
        "--sizes", "1001", "--reps", "200", "--seed", "4",
    ],
    "check_gw": ["check-gw", "--sizes", "1000,10000"],
    "crosscheck": ["crosscheck", "--n0", "3", "--n1", "2", "--reps", "300", "--seed", "5"],
}


def run_case(argv):
    """Return (exit code, stdout) of one in-process CLI run."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = run_case(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, args in sorted(CASES.items()):
        status, text = run_case(args)
        if status != 0:
            raise SystemExit(f"{case}: exit code {status}")
        (GOLDEN / f"{case}.txt").write_text(text, encoding="utf-8")
        print(f"wrote {case}.txt")
