import csv
import hashlib
import json

import jsonschema
import pytest

from fringelab.cli import main
from fringelab.mc_harness import ExperimentConfig, run_experiment
from fringelab.schemas import EXPERIMENT_REPORT, RESULT_ENVELOPE

RESULT_SCHEMA = RESULT_ENVELOPE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--stat", '{"0":3,"2":2}')
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, RESULT_SCHEMA)
        assert payload["result"] == "2"

    def test_moments_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "moments",
            "--stat",
            '{"0":3,"2":2}',
            "--pattern",
            "2,0,0",
            "--q",
            "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["value"] == "1/1"

    def test_joint_moments(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "moments",
            "--stat",
            '{"0":4,"2":3}',
            "--patterns",
            "2,0,0;0",
            "--q",
            "1,1",
        )
        assert code == 0
        value = json.loads(out)["result"]["float"]
        assert value > 0

    def test_enumerate(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--stat", '{"0":3,"2":2}')
        assert code == 0
        assert sorted(json.loads(out)["result"]) == ["2,0,2,0,0", "2,2,0,0,0"]

    def test_sample_csv_echoes_config(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample",
            "--stat",
            '{"0":3,"2":2}',
            "--reps",
            "3",
            "--seed",
            "11",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# ")
        config = json.loads(lines[0][2:])
        assert config["seed"] == {"stream_id": 0, "value": 11}
        assert len(lines) == 4

    def test_asymptotics_offspring(self, capsys):
        code, out, _ = run_cli(
            capsys, "asymptotics", "--p", "geometric:1/2", "--patterns", "2,0,0"
        )
        assert code == 0
        info = json.loads(out)["result"]["patterns"][0]
        assert info["probability"] == "1/32"
        assert info["variance_density"] == "5/256"
        assert info["normalized_variance"] == "5/8"

    def test_asymptotics_leaf_row_is_exactly_zero(self, capsys):
        # the leaf count is fixed by the degree profile, so its row of the
        # limit covariance is exactly 0 under a float law too
        code, out, _ = run_cli(
            capsys, "asymptotics", "--p", "power_law:0.3,2.5", "--patterns", "0;2,0,0"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["covariance_matrix"][0] == [0.0, 0.0]
        assert result["covariance_matrix"][1][0] == 0.0
        assert [row["variance_density"] for row in result["patterns"]] == [
            result["covariance_matrix"][j][j] for j in range(2)
        ]

    @pytest.mark.parametrize("spec", ["poisson:1", "power_law:0.3,2.5"])
    def test_asymptotics_float_law_fields_are_numbers(self, capsys, spec):
        # every scalar of a float law is rounded to a float, so no field
        # prints as an "n/d" string (the leaf's normalized variance did)
        code, out, _ = run_cli(
            capsys, "asymptotics", "--p", spec, "--patterns", "0;1,0;2,0,0;2,2,0,0,0"
        )
        assert code == 0
        for row in json.loads(out)["result"]["patterns"]:
            for field in ("probability", "variance_density", "normalized_variance"):
                assert type(row[field]) is float, (row["pattern"], field)

    def test_asymptotics_weights(self, capsys):
        code, out, _ = run_cli(
            capsys, "asymptotics", "--w", '{"0": 1, "2": 1}', "--patterns", "2,0,0"
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert float(result["sigma2"]) == pytest.approx(1, abs=1e-9)
        assert float(result["fringe_covariance"][0][0]) == pytest.approx(
            1 / 32, abs=1e-9
        )

    @pytest.mark.parametrize("ratio", ["1/5", "4"])
    def test_asymptotics_geometric_weights_far_from_one(self, capsys, ratio):
        # r^i as a float underflowed to log(0) at 1/5 and overflowed at 4
        code, out, _ = run_cli(
            capsys, "asymptotics", "--w", f"geometric:{ratio}", "--patterns", "2,0,0"
        )
        assert code == 0
        assert float(json.loads(out)["result"]["sigma2"]) == pytest.approx(2, abs=1e-14)

    def test_check_gw_small(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check-gw",
            "--sizes",
            "301,1001",
            "--pattern",
            "2,0,0",
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["strictly_decreasing"] is True

    def test_check_gw_one_hub_label(self, capsys):
        # the ratio rides in the family label, as the reports echo it
        code, out, _ = run_cli(
            capsys, "check-gw", "--family", "one_hub(0.5)", "--pattern", "1,0", "--sizes", "301"
        )
        assert code == 0
        assert json.loads(out)["config"]["family"] == "one_hub(0.5)"

    def test_crosscheck(self, capsys):
        code, out, _ = run_cli(
            capsys, "crosscheck", "--n0", "2", "--n1", "0", "--reps", "50"
        )
        assert code == 0
        assert json.loads(out)["result"]["passed"] is True


class TestExperimentCommand:
    def test_config_file_and_outputs(self, tmp_path, capsys):
        cfg = {
            "family": "full_binary",
            "patterns": ["2,0,0"],
            "sizes": [501],
            "replicates": 150,
            "seed": {"value": 5, "stream_id": 0},
            "tests": ["moments", "normality"],
            "ks_threshold": 0.2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "report.json"
        csv_path = tmp_path / "samples.csv"
        code, _, _ = run_cli(
            capsys,
            "experiment",
            "--config",
            str(cfg_path),
            "--out",
            str(out_path),
            "--samples-csv",
            str(csv_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        jsonschema.validate(report, EXPERIMENT_REPORT)
        assert report["config"]["family"] == "full_binary"
        assert report["per_size"][0]["size"] == 501
        assert len(report["verdicts"]) >= 4
        lines = csv_path.read_text().strip().split("\n")
        assert lines[1] == "size,pattern,replicate,standardized"
        assert len(lines) == 2 + 150

    @pytest.mark.parametrize(
        "sizes, digest",
        [
            ([501], "8d0745a032f624a38c8eea2dec4f820fea6bf5566063e3d514a9d80aa67c8bf2"),
            # two sizes that give the same n keep one block each, in run order
            ([1000, 1001], "38e3a00eb8c4cd1c27b8cd0926a0abf40f3ca7e54628e6d372deb19b795d5a0c"),
        ],
        ids=["one-size", "two-sizes-one-n"],
    )
    def test_samples_csv_bytes(self, tmp_path, capsys, sizes, digest):
        cfg = {
            "family": "full_binary",
            "patterns": ["2,0,0"],
            "sizes": sizes,
            "replicates": 150,
            "seed": {"value": 5, "stream_id": 0},
            "tests": ["moments", "normality"],
            "ks_threshold": 0.2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        csv_path = tmp_path / "samples.csv"
        code, _, _ = run_cli(
            capsys, "experiment", "--config", str(cfg_path), "--samples-csv", str(csv_path)
        )
        assert code == 0
        data = csv_path.read_bytes()
        assert data.count(b"\n") == 2 + 150 * len(sizes)
        assert hashlib.sha256(data).hexdigest() == digest

    def test_samples_csv_rows_read_back(self, tmp_path, capsys):
        # every row has the header's four fields, the pattern quoted
        cfg = {
            "patterns": ["2,0,0", "2,2,0,0,0"],
            "sizes": [301],
            "replicates": 100,
            "seed": {"value": 3},
            "tests": ["normality"],
            "ks_threshold": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        csv_path = tmp_path / "samples.csv"
        code, _, _ = run_cli(
            capsys, "experiment", "--config", str(cfg_path), "--samples-csv", str(csv_path)
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("# ")
        header, *rows = csv.reader(lines[1:])
        assert header == ["size", "pattern", "replicate", "standardized"]
        report = run_experiment(ExperimentConfig.from_dict(cfg))
        assert len(rows) == 2 * 100
        assert [(int(n), text, int(r), float(z)) for n, text, r, z in rows] == [
            (n, text, r, z)
            for n, text, values in report.samples
            for r, z in enumerate(values.tolist())
        ]

    def test_samples_csv_written_whatever_the_tests(self, tmp_path, capsys):
        # the file once held only the config line and the header unless the
        # normality test ran
        written = {}
        for tests in (["moments"], ["moments", "normality"]):
            cfg_path, csv_path = tmp_path / "cfg.json", tmp_path / f"{len(tests)}.csv"
            cfg_path.write_text(json.dumps({"sizes": [301], "replicates": 100, "tests": tests}))
            code, _, _ = run_cli(
                capsys, "experiment", "--config", str(cfg_path), "--samples-csv", str(csv_path)
            )
            assert code == 0
            written[len(tests)] = csv_path.read_text().splitlines()
        assert len(written[1]) == 2 + 100
        assert written[1][1:] == written[2][1:]  # the first line echoes the tests

    BASE = {"sizes": [301], "replicates": 120}

    # How each config fared before the config was checked on reading: most
    # ran with the bad value dropped, read as something else or truncated;
    # the others stopped with an internal error (exit 2).
    @pytest.mark.parametrize(
        "raw, flags, message",
        [
            ([1, 2], [], "JSON object"),  # exit 2: AttributeError
            ({**BASE, "replicate": 100}, [], "unknown experiment config keys"),  # ran
            ({**BASE, "tests": ["moment"]}, [], "unknown tests"),  # ran, no moment verdicts
            ({**BASE, "standardize_with": "plugn"}, [], "exact_mean or plugin"),  # ran
            ({**BASE, "family": "binary"}, [], "unknown family"),  # exit 1 already
            ({**BASE, "family_params": [7]}, [], "takes 0 parameter"),  # ran
            ({**BASE, "family": "one_hub"}, [], "takes 1 parameter"),  # exit 1, unpack error
            ({**BASE, "family": "one_hub", "family_params": [-1]}, [], "ratio"),  # exit 2
            ({**BASE, "family": "one_hub", "family_params": [True]}, [], "ratio"),  # ran at ratio 1
            ({**BASE, "sizes": [301.7]}, [], "is not an integer"),  # ran at 301
            ({**BASE, "replicates": 120.5}, [], "is not an integer"),  # ran 120
            ({**BASE, "replicates": "120"}, [], "is not an integer"),  # ran 120
            ({**BASE, "replicates": 1}, [], "at least 2 replicates"),  # exit 2
            ({**BASE, "seed": 5}, [], '"seed"'),  # exit 2: AttributeError
            ({**BASE, "seed": 5}, ["--seed", "1"], '"seed"'),  # exit 2: AttributeError
            ({**BASE, "seed": {"value": 1.5}}, [], "is not an integer"),  # ran with seed 1
            ({**BASE, "seed": {"stream": 2}}, [], '"seed"'),  # ran on stream 0
            ({**BASE, "patterns": [5]}, [], '"patterns"'),  # exit 2: AttributeError
            ({**BASE, "patterns": "0"}, [], '"patterns"'),  # ran on the leaf pattern
            ({**BASE, "patterns": "2,0,0"}, [], '"patterns"'),  # exit 1: degree total 2 != 0
            ({"sizes": 101, "replicates": 120}, [], '"sizes"'),  # exit 1: int not iterable
            ({**BASE, "patterns": ["2,0,0", "2,0,0"]}, [], "distinct"),  # ran
            ({**BASE, "sizes": []}, [], "non-empty"),  # ran, all_passed with no verdicts
            ({**BASE, "patterns": []}, [], "non-empty"),  # ran, all_passed with no verdicts
            ({**BASE, "tests": []}, [], "tests is a non-empty list"),  # ran, all_passed with no verdicts
            ({**BASE, "tests": "moments"}, [], '"tests" lists test names'),  # its characters, unknown
            ({**BASE, "tests": {"moments": 1}}, [], '"tests" lists test names'),  # ran the moments
            ({"sizes": [200001, 301], "replicates": 99}, [], "at least 100 replicates"),  # exit 1 late
        ],
        ids=[
            "list", "unknown-key", "unknown-test", "unknown-standardizer", "unknown-family",
            "extra-param", "missing-param", "negative-ratio", "bool-ratio", "float-size", "float-replicates",
            "string-replicates", "one-replicate", "seed-int", "seed-int-with-flag", "seed-float",
            "seed-unknown-key", "pattern-int", "patterns-string-leaf", "patterns-string-cherry",
            "sizes-int", "repeated-pattern", "no-sizes", "no-patterns",
            "no-tests", "tests-string", "tests-object", "too-few-replicates-for-normality",
        ],
    )
    def test_invalid_config_rejected(self, tmp_path, capsys, raw, flags, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path), *flags)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    def test_flag_overrides(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "experiment",
            "--family",
            "full_binary",
            "--patterns",
            "0",
            "--sizes",
            "301",
            "--reps",
            "120",
            "--seed",
            "1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["per_size"][0]["empirical_var"] == [0.0]


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        argv = ["sample", "--stat", '{"0":4,"1":1,"2":3}', "--reps", "6", "--seed", "9"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_worker_count_invariance(self, capsys, monkeypatch):
        argv = [
            "experiment",
            "--family",
            "full_binary",
            "--patterns",
            "2,0,0",
            "--sizes",
            "201",
            "--reps",
            "40",
            "--seed",
            "3",
        ]
        _, serial, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("FRINGELAB_THREADS", "2")
        _, threaded, _ = run_cli(capsys, *argv)
        assert serial == threaded


class TestFileArguments:
    def test_at_file_prints_the_inline_bytes(self, tmp_path, capsys):
        stat, patterns = '{"0":4,"2":3}', "2,0,0;0"
        (tmp_path / "stat.json").write_text(stat + "\n")
        (tmp_path / "patterns.txt").write_text("2,0,0\n0\n")
        inline = run_cli(capsys, "moments", "--stat", stat, "--patterns", patterns)
        from_files = run_cli(
            capsys, "moments", "--stat", f"@{tmp_path / 'stat.json'}",
            "--patterns", f"@{tmp_path / 'patterns.txt'}",
        )
        assert inline[0] == 0 and from_files == inline

    def test_missing_at_file(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "count", "--stat", f"@{tmp_path / 'absent.json'}")
        assert code == 1 and out == ""
        assert err.startswith("error:")


class TestErrorPaths:
    @pytest.mark.parametrize("command", ["check-gw", "experiment"])
    @pytest.mark.parametrize(
        "label", ["one_hub(0.5", "one_hub(x)", "one_hub()", "one_hub", "full_binary(1)", "hub(1)"]
    )
    def test_malformed_family_label(self, capsys, command, label):
        code, out, err = run_cli(capsys, command, "--family", label, "--sizes", "301")
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "count")
        assert code == 1

    def test_bad_stat(self, capsys):
        code, _, err = run_cli(capsys, "count", "--stat", '{"0":2,"2":2}')
        assert code == 1
        assert "error" in err

    def test_stat_not_an_object(self, capsys):
        # an internal AttributeError (exit 2) before --stat was checked
        code, out, err = run_cli(capsys, "count", "--stat", "[1,2]")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "JSON object" in err

    def test_bad_json(self, capsys):
        code, _, _ = run_cli(capsys, "count", "--stat", "not json")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_removed_exact_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--stat", '{"0":3,"2":2}', "--pattern", "2,0,0", "--exact"
        )
        assert code == 1 and "--exact" in err

    @pytest.mark.parametrize("command", ["count", "enumerate"])
    @pytest.mark.parametrize("stat", ['{"0": 3.9, "2": 2}', '{"0": 3, "2": "2"}', '{"0": 3.0, "2": 2}'])
    def test_non_integer_count_rejected(self, capsys, command, stat):
        # read, not truncated: 3.9 would otherwise count the trees of {0: 3, 2: 2}
        code, out, err = run_cli(capsys, command, "--stat", stat)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "is not an integer" in err

    def test_invalid_weight_parameter_named(self, capsys):
        code, _, err = run_cli(
            capsys, "asymptotics", "--w", "poisson:-1", "--patterns", "2,0,0"
        )
        assert code == 1
        assert "poisson rate must be positive" in err

    @pytest.mark.parametrize("flag", ["--p", "--w"])
    def test_malformed_spec_named(self, capsys, flag):
        for spec in ("power_law:0.1,2.5,7", "poisson:abc", "geometric:x"):
            code, _, err = run_cli(
                capsys, "asymptotics", flag, spec, "--patterns", "2,0,0"
            )
            assert code == 1
            assert f"spec {spec!r}" in err

    @pytest.mark.parametrize(
        "flag, spec",
        [("--p", "power_law:nan,2.5"), ("--p", "poisson:inf"), ("--w", "poisson:inf")],
    )
    def test_non_finite_parameter_rejected(self, capsys, flag, spec):
        code, out, err = run_cli(
            capsys, "asymptotics", flag, spec, "--patterns", "2,0,0"
        )
        assert code == 1 and out == ""
        assert "non-finite parameter" in err

    @pytest.mark.parametrize("c", ["inf", "-1", "nan"])
    def test_check_gw_c_out_of_range(self, capsys, c):
        code, out, err = run_cli(
            capsys, "check-gw", "--sizes", "301", "--pattern", "2,0,0", "--c", c
        )
        assert code == 1 and out == ""
        assert "must be finite and at least 0" in err

    def test_removed_finite_variance_regime(self, capsys):
        # the weights decide vs^2, so no --regime value is taken
        for regime in ("auto", "infinite_variance", "finite_variance"):
            code, out, err = run_cli(
                capsys, "asymptotics", "--w", '{"0": 1, "2": 1}', "--patterns", "2,0,0",
                "--regime", regime,
            )
            assert code == 1 and out == ""
            assert "--regime" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p", "geometric:1/2", "--w", "geometric:1"], "--w is not read with --p"),
            (["--p", "geometric:1/2", "--degree-cov", "3"], "--degree-cov needs --w"),
        ],
        ids=["w-with-p", "degree-cov-with-p"],
    )
    def test_asymptotics_p_rejects_unread_flags(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "asymptotics", *flags, "--patterns", "2,0,0")
        assert code == 1 and out == ""
        assert f"error: {message}" in err

    def test_negative_degree_cov(self, capsys):
        code, out, err = run_cli(
            capsys, "asymptotics", "--w", '{"0": 1, "2": 1}', "--patterns", "2,0,0",
            "--degree-cov", "-2",
        )
        assert code == 1 and out == ""
        assert "must be at least 0" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n0", "1", "--n1", "2"], "n0 = 1 must be at least 2"),  # merged keys of the profile
            (["--n0", "3", "--n1", "-1"], "n1 = -1 must be at least 0"),  # "bad entry degree=1"
            (["--n0", "3", "--n1", "2", "--reps", "0"], "reps = 0 must be at least 1"),  # scipy's "No data"
        ],
        ids=["n0", "n1", "reps"],
    )
    def test_crosscheck_argument_out_of_range(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "crosscheck", *flags)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "source", [["--stat", '{"0":2,"2":1}'], ["--dseq", "2,0,0"]], ids=["stat", "dseq"]
    )
    def test_sample_negative_reps(self, capsys, source):
        code, out, err = run_cli(capsys, "sample", *source, "--reps", "-2")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "reps = -2 must be at least 0" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["asymptotics", "--p", '{"0":"1/2","2":"1/2"}'],
            ["asymptotics", "--w", '{"0":1,"2":1}'],
            ["moments", "--stat", '{"0":4,"2":3}'],
        ],
        ids=["p", "w", "moments"],
    )
    def test_repeated_patterns_rejected(self, capsys, command):
        # --p printed a duplicated row and exited 0
        code, out, err = run_cli(capsys, *command, "--patterns", "2,0,0;2,0,0")
        assert code == 1 and out == ""
        assert err == "error: patterns must be pairwise distinct\n"

    def test_moments_order_count_mismatch(self, capsys):
        code, out, err = run_cli(
            capsys, "moments", "--stat", '{"0":4,"2":3}', "--patterns", "2,0,0;0", "--q", "1"
        )
        assert code == 1 and out == ""
        assert "--q must list one order per pattern" in err

    def test_asymptotics_needs_a_law(self, capsys):
        code, out, err = run_cli(capsys, "asymptotics", "--patterns", "2,0,0")
        assert code == 1 and out == ""
        assert "need --p (offspring law) or --w (weight sequence)" in err

    def test_infeasible_moment(self, capsys):
        # no longer an error: a tree too small for any copy has moment 0
        code, out, _ = run_cli(
            capsys,
            "moments",
            "--stat",
            '{"0":1}',
            "--pattern",
            "2,0,0",
            "--q",
            "1",
        )
        assert code == 0
        assert json.loads(out)["result"]["value"] == "0/1"


class TestLabelledSampling:
    def test_dseq_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--dseq", "2,0,0", "--reps", "2", "--seed", "3"
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert all(r == "2,0,0;1,2,3" or r == "2,0,0;1,3,2" for r in rows)

    def test_stat_and_dseq_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--stat", '{"0":1}', "--dseq", "0"
        )
        assert code == 1 and "exactly one" in err
