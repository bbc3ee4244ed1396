import json

import jsonschema
import pytest

from fringelab.cli import main
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


class TestErrorPaths:
    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "count")
        assert code == 1

    def test_bad_stat(self, capsys):
        code, _, err = run_cli(capsys, "count", "--stat", '{"0":2,"2":2}')
        assert code == 1
        assert "error" in err

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
