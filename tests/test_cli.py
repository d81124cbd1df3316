import csv
import filecmp
import io
import json

import pytest

from binomax import identities
from binomax.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, SEED_ENV_VAR, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out else None, err


class TestVerifyCommand:
    def test_single_point(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "--identity", "basic", "--s", "2", "--n", "3")
        assert code == EXIT_OK
        (row,) = report["rows"]
        assert row == {"identity": "basic", "s": "2", "n": 3, "m": 1,
                       "lhs": "1/10", "rhs": "1/10", "equal": True}
        assert report["manifest"]["command"] == "verify"
        assert report["manifest"]["tool_version"]

    def test_small_sweep_all_identities(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "--s", "1,1/2", "--n", "1..3", "--m", "1,2")
        assert code == EXIT_OK
        assert all(row["equal"] for row in report["rows"])
        identities_seen = {row["identity"] for row in report["rows"]}
        assert identities_seen == {i.value for i in identities.IdentityId}

    def test_precondition_error_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--identity", "general_m", "--n", "0", "--m", "1", "--s", "1")
        assert code == EXIT_USAGE
        assert "n >= 1" in err

    def test_decimal_s_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--identity", "basic", "--s", "0.5", "--n", "1")
        assert code == EXIT_USAGE
        assert "exact rational" in err

    def test_unknown_identity_rejected_by_parser(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--identity", "nope")
        assert code == EXIT_USAGE

    def test_mismatch_exits_two(self, capsys, monkeypatch):
        # force a wrong right side to exercise the failure path
        monkeypatch.setattr(identities, "eval_basic_rhs", lambda s, n: 0)
        code, report, _ = run_json(
            capsys, "verify", "--identity", "basic", "--s", "1", "--n", "2")
        assert code == EXIT_FAILURE
        assert report["rows"][0]["equal"] is False


class TestQuadratureCommand:
    def test_single_point(self, capsys):
        code, report, _ = run_json(capsys, "quadrature", "--s", "1", "--n", "2")
        assert code == EXIT_OK
        (row,) = report["rows"]
        assert float(row["cdf_abs_error"]) <= 1e-9
        assert float(row["density_abs_error"]) <= 1e-9
        assert row["pass"] is True

    def test_n_zero_uses_cdf_route_only(self, capsys):
        code, report, _ = run_json(capsys, "quadrature", "--n", "0", "--s", "1")
        assert code == EXIT_OK
        (row,) = report["rows"]
        assert row["density_value"] is None
        assert row["pass"] is True

    def test_tolerance_floor(self, capsys):
        code, _, err = run_cli(capsys, "quadrature", "--tol", "1e-20")
        assert code == EXIT_USAGE
        assert "tol" in err

    def test_nonpositive_s(self, capsys):
        code, _, _ = run_cli(capsys, "quadrature", "--s", "-1", "--n", "1")
        assert code == EXIT_USAGE


class TestSimulateCommand:
    def test_lemma1_gate(self, capsys):
        code, report, _ = run_json(
            capsys, "simulate", "--suite", "lemma1", "--n", "5",
            "--samples", "100000", "--seed", "42")
        assert code == EXIT_OK
        (row,) = report["rows"]
        assert float(row["p_value"]) > 0.01
        assert row["pass"] is True
        assert report["manifest"]["seed"] == 42
        assert report["manifest"]["timestamp"] is None

    def test_tail_gate(self, capsys):
        code, report, _ = run_json(
            capsys, "simulate", "--suite", "tail", "--m", "2", "--s", "1",
            "--n", "1", "--samples", "100000", "--seed", "7")
        assert code == EXIT_OK
        (row,) = report["rows"]
        assert row["exact"] == "3/4"
        assert abs(float(row["estimate"]) - 0.75) <= 4 * float(row["std_error"])

    def test_laplace_gate(self, capsys):
        code, report, _ = run_json(
            capsys, "simulate", "--suite", "laplace", "--s", "1", "--n", "1,2",
            "--samples", "50000", "--seed", "3")
        assert code == EXIT_OK
        rows = report["rows"]
        assert [r["n"] for r in rows] == [1, 2]
        assert rows[0]["exact"] == "1/2" and rows[1]["exact"] == "1/3"

    def test_insufficient_samples(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--suite", "tail", "--samples", "100", "--seed", "1")
        assert code == EXIT_USAGE
        assert "samples" in err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(
                capsys, "simulate", "--suite", "tail", "--m", "2", "--s", "1",
                "--n", "1", "--samples", "20000", "--seed", "11",
                "--output", str(path))
            assert code == EXIT_OK
        assert filecmp.cmp(*paths, shallow=False)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        code, report, _ = run_json(
            capsys, "simulate", "--suite", "tail", "--n", "1", "--samples", "10000")
        assert code == EXIT_OK
        assert report["manifest"]["seed"] == 99

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        code, report, _ = run_json(
            capsys, "simulate", "--suite", "tail", "--n", "1",
            "--samples", "10000", "--seed", "5")
        assert report["manifest"]["seed"] == 5

    def test_decimal_s_accepted_with_exact_reference(self, capsys):
        # 0.5 is exactly 1/2 in binary, so the reference is exact
        code, report, _ = run_json(
            capsys, "simulate", "--suite", "laplace", "--s", "0.5", "--n", "1",
            "--samples", "10000", "--seed", "2")
        assert code == EXIT_OK
        assert report["rows"][0]["exact"] == "2/3"


class TestFormats:
    def test_csv_shape_and_manifest(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "basic", "--s", "1", "--n", "0..2",
            "--format", "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("# manifest: {")
        manifest = json.loads(lines[0].split("# manifest: ", 1)[1])
        assert manifest["command"] == "verify"
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        assert len(rows) == 3
        assert rows[2]["lhs"] == "1/3"
        assert rows[0]["equal"] == "true"

    def test_markdown_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "basic", "--s", "1", "--n", "1",
            "--format", "md")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("manifest: ")
        assert lines[2].startswith("| identity | s | n | m | lhs | rhs | equal |")
        assert "| 1/2 | 1/2 | True |" in lines[4]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "basic", "--s", "1", "--n", "1",
            "--output", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(path.read_text())["rows"]


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_malformed_n_list(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--identity", "basic", "--n", "x..y")
        assert code == EXIT_USAGE

    def test_simulate_requires_suite(self, capsys):
        assert run_cli(capsys, "simulate")[0] == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("simulate", "--suite", "tail", "--s", "inf", "--n", "1"),
        ("simulate", "--suite", "laplace", "--s", "nan"),
        ("simulate", "--suite", "tail", "--s", "1e400"),
        ("quadrature", "--s", "1,inf", "--n", "1"),
        ("quadrature", "--s", "nan", "--n", "1"),
    ])
    def test_non_finite_s_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--identity", "basic", "--n", "5..1"),
        ("quadrature", "--s", "1", "--n", "5..1"),
        ("simulate", "--suite", "lemma1", "--n", "5..1"),
    ], ids=["verify", "quadrature", "simulate"])
    def test_empty_grid_is_usage_error(self, capsys, argv):
        # a grid with no points must not pass vacuously
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "empty" in err
