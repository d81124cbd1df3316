import contextlib
import csv
import filecmp
import io
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from binomax import cli, identities, montecarlo
from binomax.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    MAX_GRID_VALUES,
    SEED_ENV_VAR,
    _parse_int_list,
    main,
)


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
        (line,) = err.splitlines()
        assert "general_m" in line and "n >= 1" in line

    def test_decimal_s_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--identity", "basic", "--s", "0.5", "--n", "1")
        assert code == EXIT_USAGE
        assert "exact rational" in err

    def test_unknown_identity_rejected_by_parser(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--identity", "nope")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("identity", ["basic", "squared", "inversion_first",
                                          "inversion_second", "derivative_fg"])
    def test_mismatch_exits_two(self, capsys, monkeypatch, identity):
        # a wrong product side (every product 0) fails each identity built on it
        monkeypatch.setattr(identities, "_product_side", lambda s, top: [(0, 1, 1)] * (top + 1))
        code, report, _ = run_json(
            capsys, "verify", "--identity", identity, "--s", "1", "--n", "2")
        assert code == EXIT_FAILURE
        assert report["rows"][0]["equal"] is False


    def test_rational_beyond_the_int_str_digit_limit(self, capsys):
        # this row's numerator has 4709 digits
        code, report, _ = run_json(
            capsys, "verify", "--identity", "general_m", "--s", "997/541", "--n", "200", "--m", "8")
        assert code == EXIT_OK
        (row,) = report["rows"]
        assert row["equal"] is True
        assert len(row["lhs"].partition("/")[0]) > 4300


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

    def test_failing_route_keeps_the_other_routes_columns(self, capsys):
        # the distribution-function route cannot meet tol here; the density
        # integrand is ~1 on [0, 1] and its route succeeds
        code, report, _ = run_json(capsys, "quadrature", "--s", "1e-300", "--n", "1")
        assert code == EXIT_FAILURE
        (row,) = report["rows"]
        assert abs(float(row["density_value"]) - 1) <= 1e-9
        assert row["cdf_value"] is row["cdf_abs_error"] is row["cdf_evaluations"] is None
        assert row["note"].startswith("cdf: ")
        assert row["pass"] is False

    def test_exact_value_below_float_range_fails(self, capsys):
        # the exact value is about 6e-900: it reads 0 as a float, and so
        # do both routes, which must not pass against it unchecked
        code, report, _ = run_json(capsys, "quadrature", "--s", "1e300", "--n", "3")
        assert code == EXIT_FAILURE
        (row,) = report["rows"]
        assert row["exact"] == "0"
        assert row["note"] == "exact: below the float64 range, not checked"
        assert row["pass"] is False

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(1e-3, 1e3), n=st.integers(0, 3000))
    @example(s=1000.0, n=310)  # a subnormal exact value
    @example(s=1000.0, n=1000)  # an exact value below the float64 range
    def test_exact_column_is_the_fraction_float(self, s, n):
        # num / den over the unreduced pair must round as the Fraction does
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["quadrature", "--s", repr(s), "--n", str(n), "--tol", "0.01"])
        (row,) = json.loads(out.getvalue())["rows"]
        exact = float(identities.eval_basic_rhs(Fraction(s), n))
        assert row["exact"] == format(exact, ".17g")
        if exact == 0:
            assert row["note"].startswith("exact: below the float64 range")
            assert row["pass"] is False

    def test_tolerance_floor(self, capsys):
        code, _, err = run_cli(capsys, "quadrature", "--tol", "1e-20")
        assert code == EXIT_USAGE
        assert "tol" in err

    @pytest.mark.parametrize("tol", ["1e300", "10", "inf", "0.1"])
    def test_meaningless_tolerance_rejected(self, capsys, tol):
        # from 10*tol >= 1 on, the 10*tol gate passes any value in [0, 1]
        code, out, err = run_cli(capsys, "quadrature", "--s", "1", "--n", "2", "--tol", tol)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--tol must be" in err

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

    def test_failing_gate_exits_two_with_its_report(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "KS_ALPHA", 1.0)  # no p-value exceeds 1
        code, report, _ = run_json(
            capsys, "simulate", "--suite", "lemma1", "--samples", "10000", "--seed", "1")
        assert code == EXIT_FAILURE
        assert [row["n"] for row in report["rows"]] == [1, 2, 5, 10]
        assert not any(row["pass"] for row in report["rows"])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_reference_below_float_range_fails(self, capsys):
        # the reference is about 2e-616; the estimate and its std_error are 0
        code, report, _ = run_json(
            capsys, "simulate", "--suite", "laplace", "--s", "1e308", "--n", "2",
            "--samples", "10000", "--seed", "1")
        assert code == EXIT_FAILURE
        (row,) = report["rows"]
        assert row["estimate"] == row["std_error"] == "0"
        assert row["pass"] is False

    def test_huge_s_writes_nothing_to_stderr(self, capsys):
        # -s*X overflows to -inf there; exp(-inf) = 0 needs no warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "simulate", "--suite", "laplace", "--s", "1e308", "--n", "2",
                "--samples", "10000", "--seed", "1")
        assert code == EXIT_FAILURE  # the reference underflows float64
        assert out and err == ""
        assert caught == []

    @pytest.mark.parametrize("flag,value", [("--s", "-1"), ("--s", "0"), ("--m", "0")])
    def test_every_suite_checks_s_and_m(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "simulate", "--suite", "lemma1", flag, value,
            "--samples", "10000", "--seed", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert f"{flag} must be" in err

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

    def test_bad_seed_env_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        code, out, err = run_cli(
            capsys, "simulate", "--suite", "tail", "--n", "1", "--samples", "10000")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"binomax: error: ${SEED_ENV_VAR} must be an integer, got 'abc'\n"

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


def _sum_without_the_last_term(n, rng, size):
    # x / inf = 0: the Exp(n) term drops out, so the rates run 1..n-1
    rates = np.arange(1, n + 1, dtype=np.float64)
    rates[-1] = np.inf
    return montecarlo._reduced_exp(rng, size, n, montecarlo._row_sums_over(rates))


_gamma, _maxima = montecarlo.sample_gamma_integer, montecarlo.sample_max_exp
# Each planted sampler defect: (module, attribute, replacement).
DEFECTS = {
    "sum-drops-last-rate": (cli, "sample_sum_exp", _sum_without_the_last_term),
    "gamma-shape-m-plus-1": (montecarlo, "sample_gamma_integer",
                             lambda m, s, rng, size: _gamma(m + 1, s, rng, size)),
    "gamma-rate-times-1.05": (montecarlo, "sample_gamma_integer",
                              lambda m, s, rng, size: _gamma(m, s * 1.05, rng, size)),
    "maxima-times-1.05": (montecarlo, "sample_max_exp",
                          lambda n, rng, size: _maxima(n, rng, size) * 1.05),
}


class TestGatesHaveTeeth:
    """Each simulate gate fails on a planted sampler defect at the CLI's
    default sizes, and passes at the same seed without it: a gate that no
    defect can fail would be vacuous."""

    @pytest.mark.parametrize("suite,defect", [
        (suite, defect) for suite, defects in [
            ("lemma1", ["sum-drops-last-rate"]),
            ("tail", ["gamma-shape-m-plus-1", "gamma-rate-times-1.05"]),
            ("laplace", ["maxima-times-1.05"]),
        ] for defect in ["clean"] + defects
    ])
    def test_planted_defect_fails_the_gate(self, capsys, monkeypatch, suite, defect):
        if defect != "clean":
            monkeypatch.setattr(*DEFECTS[defect])
        code = run_cli(capsys, "simulate", "--suite", suite, "--seed", "1")[0]
        assert code == (EXIT_OK if defect == "clean" else EXIT_FAILURE)


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


    def test_unwritable_output_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(
            capsys, "verify", "--identity", "basic", "--s", "2", "--n", "3", "--output", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("binomax: error: ")


class TestUsage:
    @pytest.mark.parametrize("seed_env,argv,flag", [
        (None, ("simulate", "--suite", "tail", "--n", "1", "--seed", "-1"), "--seed"),
        (None, ("simulate", "--suite", "tail", "--n", "1", "--seed", str(2**64)), "--seed"),
        ("-5", ("simulate", "--suite", "tail", "--n", "1"), f"${SEED_ENV_VAR}"),
        (None, ("quadrature", "--s", "abc", "--n", "1"), "--s"),
        (None, ("simulate", "--suite", "tail", "--s", "abc", "--n", "1"), "--s"),
        # numpy refuses 8 PB at once, without touching memory
        (None, ("simulate", "--suite", "lemma1", "--n", "1", "--samples", str(10**15)), "--samples"),
        (None, ("verify", "--s", "abc"), "--s"),
        (None, ("verify", "--s", "0", "--n", "1"), "--s"),
        (None, ("verify", "--n", "abc"), "--n"),
        (None, ("simulate", "--suite", "lemma1", "--n", "x"), "--n"),
        (None, ("quadrature", "--n", "1..x"), "--n"),
        (None, ("verify", "--m", "0"), "--m"),
        # an explicitly empty value is a usage error, not the default grid
        (None, ("verify", "--s", ""), "--s"),
        (None, ("verify", "--n", ""), "--n"),
        (None, ("verify", "--m", ""), "--m"),
        (None, ("simulate", "--suite", "lemma1", "--n", ""), "--n"),
    ], ids=["seed-negative", "seed-too-large", "seed-env-negative", "quadrature-s-text",
            "simulate-s-text", "samples-beyond-memory", "verify-s-text", "verify-s-zero",
            "verify-n-text", "simulate-n-text", "quadrature-n-text", "verify-m-zero",
            "verify-s-empty", "verify-n-empty", "verify-m-empty", "simulate-n-empty"])
    def test_bad_input_is_one_line_naming_its_flag(self, capsys, monkeypatch, seed_env, argv, flag):
        if seed_env is None:
            monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(SEED_ENV_VAR, seed_env)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("binomax: error:")
        assert f"{flag} " in line  # the space keeps --s from matching --samples

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
        ("simulate", "--suite", "tail", "--s", "Infinity"),
        ("quadrature", "--s", "1,inf", "--n", "1"),
        ("quadrature", "--s", "nan", "--n", "1"),
    ])
    def test_non_finite_s_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("argv", [
        ("simulate", "--suite", "tail", "--s", "1" + "0" * 400, "--n", "1"),
        ("simulate", "--suite", "laplace", "--s", "1" + "0" * 400),
        ("quadrature", "--s", "1" + "0" * 400, "--n", "1"),
        ("quadrature", "--s", "1,1e400", "--n", "3"),
        ("simulate", "--suite", "tail", "--s", "1e400", "--n", "1"),
        ("simulate", "--suite", "laplace", "--s", "1" + "0" * 400 + "/3"),
    ], ids=["simulate-tail", "simulate-laplace", "quadrature", "quadrature-decimal",
            "simulate-decimal", "simulate-ratio"])
    def test_s_beyond_float_range_is_usage_error(self, capsys, argv):
        # s is finite, but its float is not: one message for every spelling
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--s {argv[argv.index('--s') + 1].split(',')[-1]} is beyond the float64 range" in err

    @pytest.mark.parametrize("argv", [
        ("quadrature", "--s", "1/1" + "0" * 400, "--n", "3"),
        ("simulate", "--suite", "tail", "--s", "1/1" + "0" * 400, "--n", "1"),
        ("simulate", "--suite", "laplace", "--s", "1/1" + "0" * 400, "--n", "2",
         "--samples", "10000", "--seed", "1"),
        ("quadrature", "--s", "1e-400", "--n", "3"),
        ("simulate", "--suite", "tail", "--s", "1e-400", "--n", "1"),
    ], ids=["quadrature", "simulate-tail", "simulate-laplace", "quadrature-decimal",
            "simulate-decimal"])
    def test_s_below_float_range_is_usage_error(self, capsys, argv):
        # s > 0 exactly, but its float is 0: the float routes would run at s = 0
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "below the float64 range" in err

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

    @pytest.mark.parametrize("argv", [
        ("verify", "--identity", "basic", "--n", "0..1000000000000"),
        ("verify", "--identity", "general_m", "--n", "1", "--m", "1..1000000000000"),
        ("quadrature", "--s", "1", "--n", "0..1000000000000"),
        ("simulate", "--suite", "lemma1", "--n", "0..1000000000000"),
    ], ids=["verify", "verify-m", "quadrature", "simulate"])
    def test_huge_grid_is_usage_error(self, capsys, argv):
        # counted before it is expanded, so this returns at once
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"more than {MAX_GRID_VALUES}" in err

    def test_grid_limit_is_inclusive(self):
        assert len(_parse_int_list(f"1..{MAX_GRID_VALUES}", "n")) == MAX_GRID_VALUES
        with pytest.raises(ValueError, match="more than"):
            _parse_int_list(f"0..{MAX_GRID_VALUES - 1},0", "n")
