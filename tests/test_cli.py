import contextlib
import csv
import filecmp
import hashlib
import io
import json
import math
import tracemalloc
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
from binomax.exact import format_rational


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

    def test_repeated_grid_gives_the_rows_of_sweep(self, capsys):
        # the CLI and the library read a repeated grid the same way: one row
        # per distinct point, in the same order
        code, report, _ = run_json(capsys, "verify", "--identity", "tail_derivative_form",
                                   "--s", "3,1/2,3", "--n", "4,1,4", "--m", "2,1,2")
        assert code == EXIT_OK
        points = [(row["s"], row["n"], row["m"]) for row in report["rows"]]
        reports = identities.sweep([identities.IdentityId.TAIL_DERIVATIVE_FORM],
                                   [Fraction(3), Fraction(1, 2), Fraction(3)], [4, 1, 4], [2, 1, 2])
        assert points == [(format_rational(r.params.s), r.params.n, r.params.m) for r in reports]
        assert len(points) == 8

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

    def test_cdf_truncation_point_past_float_range_is_named(self, capsys):
        # ln(2/tol)/s overflows for s below about 1.3e-307 at the default tol
        code, report, _ = run_json(capsys, "quadrature", "--s", "1e-310", "--n", "1")
        assert code == EXIT_FAILURE
        (row,) = report["rows"]
        assert row["note"] == "cdf: truncation point T = ln(2/tol)/s overflows float64 at s = 1e-310"
        assert abs(float(row["density_value"]) - 1) <= 1e-9
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

    def test_integrand_past_the_batch_cap_keeps_its_bytes(self, capsys):
        # At s = 0.01 the cdf integrand at n = 10000 fails at depth 60; one
        # level at a time it would hold more than 177 000 open intervals
        # and keep doubling, so it leaves the batch at quadrature._MAX_OPEN
        # and the recursion ends it at its first failure, as it always did.
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "quadrature", "--s", "0.01,1", "--n", "50,10000",
                                   "--tol", "1e-13", "--format", "csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_FAILURE
        body = out.split("\n", 1)[1]  # the lines after the manifest
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "4dbf5c1cacf7cb2a33be6866c7781d04c07cf8a56f0649d570443da681f8d9f7")
        assert "cdf: interval [8.9961, 8.9961] still above tolerance after 60 subdivisions" in body
        assert peak < 24 * 2**20

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

    def test_lemma1_holds_two_samples_and_one_draw_block(self, capsys):
        # each row's two samples are sorted in place and released before the
        # next row's draws; sorted copies would add two more samples
        samples, n = 1_000_000, 20
        block = min(montecarlo._CHUNK_ROWS, montecarlo._CHUNK_VALUES // n) * n * 8
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "simulate", "--suite", "lemma1", "--n", str(n),
                                 "--samples", str(samples), "--seed", "1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 2 * samples * 8 + block + 2 * 2**20

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
        assert "| 1/2 | 1/2 | true |" in lines[4]

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

    def test_failed_command_creates_no_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--s", "0", "--n", "1", "--output", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert not path.exists()

    # The parameters of each manifest in their written order.  test_golden.py
    # hashes JSON with sorted keys, so only this test sees that order.
    MANIFEST_CASES = {
        "verify": (["verify", "--identity", "basic", "--s", "1", "--n", "1"],
                   ["identity", "s", "n", "m", "format"]),
        "quadrature": (["quadrature", "--s", "1", "--n", "1"], ["s", "n", "tol", "format"]),
        "simulate": (["simulate", "--suite", "lemma1", "--n", "1", "--samples", "10000",
                      "--seed", "1"], ["suite", "n", "m", "s", "samples", "format"]),
    }

    @pytest.mark.parametrize("fmt", ["json", "csv", "md"])
    @pytest.mark.parametrize("command", MANIFEST_CASES)
    def test_manifest_names_its_command_and_pins_its_parameters(self, capsys, command, fmt):
        argv, keys = self.MANIFEST_CASES[command]
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == EXIT_OK
        first = out.split("\n", 1)[0]
        manifest = (json.loads(out)["manifest"] if fmt == "json"
                    else json.loads(first.removeprefix("# manifest: ")) if fmt == "csv"
                    else json.loads(first.removeprefix("manifest: `").removesuffix("`")))
        assert manifest["command"] == command
        assert list(manifest["parameters"]) == keys
        assert manifest["parameters"]["format"] == fmt


def oracle_fmt(value):
    """The cell rule of the old whole-report renderer, kept as the oracle
    that ``cli._write_report`` must equal byte for byte."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return value


def oracle_render(head, rows, fmt):
    """The old renderer: a second list of string rows, then one string."""
    rows = [{k: oracle_fmt(v) for k, v in row.items()} for row in rows]
    if fmt == "json":
        return json.dumps({"manifest": head, "rows": rows}, indent=2) + "\n"
    columns = list(rows[0].keys()) if rows else []
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("# manifest: " + json.dumps(head, separators=(",", ":")) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if v is None else ("true" if v is True else "false" if v is False else v)
                             for v in row.values()])
        return buf.getvalue()
    lines = ["manifest: `" + json.dumps(head, separators=(",", ":")) + "`", ""]
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("| " + " | ".join("---" for _ in columns) + " |")
    for row in rows:
        cells = ["" if v is None else str(v) for v in row.values()]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def command_report(*argv):
    args = cli._build_parser().parse_args(list(argv))
    head, rows, _ = args.func(args)
    return head, rows


ODD_TEXT = 'a "quoted", comma\nthen a newline and \u00fc'
HEAD = {"command": "verify", "parameters": {"note": ODD_TEXT}, "seed": None,
        "tool_version": "0.1.0", "timestamp": None}
WRITER_CASES = {
    "empty": lambda: (HEAD, []),
    "none-bools-floats": lambda: (HEAD, [
        {"a": None, "b": True, "c": False, "d": 0.1, "e": -2.5e-300, "f": math.inf, "g": 7},
        {"a": 1.0, "b": False, "c": True, "d": None, "e": 0.0, "f": math.nan, "g": 0},
    ]),
    "rational-past-4300-digits": lambda: (HEAD, [
        {"lhs": Fraction(10**4400 + 1, 3**5), "rhs": Fraction(-(10**4301)), "equal": False},
    ]),
    "quadrature-note-and-underflow": lambda: command_report(
        "quadrature", "--s", "1e-20,1e300", "--n", "3", "--tol", "1e-10"),
    "lemma1-streams": lambda: command_report(
        "simulate", "--suite", "lemma1", "--n", "1,2", "--samples", "10000", "--seed", "1"),
    "odd-text": lambda: (HEAD, [{"note": ODD_TEXT, "n": 1}, {"note": "", "n": 2}]),
}


class TestWriter:
    """``_write_report`` writes the bytes of the old renderer, except that
    markdown booleans follow the one cell rule (true/false), and it holds
    no copy of the report while writing."""

    @pytest.mark.parametrize("fmt", ["json", "csv", "md"])
    @pytest.mark.parametrize("case", WRITER_CASES)
    def test_same_bytes_as_the_oracle(self, case, fmt):
        head, rows = WRITER_CASES[case]()
        expected_rows = rows if fmt != "md" else [
            {k: "true" if v is True else "false" if v is False else v for k, v in row.items()}
            for row in rows]
        out = io.StringIO()
        cli._write_report(out, head, rows, fmt)
        assert out.getvalue() == oracle_render(head, expected_rows, fmt)

    def test_cases_reach_every_cell_kind(self):
        head, rows = WRITER_CASES["quadrature-note-and-underflow"]()
        assert rows[0]["note"] and rows[0]["cdf_value"] is None
        assert rows[1]["exact"] == 0 and rows[1]["note"]
        head, rows = WRITER_CASES["lemma1-streams"]()
        assert rows[0]["streams"] == "0,1"

    # The raw stdout of the golden lemma1 and tail runs.  test_golden.py
    # hashes the parsed JSON, which cannot see layout or CSV and markdown.
    GOLDEN_ARGV = {
        "lemma1": ["simulate", "--suite", "lemma1", "--n", "1,2,5", "--samples", "70000",
                   "--seed", "1"],
        "tail": ["simulate", "--suite", "tail", "--m", "3", "--s", "3/2", "--n", "1..2",
                 "--samples", "70000", "--seed", "1"],
    }
    RAW_DIGESTS = {
        ("lemma1", "json"): "3a68ce804dee4dcae7bfa0f4a77f8d943fd2e528e9881fd5bf0991867ebe840c",
        ("lemma1", "csv"): "a7767fd867bb0a2c0a4e992d0a0fc636f9ea5aa97ecce7397621ca9fef5e0230",
        ("lemma1", "md"): "bfb31a8f014c223f4c2e1ebf5ed027ad28fe0eb07dbfcba06071d238744d6a78",
        ("tail", "json"): "54f40ffeef0ab16d6b75e819a0a4f9a51ed7dae919bdef69b634776f0c6108ac",
        ("tail", "csv"): "7cf0e36d92e30c3b68edb78ceeee3b79fc8b5090fb0a821deea84e6b402f79d4",
        ("tail", "md"): "39f4f2a66ee9280321e516754840f471c09cf3621037f48bfd6e7bcbb3008915",
    }

    @pytest.mark.parametrize("name,fmt", RAW_DIGESTS)
    def test_raw_bytes_of_golden_runs(self, capsys, name, fmt):
        code, out, _ = run_cli(capsys, *self.GOLDEN_ARGV[name], "--format", fmt)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.RAW_DIGESTS[name, fmt]

    @pytest.fixture(scope="class")
    def general_m_reports(self):
        return identities.sweep([identities.IdentityId.GENERAL_M], [Fraction(997, 541)],
                                range(1, 81), range(1, 9))

    @pytest.mark.parametrize("fmt", ["json", "csv", "md"])
    def test_peak_memory_below_half_the_report(self, monkeypatch, tmp_path, general_m_reports, fmt):
        assert len(general_m_reports) >= 600
        monkeypatch.setattr(cli, "sweep", lambda *args: general_m_reports)
        path = tmp_path / f"report.{fmt}"
        tracemalloc.start()
        try:
            code = main(["verify", "--identity", "general_m", "--s", "997/541", "--n", "1..80",
                         "--m", "1..8", "--format", fmt, "--output", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < path.stat().st_size / 2


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

    @pytest.mark.parametrize("argv,usage", [
        (["--help"], "usage: binomax [-h]"),
        (["verify", "--help"], "usage: binomax verify [-h]"),
    ], ids=["top", "verify"])
    def test_help_exits_ok_on_stdout(self, capsys, argv, usage):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out.startswith(usage)
        assert err == ""

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ], ids=["unknown-flag", "no-command"])
    def test_argparse_error_text_with_usage_status(self, capsys, monkeypatch, argv, message):
        monkeypatch.setenv("COLUMNS", "80")  # so the usage line does not wrap
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == ("usage: binomax [-h] {verify,quadrature,simulate} ...\n"
                       f"binomax: error: {message}\n")

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
        # a reversed span inside a list is refused too, not skipped
        ("verify", "--identity", "basic", "--s", "1", "--n", "5..1,7"),
        ("quadrature", "--s", "1", "--n", "3..2,1"),
        ("simulate", "--suite", "lemma1", "--n", "2..1,5"),
    ], ids=["verify", "quadrature", "simulate", "verify-span-in-list",
            "quadrature-span-in-list", "simulate-span-in-list"])
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

    def test_int_list_is_the_ascending_set_of_its_values(self):
        assert _parse_int_list("5,1..3,2", "--n") == [1, 2, 3, 5]
        # the first value below the minimum is named, in the order written
        with pytest.raises(ValueError, match=r"--m values must be >= 1, got -2$"):
            _parse_int_list("3,-2..4,0", "--m", minimum=1)

    @pytest.mark.parametrize("argv,rows", [
        (("verify", "--identity", "basic", "--s", "1,1", "--n", "2,1,2"), [("1", "1"), ("2", "1")]),
        (("verify", "--identity", "general_m", "--s", "1", "--n", "1", "--m", "2,2"), [("1", "2")]),
    ], ids=["s-and-n", "m"])
    def test_repeated_grid_value_is_checked_once(self, capsys, argv, rows):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        head, columns, *body = out.splitlines()
        table = list(csv.DictReader([columns, *body]))
        assert [(row["n"], row["m"]) for row in table] == rows
        parameters = json.loads(head.removeprefix("# manifest: "))["parameters"]
        assert parameters["s"] == "1"
        flags = dict(zip(argv[1::2], argv[2::2]))
        assert (parameters["n"], parameters["m"]) == (flags["--n"], flags.get("--m", "default"))

    @pytest.mark.parametrize("argv", [
        ("quadrature", "--s", "1e-3000000", "--n", "3"),
        ("simulate", "--suite", "tail", "--s", "1e-3000000"),
    ], ids=["quadrature", "simulate"])
    def test_decimal_s_far_below_float_range_is_refused_from_its_text(self, capsys, argv):
        # decided from the decimal, without building its 10^3000000 denominator
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "binomax: error: --s 1e-3000000 is below the float64 range\n"
        assert peak < 2**20

    @pytest.mark.parametrize("argv", [
        ("simulate", "--suite", "lemma1", "--samples", "10000000000000000000", "--seed", "1"),
        ("simulate", "--suite", "lemma1", "--samples", "4611686018427387904"),
        ("simulate", "--suite", "tail", "--n", "10000000000000000000", "--samples", "10000"),
    ], ids=["samples-past-dimension", "samples-past-bytes", "n-past-dimension"])
    def test_size_past_numpy_index_range_names_its_flags(self, capsys, argv):
        # numpy's own refusal names no flag; the out-of-memory line does
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        (line,) = err.splitlines()
        assert line.startswith("binomax: error: out of memory (")
        assert line.endswith("; lower --samples or --n")

    def test_grid_limit_is_inclusive(self):
        assert len(_parse_int_list(f"1..{MAX_GRID_VALUES}", "n")) == MAX_GRID_VALUES
        with pytest.raises(ValueError, match="more than"):
            _parse_int_list(f"0..{MAX_GRID_VALUES - 1},0", "n")
