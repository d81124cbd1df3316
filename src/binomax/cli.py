"""Command-line front end.

Three subcommands, each emitting a machine-readable report (JSON, CSV,
or a markdown table) that embeds the manifest which produced it:

  verify      exact identity sweeps (exit 2 on any lhs != rhs)
  quadrature  both Laplace integral routes against the exact value
  simulate    seeded Monte Carlo suites with statistical gates

Exit codes: 0 all checks passed, 1 usage or precondition error,
2 verification / gate failure.  Exact values are rendered as "p/q"
strings and floats with 17 significant digits.  Seeded simulate runs
are pure functions of their parameters, so their reports are
byte-identical across reruns (their manifest carries a null timestamp).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from decimal import Decimal
from fractions import Fraction

from . import __version__
from .errors import ToleranceNotMet
from .exact import check_natural, check_positive, format_rational, parse_rational
from .identities import DEFAULT_S_GRID, IdentityId, _basic_rhs_pair, sweep
from .montecarlo import (
    RngConfig,
    _check_samples,
    empirical_laplace,
    estimate_tail_prob,
    ks_two_sample,
    sample_max_exp,
    sample_sum_exp,
)
from .quadrature import (
    TOLERANCE_FLOOR,
    laplace_via_cdf_quadrature,
    laplace_via_density_quadrature,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2

SEED_ENV_VAR = "BINOMAX_SEED"
KS_ALPHA = 0.01
SIGMA_GATE = 4.0
#: Most values an --n or --m list may expand to; counted before expanding.
MAX_GRID_VALUES = 100_000


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for
    # verification failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _manifest(command: str, parameters: dict, seed: int | None = None) -> dict:
    # A seeded report is a pure function of its parameters: no timestamp.
    stamp = None if seed is not None else datetime.now(timezone.utc).isoformat(timespec="seconds")
    return {"command": command, "parameters": parameters, "seed": seed,
            "tool_version": __version__, "timestamp": stamp}


def _fmt(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return value


def _render(head: dict, rows: list[dict], fmt: str) -> str:
    rows = [{k: _fmt(v) for k, v in row.items()} for row in rows]
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
    if fmt == "md":
        lines = ["manifest: `" + json.dumps(head, separators=(",", ":")) + "`", ""]
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("| " + " | ".join("---" for _ in columns) + " |")
        for row in rows:
            cells = ["" if v is None else str(v) for v in row.values()]
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _parse_int_list(text: str, name: str, minimum: int = 0) -> list[int]:
    """Accept 'N', 'A..B' (inclusive), or a comma list of integers.

    An empty result (say '5..1') is an error: a grid with no points
    would pass every check without checking anything.  So is one of more
    than MAX_GRID_VALUES values, which is counted before it is built.
    """
    spans: list[tuple[int, int]] = []
    try:
        for part in text.split(","):
            lo, dots, hi = part.strip().partition("..")
            spans.append((int(lo), int(hi) if dots else int(lo)))
    except ValueError:
        raise ValueError(f"cannot parse {name} list {text!r}") from None
    count = sum(max(0, hi - lo + 1) for lo, hi in spans)
    if count > MAX_GRID_VALUES:
        raise ValueError(f"{name} list {text!r} has {count} values, more than {MAX_GRID_VALUES}")
    out = [v for lo, hi in spans for v in range(lo, hi + 1)]
    if not out:
        raise ValueError(f"{name} list {text!r} is empty")
    for v in out:
        if v < minimum:
            raise ValueError(f"{name} values must be >= {minimum}, got {v}")
    return out


def _parse_rational_loose(text: str) -> Fraction:
    """'p/q', integer, or decimal (its exact float value); finite, > 0, and
    within the float64 range, neither 0 nor infinite as a float."""
    try:
        value = parse_rational(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"--s {text!r} is not 'p/q', an integer or a decimal") from None
        if value == 0 and Decimal(text) > 0:  # a positive decimal whose float underflows
            value = Fraction(Decimal(text))
        if value == math.inf and Decimal(text).is_finite():  # a decimal whose float overflows
            raise ValueError(f"--s {text} is beyond the float64 range") from None
    s = Fraction(check_positive(value, "--s"))
    try:
        tiny = float(s) == 0
    except OverflowError:
        raise ValueError(f"--s {text} is beyond the float64 range") from None
    if tiny:
        raise ValueError(f"--s {text} is below the float64 range")
    return s


def _parse_exact_s(text: str) -> Fraction:
    """'p/q' or an integer, > 0: verify's --s takes exact values only."""
    try:
        value = parse_rational(text)
    except ValueError as exc:
        raise ValueError(f"--s {exc}") from None
    return check_positive(value, "--s")


def _cmd_verify(args) -> tuple[dict, list[dict], bool]:
    identities = list(IdentityId) if args.identity == "all" else [IdentityId(args.identity)]
    s_grid = ([_parse_exact_s(tok) for tok in args.s.split(",")] if args.s is not None
              else list(DEFAULT_S_GRID))
    explicit_n = _parse_int_list(args.n, "--n") if args.n is not None else None
    explicit_m = _parse_int_list(args.m, "--m", minimum=1) if args.m is not None else None

    reports = sweep(identities, s_grid, explicit_n, explicit_m)
    rows = [
        {
            "identity": r.identity.value,
            "s": r.params.s,
            "n": r.params.n,
            "m": r.params.m,
            "lhs": r.lhs,
            "rhs": r.rhs,
            "equal": r.equal,
        }
        for r in reports
    ]
    manifest = _manifest("verify", {
        "identity": args.identity,
        "s": ",".join(format_rational(s) for s in s_grid),
        "n": args.n or "default",
        "m": args.m or "default",
        "format": args.format,
    })
    return manifest, rows, all(r.equal for r in reports)


def _cmd_quadrature(args) -> tuple[dict, list[dict], bool]:
    tol = args.tol
    # A row passes when each route is within 10*tol of the exact value in
    # (0, 1]; from 10*tol >= 1 on, that gate would pass any value in [0, 1].
    if not (tol >= TOLERANCE_FLOOR and 10 * tol < 1):
        raise ValueError(f"--tol must be >= {TOLERANCE_FLOOR:g} and < 0.1, got {tol:g}")
    s_values = [float(_parse_rational_loose(tok)) for tok in args.s.split(",")]
    n_values = _parse_int_list(args.n, "--n")

    rows = []
    for n in sorted(set(n_values)):
        for s in sorted(set(s_values)):
            num, den = _basic_rhs_pair(s, n)
            exact = num / den  # correctly rounded: float(eval_basic_rhs(s, n)) without the gcd
            row = {
                "s": s, "n": n, "exact": exact,
                "cdf_value": None, "cdf_abs_error": None, "cdf_evaluations": None,
                "density_value": None, "density_abs_error": None, "density_evaluations": None,
                "pass": False, "note": "",
            }
            routes = [("cdf", laplace_via_cdf_quadrature)]
            if n >= 1:  # the density of the max exists only for n >= 1
                routes.append(("density", laplace_via_density_quadrature))
            ok = exact != 0  # 0 is a positive value below the float64 range
            notes = [] if ok else ["exact: below the float64 range, not checked"]
            for name, route in routes:  # one route's failure keeps the other's columns
                try:
                    result = route(s, n, tol)
                except ToleranceNotMet as exc:
                    ok = False
                    notes.append(f"{name}: {exc}")
                    continue
                error = abs(result.value - exact)
                row[f"{name}_value"] = result.value
                row[f"{name}_abs_error"] = error
                row[f"{name}_evaluations"] = result.evaluations
                ok = ok and error <= 10 * tol
            row["pass"], row["note"] = ok, "; ".join(notes)
            rows.append(row)
    manifest = _manifest("quadrature", {
        "s": args.s, "n": args.n, "tol": format(tol, ".17g"), "format": args.format,
    })
    return manifest, rows, all(row["pass"] for row in rows)


def _cmd_simulate(args) -> tuple[dict, list[dict], bool]:
    seed, source = args.seed, "--seed"
    if seed is None:
        text, source = os.environ.get(SEED_ENV_VAR, "0"), f"${SEED_ENV_VAR}"
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {text!r}") from None
    if not 0 <= seed < 2**64:
        raise ValueError(f"{source} must be a 64-bit unsigned integer, got {seed}")
    samples = args.samples
    _check_samples(samples, name="--samples")  # lemma1 calls no estimator that checks it
    s = _parse_rational_loose(args.s)
    check_natural(args.m, "--m", 1)
    # Canonical row order; streams follow it.
    n_values = sorted(set(_parse_int_list(args.n, "--n", minimum=1))) if args.n is not None else None

    rows = []
    if args.suite == "lemma1":
        for idx, n in enumerate(n_values or [1, 2, 5, 10]):
            xs = sample_max_exp(n, RngConfig(seed, 2 * idx).generator(), size=samples)
            ys = sample_sum_exp(n, RngConfig(seed, 2 * idx + 1).generator(), size=samples)
            ks = ks_two_sample(xs, ys)
            rows.append({
                "suite": "lemma1", "n": n, "samples": samples, "seed": seed,
                "streams": f"{2 * idx},{2 * idx + 1}",
                "ks_statistic": ks.statistic, "p_value": ks.p_value,
                "alpha": KS_ALPHA, "pass": ks.p_value > KS_ALPHA,
            })
    else:  # tail or laplace: one estimate per n against its exact reference
        tail = args.suite == "tail"
        for idx, n in enumerate(n_values or ([2] if tail else [1, 2])):
            if tail:
                est = estimate_tail_prob(args.m, s, n, samples, RngConfig(seed, idx))
            else:
                est = empirical_laplace(s, n, samples, RngConfig(seed, idx))
            rows.append({
                "suite": args.suite, **({"m": args.m} if tail else {}), "s": s, "n": n,
                "samples": samples, "seed": seed, "stream": idx,
                "estimate": est.estimate, "std_error": est.std_error,
                "exact": est.exact_reference, "sigma_gate": SIGMA_GATE,
                "pass": est.within_sigma(SIGMA_GATE),
            })
    manifest = _manifest("simulate", {
        "suite": args.suite,
        "n": args.n or "default",
        "m": str(args.m),
        "s": format_rational(s),
        "samples": str(samples),
        "format": args.format,
    }, seed=seed)
    return manifest, rows, all(row["pass"] for row in rows)


def _build_parser() -> _Parser:
    parser = _Parser(prog="binomax", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "md"], default="json")
    common.add_argument("--output", default=None, help="write the report here instead of stdout")

    p_verify = sub.add_parser("verify", parents=[common], help="exact identity verification sweep")
    p_verify.add_argument("--identity", default="all",
                          choices=["all"] + [i.value for i in IdentityId])
    p_verify.add_argument("--s", default=None,
                          help="comma list of exact rationals, e.g. '1/7,1/2,2' (no decimals)")
    p_verify.add_argument("--n", default=None, help="int, 'A..B', or comma list")
    p_verify.add_argument("--m", default=None, help="int, 'A..B', or comma list (shape-dependent identities)")
    p_verify.set_defaults(func=_cmd_verify)

    p_quad = sub.add_parser("quadrature", parents=[common],
                            help="quadrature of both integral routes vs exact")
    p_quad.add_argument("--s", default="0.5,1,2,10",
                        help="comma list of positive reals: 'p/q', integer, or decimal")
    p_quad.add_argument("--n", default="1..30", help="int, 'A..B', or comma list")
    p_quad.add_argument("--tol", type=float, default=1e-10)
    p_quad.set_defaults(func=_cmd_quadrature)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="seeded Monte Carlo suites with statistical gates")
    p_sim.add_argument("--suite", required=True, choices=["lemma1", "tail", "laplace"])
    p_sim.add_argument("--n", default=None, help="int, 'A..B', or comma list (n >= 1)")
    p_sim.add_argument("--m", type=int, default=1, help="gamma shape (tail suite)")
    p_sim.add_argument("--s", default="1", help="rate: 'p/q', integer, or decimal")
    p_sim.add_argument("--samples", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=None,
                       help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:  # each command returns (manifest, rows, ok); only main writes reports
        manifest, rows, ok = args.func(args)
        text = _render(manifest, rows, args.format)
        if args.output:
            with open(args.output, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OverflowError, OSError) as exc:  # bad input, s past float64, --output
        print(f"binomax: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy refuses an array it cannot allocate, before drawing
        sizes = "--samples or --n" if args.command == "simulate" else "--n"
        print(f"binomax: error: out of memory ({str(exc) or 'no detail'}); lower {sizes}",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if ok else EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
