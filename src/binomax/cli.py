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
import json
import math
import os
import sys
from contextlib import nullcontext
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
    _ks_sorted,
    empirical_laplace,
    estimate_tail_prob,
    sample_max_exp,
    sample_sum_exp,
)
from .quadrature import TOLERANCE_FLOOR, _cdf_batch, _density_batch

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2

SEED_ENV_VAR = "BINOMAX_SEED"
KS_ALPHA = 0.01
SIGMA_GATE = 4.0
#: Most values an --n or --m list may expand to; counted before expanding.
MAX_GRID_VALUES = 100_000


def _manifest(args, parameters: dict, seed: int | None = None) -> dict:
    # A seeded report is a pure function of its parameters: no timestamp.
    stamp = None if seed is not None else datetime.now(timezone.utc).isoformat(timespec="seconds")
    return {"command": args.command, "parameters": {**parameters, "format": args.format},
            "seed": seed, "tool_version": __version__, "timestamp": stamp}


def _cell(value, quote=None) -> str:
    """The one cell rule of every format: a rational as "p/q", a float to 17
    significant digits, booleans as true/false, None empty (null in JSON,
    whose ``quote`` also quotes the text cells), anything else by str."""
    if value is None:
        return "null" if quote else ""
    if isinstance(value, int):
        return ("true" if value else "false") if isinstance(value, bool) else str(value)
    text = (format_rational(value) if isinstance(value, Fraction)
            else format(value, ".17g") if isinstance(value, float) else str(value))
    return quote(text) if quote else text


def _write_report(out, head: dict, rows: list[dict], fmt: str) -> None:
    """Write the report to ``out`` row by row; JSON in ``json.dumps(indent=2)``'s layout."""
    compact = json.dumps(head, separators=(",", ":"))
    columns = list(rows[0]) if rows else []
    if fmt == "json":
        quote = json.encoder.encode_basestring_ascii
        out.write('{\n  "manifest": ' + json.dumps(head, indent=2).replace("\n", "\n  ")
                  + ',\n  "rows": [')
        for i, row in enumerate(rows):
            fields = ",\n".join(f"      {quote(k)}: {_cell(v, quote)}" for k, v in row.items())
            out.write(("," if i else "") + "\n    {\n" + fields + "\n    }")
        out.write("\n  ]\n}\n" if rows else "]\n}\n")
    elif fmt == "csv":
        out.write(f"# manifest: {compact}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row.values()] for row in rows)
    else:  # md
        out.write(f"manifest: `{compact}`\n\n| " + " | ".join(columns) + " |\n| "
                  + " | ".join("---" for _ in columns) + " |\n")
        for row in rows:
            out.write("| " + " | ".join(_cell(v) for v in row.values()) + " |\n")


def _parse_int_list(text: str, name: str, minimum: int = 0) -> list[int]:
    """Accept 'N', 'A..B' (inclusive), or a comma list of these, and return
    the set of its values in ascending order: a repeated value is one grid point.

    An empty span (say '5..1'), even inside a list, is an error: it would
    check nothing, and on its own would pass every check.  So is a list of
    more than MAX_GRID_VALUES values, which is counted before it is built.
    """
    spans: list[tuple[int, int]] = []
    for part in map(str.strip, text.split(",")):
        lo, dots, hi = part.partition("..")
        try:
            span = (int(lo), int(hi) if dots else int(lo))
        except ValueError:
            raise ValueError(f"cannot parse {name} list {text!r}") from None
        if span[1] < span[0]:
            raise ValueError(f"{name} span {part!r} in {text!r} is empty")
        spans.append(span)
    count = sum(hi - lo + 1 for lo, hi in spans)
    if count > MAX_GRID_VALUES:
        raise ValueError(f"{name} list {text!r} has {count} values, more than {MAX_GRID_VALUES}")
    for lo, _ in spans:
        if lo < minimum:
            raise ValueError(f"{name} values must be >= {minimum}, got {lo}")
    return sorted({v for lo, hi in spans for v in range(lo, hi + 1)})


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
        if value in (0, math.inf) and 0 < Decimal(text) < math.inf:  # its float under- or overflows
            side = "below" if value == 0 else "beyond"
            raise ValueError(f"--s {text} is {side} the float64 range")
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
    s_grid = (list(dict.fromkeys(map(_parse_exact_s, args.s.split(",")))) if args.s is not None
              else list(DEFAULT_S_GRID))  # each s once, in the order the manifest echoes
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
    manifest = _manifest(args, {
        "identity": args.identity,
        "s": ",".join(format_rational(s) for s in s_grid),
        "n": args.n or "default",
        "m": args.m or "default",
    })
    return manifest, rows, all(r.equal for r in reports)


def _cmd_quadrature(args) -> tuple[dict, list[dict], bool]:
    tol = args.tol
    # A row passes when each route is within 10*tol of the exact value in
    # (0, 1]; from 10*tol >= 1 on, that gate would pass any value in [0, 1].
    if not (tol >= TOLERANCE_FLOOR and 10 * tol < 1):
        raise ValueError(f"--tol must be >= {TOLERANCE_FLOOR:g} and < 0.1, got {tol:g}")
    s_values = sorted({float(_parse_rational_loose(tok)) for tok in args.s.split(",")})
    n_values = _parse_int_list(args.n, "--n")
    density_n = [n for n in n_values if n >= 1]  # the density of the max exists only for n >= 1

    results = {}  # (route, s, n) -> its result, or the ToleranceNotMet it raised
    for s in s_values:  # one batch per route and s: its integrals share one interval
        for name, batch, ns in (("cdf", _cdf_batch, n_values), ("density", _density_batch, density_n)):
            results.update(((name, s, n), result) for n, result in zip(ns, batch(s, ns, tol)))
    rows = []
    for n in n_values:
        for s in s_values:
            num, den = _basic_rhs_pair(s, n)
            exact = num / den  # correctly rounded: float(eval_basic_rhs(s, n)) without the gcd
            row = {
                "s": s, "n": n, "exact": exact,
                "cdf_value": None, "cdf_abs_error": None, "cdf_evaluations": None,
                "density_value": None, "density_abs_error": None, "density_evaluations": None,
                "pass": False, "note": "",
            }
            ok = exact != 0  # 0 is a positive value below the float64 range
            notes = [] if ok else ["exact: below the float64 range, not checked"]
            for name in ("cdf", "density") if n >= 1 else ("cdf",):
                result = results[name, s, n]  # a failed route leaves the other's columns
                if isinstance(result, ToleranceNotMet):
                    ok = False
                    notes.append(f"{name}: {result}")
                    continue
                error = abs(result.value - exact)
                row[f"{name}_value"] = result.value
                row[f"{name}_abs_error"] = error
                row[f"{name}_evaluations"] = result.evaluations
                ok = ok and error <= 10 * tol
            row["pass"], row["note"] = ok, "; ".join(notes)
            rows.append(row)
    manifest = _manifest(args, {"s": args.s, "n": args.n, "tol": format(tol, ".17g")})
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
    # Ascending distinct n, the canonical row order; streams follow it.
    n_values = _parse_int_list(args.n, "--n", minimum=1) if args.n is not None else None

    rows = []
    if args.suite == "lemma1":
        for idx, n in enumerate(n_values or [1, 2, 5, 10]):
            xs = sample_max_exp(n, RngConfig(seed, 2 * idx).generator(), size=samples)
            ys = sample_sum_exp(n, RngConfig(seed, 2 * idx + 1).generator(), size=samples)
            xs.sort()  # in place: ks_two_sample would sort copies of both
            ys.sort()
            ks = _ks_sorted(xs, ys)
            del xs, ys  # before the next row's draws
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
    manifest = _manifest(args, {
        "suite": args.suite,
        "n": args.n or "default",
        "m": str(args.m),
        "s": format_rational(s),
        "samples": str(samples),
    }, seed=seed)
    return manifest, rows, all(row["pass"] for row in rows)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="binomax", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

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
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:  # each command returns (manifest, rows, ok); only main writes reports
        manifest, rows, ok = args.func(args)
        with open(args.output, "w", newline="") if args.output else nullcontext(sys.stdout) as out:
            _write_report(out, manifest, rows, args.format)
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
