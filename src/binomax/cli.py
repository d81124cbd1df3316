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
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .errors import (
    InsufficientSamples,
    NonPositiveS,
    NRequired,
    ToleranceNotMet,
    UnknownIdentity,
)
from .exact import format_rational, parse_rational
from .identities import DEFAULT_S_GRID, IdentityId, eval_basic_rhs, sweep
from .montecarlo import (
    MIN_SAMPLES,
    RngConfig,
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


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for
    # verification failures, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunManifest:
    command: str
    parameters: dict
    seed: int | None
    tool_version: str
    timestamp: str | None


def _manifest(command: str, parameters: dict, seed: int | None = None,
              deterministic: bool = False) -> RunManifest:
    stamp = None if deterministic else datetime.now(timezone.utc).isoformat(timespec="seconds")
    return RunManifest(command, parameters, seed, __version__, stamp)


def _fmt(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return value


def _render(manifest: RunManifest, rows: list[dict], fmt: str) -> str:
    rows = [{k: _fmt(v) for k, v in row.items()} for row in rows]
    head = asdict(manifest)
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


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_int_list(text: str, name: str, minimum: int = 0) -> list[int]:
    """Accept 'N', 'A..B' (inclusive), or a comma list of integers.

    An empty result (say '5..1') is an error: a grid with no points
    would pass every check without checking anything.
    """
    out: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if ".." in part:
                lo, hi = part.split("..")
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(part))
    except ValueError:
        raise ValueError(f"cannot parse {name} list {text!r}") from None
    if not out:
        raise ValueError(f"{name} list {text!r} is empty")
    for v in out:
        if v < minimum:
            raise ValueError(f"{name} values must be >= {minimum}, got {v}")
    return out


def _parse_finite(text: str) -> float:
    """A decimal as a float; 'inf', 'nan' and overflowing values are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"s must be a finite number, got {text!r}")
    return value


def _parse_rational_loose(text: str) -> Fraction:
    """'p/q', integer, or decimal; decimals map to their exact float value."""
    try:
        return parse_rational(text)
    except ValueError:
        return Fraction(_parse_finite(text))


def _resolve_seed(seed_arg: int | None) -> int:
    if seed_arg is not None:
        return seed_arg
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    return 0


def _cmd_verify(args) -> int:
    if args.identity == "all":
        identities = list(IdentityId)
    else:
        identities = [IdentityId(args.identity)]
    s_grid = [parse_rational(tok) for tok in args.s.split(",")] if args.s else list(DEFAULT_S_GRID)
    explicit_n = _parse_int_list(args.n, "n") if args.n else None
    explicit_m = _parse_int_list(args.m, "m", minimum=1) if args.m else None

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
    all_equal = all(r.equal for r in reports)
    manifest = _manifest("verify", {
        "identity": args.identity,
        "s": ",".join(format_rational(s) for s in s_grid),
        "n": args.n or "default",
        "m": args.m or "default",
        "format": args.format,
    })
    _emit(_render(manifest, rows, args.format), args.output)
    return EXIT_OK if all_equal else EXIT_FAILURE


def _cmd_quadrature(args) -> int:
    tol = args.tol
    if not tol >= TOLERANCE_FLOOR:
        raise ValueError(f"--tol must be >= {TOLERANCE_FLOOR:g}, got {tol:g}")
    s_values = [_parse_finite(tok) for tok in args.s.split(",")]
    if any(s <= 0 for s in s_values):
        raise NonPositiveS("--s values must be > 0")
    n_values = _parse_int_list(args.n, "n")

    rows = []
    all_pass = True
    for n in sorted(set(n_values)):
        for s in sorted(set(s_values)):
            exact = float(eval_basic_rhs(Fraction(s), n))
            row = {
                "s": s, "n": n, "exact": exact,
                "cdf_value": None, "cdf_abs_error": None, "cdf_evaluations": None,
                "density_value": None, "density_abs_error": None, "density_evaluations": None,
                "pass": False, "note": "",
            }
            try:
                cdf = laplace_via_cdf_quadrature(s, n, tol)
                row.update({
                    "cdf_value": cdf.value,
                    "cdf_abs_error": abs(cdf.value - exact),
                    "cdf_evaluations": cdf.evaluations,
                })
                ok = abs(cdf.value - exact) <= 10 * tol
                if n >= 1:
                    dens = laplace_via_density_quadrature(s, n, tol)
                    row.update({
                        "density_value": dens.value,
                        "density_abs_error": abs(dens.value - exact),
                        "density_evaluations": dens.evaluations,
                    })
                    ok = ok and abs(dens.value - exact) <= 10 * tol
                row["pass"] = ok
            except ToleranceNotMet as exc:
                row["note"] = str(exc)
            all_pass &= row["pass"]
            rows.append(row)
    manifest = _manifest("quadrature", {
        "s": args.s, "n": args.n, "tol": format(tol, ".17g"), "format": args.format,
    })
    _emit(_render(manifest, rows, args.format), args.output)
    return EXIT_OK if all_pass else EXIT_FAILURE


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    samples = args.samples
    if samples < MIN_SAMPLES:
        raise InsufficientSamples(f"--samples must be >= {MIN_SAMPLES}, got {samples}")
    s = _parse_rational_loose(args.s)
    n_values = _parse_int_list(args.n, "n", minimum=1) if args.n else None

    if n_values is not None:
        n_values = sorted(set(n_values))  # canonical row order; streams follow it

    rows = []
    all_pass = True
    if args.suite == "lemma1":
        for idx, n in enumerate(n_values or [1, 2, 5, 10]):
            xs = sample_max_exp(n, RngConfig(seed, 2 * idx).generator(), size=samples)
            ys = sample_sum_exp(n, RngConfig(seed, 2 * idx + 1).generator(), size=samples)
            ks = ks_two_sample(xs, ys)
            ok = ks.p_value > KS_ALPHA
            all_pass &= ok
            rows.append({
                "suite": "lemma1", "n": n, "samples": samples, "seed": seed,
                "streams": f"{2 * idx},{2 * idx + 1}",
                "ks_statistic": ks.statistic, "p_value": ks.p_value,
                "alpha": KS_ALPHA, "pass": ok,
            })
    elif args.suite == "tail":
        for idx, n in enumerate(n_values or [2]):
            est = estimate_tail_prob(args.m, s, n, samples, RngConfig(seed, idx))
            ok = est.within_sigma(SIGMA_GATE)
            all_pass &= ok
            rows.append({
                "suite": "tail", "m": args.m, "s": s, "n": n,
                "samples": samples, "seed": seed, "stream": idx,
                "estimate": est.estimate, "std_error": est.std_error,
                "exact": est.exact_reference, "sigma_gate": SIGMA_GATE, "pass": ok,
            })
    else:  # laplace
        for idx, n in enumerate(n_values or [1, 2]):
            est = empirical_laplace(s, n, samples, RngConfig(seed, idx))
            ok = est.within_sigma(SIGMA_GATE)
            all_pass &= ok
            rows.append({
                "suite": "laplace", "s": s, "n": n,
                "samples": samples, "seed": seed, "stream": idx,
                "estimate": est.estimate, "std_error": est.std_error,
                "exact": est.exact_reference, "sigma_gate": SIGMA_GATE, "pass": ok,
            })
    manifest = _manifest("simulate", {
        "suite": args.suite,
        "n": args.n or "default",
        "m": str(args.m),
        "s": format_rational(s),
        "samples": str(samples),
        "format": args.format,
    }, seed=seed, deterministic=True)
    _emit(_render(manifest, rows, args.format), args.output)
    return EXIT_OK if all_pass else EXIT_FAILURE


def _build_parser() -> _Parser:
    parser = _Parser(prog="binomax", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = {"--format": dict(choices=["json", "csv", "md"], default="json"),
              "--output": dict(default=None, help="write the report here instead of stdout")}

    p_verify = sub.add_parser("verify", help="exact identity verification sweep")
    p_verify.add_argument("--identity", default="all",
                          choices=["all"] + [i.value for i in IdentityId])
    p_verify.add_argument("--s", default=None,
                          help="comma list of exact rationals, e.g. '1/7,1/2,2' (no decimals)")
    p_verify.add_argument("--n", default=None, help="int, 'A..B', or comma list")
    p_verify.add_argument("--m", default=None, help="int, 'A..B', or comma list (shape-dependent identities)")
    for flag, kw in common.items():
        p_verify.add_argument(flag, **kw)
    p_verify.set_defaults(func=_cmd_verify)

    p_quad = sub.add_parser("quadrature", help="quadrature of both integral routes vs exact")
    p_quad.add_argument("--s", default="0.5,1,2,10", help="comma list of positive reals")
    p_quad.add_argument("--n", default="1..30", help="int, 'A..B', or comma list")
    p_quad.add_argument("--tol", type=float, default=1e-10)
    for flag, kw in common.items():
        p_quad.add_argument(flag, **kw)
    p_quad.set_defaults(func=_cmd_quadrature)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo suites with statistical gates")
    p_sim.add_argument("--suite", required=True, choices=["lemma1", "tail", "laplace"])
    p_sim.add_argument("--n", default=None, help="int, 'A..B', or comma list (n >= 1)")
    p_sim.add_argument("--m", type=int, default=1, help="gamma shape (tail suite)")
    p_sim.add_argument("--s", default="1", help="rate: 'p/q', integer, or decimal")
    p_sim.add_argument("--samples", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=None,
                       help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    for flag, kw in common.items():
        p_sim.add_argument(flag, **kw)
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (NonPositiveS, NRequired, InsufficientSamples, UnknownIdentity, ValueError) as exc:
        print(f"binomax: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
