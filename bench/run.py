#!/usr/bin/env python3
"""binomax benchmark: end-to-end and per-layer metrics on three workloads.

Run from the repository root:

    python3 bench/run.py --workload verify-sums --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads in turn.  Each workload is a
fixed sequence of in-process ``binomax.cli.main`` invocations generated
from ``--seed`` (see README.md in this directory for why each was chosen):

  verify-sums  verify basic, squared, general_m, inversion_first,
               inversion_second, derivative_fg on the default n, m ranges
  verify-jets  verify tail_derivative_form on the same grid
  numeric      quadrature at tol 1e-12, then simulate lemma1, tail, laplace

The load is a closed loop with one client.  A pass runs the whole sequence
in a fresh single-threaded child interpreter (worker.py); with --trace 0
passes repeat until --seconds have elapsed (at least one) and the
end-to-end metrics are medians over passes.  With --trace 1 the run makes
one untraced and one traced pass and reports the per-layer metrics.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` (binomax invocations that raised,
exited 1 or wrote no report) and ``metrics``.  Output checks: rows are
complete, verify rows are equal and agree with closed forms computed here,
quadrature rows fail only in the known density-route case, Monte Carlo
rows match their exact references, and every pass yields the same digest.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("verify-sums", "verify-jets", "numeric")
DEFAULT_S = ("1/7", "1/2", "1", "3/2", "2", "10", "1000/3")
SUM_IDENTITIES = ("basic", "squared", "general_m", "inversion_first", "inversion_second", "derivative_fg")
USES_M = ("general_m", "tail_derivative_form")
QUAD_TOL = 1e-12
KNOWN_FAILURE_MIN_N = 2000  # the density route misses the integrand's peak near w = 1

SETUP_PROBES = 4  # per window: before the first pass and after every pass
PASS_TIMEOUT_S = 170
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RATIONAL = re.compile(r"^-?\d+(?:/\d+)?$")


class BenchError(Exception):
    """The benchmark itself could not run: bad layout, crashed or hung pass."""


# --- workloads -------------------------------------------------------------

def _seeded_rationals(rng, count):
    """Distinct p/q in lowest terms with 500 < p, q < 1000, so the size of
    the exact numbers (and the run time) barely depends on the seed."""
    picked = []
    while len(picked) < count:
        p, q = rng.randint(501, 999), rng.randint(501, 999)
        if p != q and math.gcd(p, q) == 1 and f"{p}/{q}" not in picked:
            picked.append(f"{p}/{q}")
    return picked


def _seeded_quadrature_s(rng):
    """A decimal s in [0.25, 3] that is not one of the fixed points; in this
    range the density route fails at both n >= 2000 points today."""
    while True:
        k = rng.randint(250, 3000)
        if k not in (500, 1000, 2000):
            return f"{k // 1000}.{k % 1000:03d}"


def _int_range(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("..")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def invocations(workload, seed, small=False):
    """The workload's CLI invocations: dicts with ``argv`` and ``expect``
    (the parameters the checks need).  ``small`` shrinks every grid for the
    benchmark's own tests."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("verify-sums", "verify-jets"):
        s_grid = list(DEFAULT_S) + _seeded_rationals(rng, 2)
        n_arg, m_arg = ("1..6", "1..3") if small else ("0..100", "1..8")
        out = []
        for identity in SUM_IDENTITIES if workload == "verify-sums" else ("tail_derivative_form",):
            argv = ["verify", "--identity", identity, "--s", ",".join(s_grid)]
            if small:
                argv += ["--n", n_arg, "--m", m_arg]
            ns = [n for n in _int_range(n_arg) if n >= 1 or identity != "general_m"]
            ms = _int_range(m_arg) if identity in USES_M else [1]
            out.append({"argv": argv, "expect": {"kind": "verify", "identity": identity,
                                                 "s": s_grid, "n": ns, "m": ms}})
        return out
    if workload != "numeric":
        raise ValueError(f"unknown workload {workload!r}")
    s_quad = ["0.5", "1", "2", "10", _seeded_quadrature_s(rng)]
    n_quad = "1..8,2000" if small else "1..120,1000,2000,5000"
    lemma_samples, samples = ("10000", "10000") if small else ("1000000", "200000")
    lemma_n = "1,2,5" if small else "1,2,5,10,20"
    tail_n, laplace_n = ("1..2", "1..3") if small else ("1..5", "1..10")
    sim = ["--seed", str(seed)]
    return [
        {"argv": ["quadrature", "--s", ",".join(s_quad), "--n", n_quad, "--tol", repr(QUAD_TOL)],
         "expect": {"kind": "quadrature", "s": [float(s) for s in s_quad], "n": _int_range(n_quad)}},
        {"argv": ["simulate", "--suite", "lemma1", "--n", lemma_n, "--samples", lemma_samples] + sim,
         "expect": {"kind": "lemma1", "n": _int_range(lemma_n)}},
        {"argv": ["simulate", "--suite", "tail", "--m", "3", "--n", tail_n, "--samples", samples] + sim,
         "expect": {"kind": "tail", "m": 3, "s": "1", "n": _int_range(tail_n)}},
        {"argv": ["simulate", "--suite", "laplace", "--s", "2", "--n", laplace_n, "--samples", samples] + sim,
         "expect": {"kind": "laplace", "s": "2", "n": _int_range(laplace_n)}},
    ]


# --- independent references for the output checks ----------------------------

@functools.lru_cache(maxsize=None)
def _product(s, n):
    """prod_{k=1..n} k/(s+k), the Laplace transform of the max of n Exp(1)."""
    return Fraction(1) if n == 0 else _product(s, n - 1) * n / (s + n)


def _tail(m, s, n):
    """P(Gamma(m, rate s) > max of n Exp(1)) by conditioning on the gamma."""
    total, c = Fraction(0), 1
    for k in range(n + 1):
        if k:
            c = c * (n - k + 1) // k
        total += (-1) ** k * c * (s / (s + k)) ** m
    return total


def _verify_reference(identity, s, n, m):
    """(column, value) of an independent closed form for one verify row, or
    None where no cheap closed form exists."""
    if identity == "basic":
        return "rhs", _product(s, n)
    if identity == "squared":
        return "rhs", _product(s, n) * sum((s / (s + j) for j in range(n + 1)), Fraction(0))
    if identity == "inversion_first":
        return "rhs", s / (s + n)
    if identity == "inversion_second":
        return "rhs", (s / (s + n)) ** 2
    if identity == "derivative_fg":
        return "lhs", _product(s, n) * sum((1 / (s + j) for j in range(1, n + 1)), Fraction(0))
    # Tail probabilities: with m = 1 the gamma is Exp(s) and the tail is the
    # transform itself; with n <= 1 it is 1 - (s/(s+1))^m (or 1).
    if m == 1:
        return "lhs", _product(s, n)
    if n <= 1:
        return "lhs", 1 - n * (s / (s + 1)) ** m
    return None


def _row_failed(row):
    return row.get("equal") is False or row.get("pass") is False or bool(row.get("note"))


def check_report(expect, rows, problems):
    """Append to ``problems`` every way the rows of one invocation are
    wrong; return (rows, failed rows, known-failure rows)."""
    kind = expect["kind"]
    failed = sum(_row_failed(row) for row in rows)
    known = 0
    if kind == "verify":
        want = {(expect["identity"], str(Fraction(s)), n, m)
                for s in expect["s"] for n in expect["n"] for m in expect["m"]}
        got = {(r["identity"], r["s"], r["n"], r["m"]) for r in rows}
        if got != want or len(rows) != len(want):
            problems.append(f"verify {expect['identity']}: {len(rows)} rows, expected grid of {len(want)}")
        for r in rows:
            if r["equal"] is not True or r["lhs"] != r["rhs"]:
                problems.append(f"verify {r['identity']} s={r['s']} n={r['n']} m={r['m']}: lhs != rhs")
                continue
            ref = _verify_reference(r["identity"], Fraction(r["s"]), r["n"], r["m"])
            if ref and Fraction(r[ref[0]]) != ref[1]:
                problems.append(f"verify {r['identity']} s={r['s']} n={r['n']} m={r['m']}: "
                                f"{ref[0]} differs from the closed form")
    elif kind == "quadrature":
        want = {(s, n) for s in expect["s"] for n in expect["n"]}
        if {(float(r["s"]), r["n"]) for r in rows} != want or len(rows) != len(want):
            problems.append(f"quadrature: {len(rows)} rows, expected grid of {len(want)}")
        for r in rows:
            s, n, exact = float(r["s"]), r["n"], float(r["exact"])
            ref = math.exp(math.lgamma(n + 1) + math.lgamma(s + 1) - math.lgamma(n + s + 1))
            if abs(exact - ref) > 1e-9 * ref:
                problems.append(f"quadrature s={r['s']} n={n}: exact {exact} != {ref}")
            if not _row_failed(r):
                continue
            cdf_ok = r["cdf_abs_error"] is not None and float(r["cdf_abs_error"]) <= 10 * QUAD_TOL
            if n >= KNOWN_FAILURE_MIN_N and cdf_ok and not r["note"]:
                known += 1
            else:
                problems.append(f"quadrature s={r['s']} n={n}: unexpected failure {r['note']!r}")
    else:
        if [r["n"] for r in rows] != expect["n"]:
            problems.append(f"simulate {kind}: rows for n={[r['n'] for r in rows]}, expected {expect['n']}")
        for r in rows:
            if kind == "lemma1":
                # A correct sampler fails the 1% KS gate now and then; it
                # essentially never reaches p < 1e-6.
                if not float(r["p_value"]) > 1e-6:
                    problems.append(f"simulate lemma1 n={r['n']}: KS p-value {r['p_value']}")
                continue
            s, n = Fraction(expect["s"]), r["n"]
            ref = _tail(expect["m"], s, n) if kind == "tail" else _product(s, n)
            if Fraction(r["exact"]) != ref:
                problems.append(f"simulate {kind} n={n}: exact reference {r['exact']} != {ref}")
            elif abs(float(r["estimate"]) - float(ref)) > 6 * float(r["std_error"]):
                problems.append(f"simulate {kind} n={n}: estimate {r['estimate']} is > 6 sigma off")
    return len(rows), failed, known


def _expected_rows(expect):
    if expect["kind"] == "verify":
        return len(expect["s"]) * len(expect["n"]) * len(expect["m"])
    if expect["kind"] == "quadrature":
        return len(expect["s"]) * len(expect["n"])
    return len(expect["n"])


def _max_bits(rows):
    best = 0
    for row in rows:
        for value in row.values():
            if isinstance(value, str) and RATIONAL.match(value):
                num, _, den = value.lstrip("-").partition("/")
                best = max(best, int(num).bit_length(), int(den or 1).bit_length())
    return best


# --- passes -------------------------------------------------------------------

def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_ENV})
    return env


def measure_setup(probes=SETUP_PROBES):
    """Times from starting a fresh interpreter until ``binomax.cli`` is
    imported (numpy included), for ``probes`` interpreters in a row."""
    code = "import binomax.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    for _ in range(probes):
        began = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=child_env(), cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - began
            proc.stdout.read()
            if proc.wait(timeout=PASS_TIMEOUT_S) != 0 or line != b"ready\n":
                raise BenchError("setup probe could not import binomax.cli from src/")
        times.append(elapsed)
    return times


def run_pass(specs, trace, work_dir):
    """Run one pass in a fresh child; return its result with rows attached."""
    out = Path(tempfile.mkdtemp(dir=work_dir))
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps({"src": str(SRC), "invocations": [s["argv"] for s in specs]}))
    cmd = [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(out), "1" if trace else "0"]
    with subprocess.Popen(cmd, stdout=sys.stderr, env=child_env(), cwd=ROOT) as proc:
        try:
            rc = proc.wait(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"pass did not finish within {PASS_TIMEOUT_S} s") from None
    if rc != 0 or not (out / "result.json").exists():
        raise BenchError(f"worker exited with code {rc}")
    result = json.loads((out / "result.json").read_text())
    for inv in result["invocations"]:
        inv["doc"] = json.loads((out / inv["report"]).read_text()) if inv["report"] else None
    if trace:
        result["spans"] = json.loads((out / "spans.json").read_text())
    shutil.rmtree(out)
    return result


def assess(specs, result):
    """Check one pass: returns a summary with the row counts, the digest of
    its reports (timestamps excluded) and the problems found."""
    problems, digest = [], hashlib.sha256()
    rows = failed_rows = known = failed_invocations = 0
    for spec, inv in zip(specs, result["invocations"]):
        expect, doc = spec["expect"], inv["doc"]
        if inv["error"] or inv["rc"] not in (0, 2) or doc is None:
            failed_invocations += 1
            rows += _expected_rows(expect)
            failed_rows += _expected_rows(expect)
            problems.append(f"{' '.join(spec['argv'][:3])}: exit {inv['rc']} {inv['error'] or ''}")
            continue
        if expect["kind"] == "verify" and inv["rc"] != 0:
            problems.append(f"{' '.join(spec['argv'][:3])}: verify exited {inv['rc']}")
        manifest = dict(doc["manifest"], timestamp=None)
        digest.update(json.dumps({"manifest": manifest, "rows": doc["rows"]}, sort_keys=True).encode())
        n, f, k = check_report(expect, doc["rows"], problems)
        rows, failed_rows, known = rows + n, failed_rows + f, known + k
    return {"rows": rows, "failed_rows": failed_rows, "known_failures": known,
            "failed_invocations": failed_invocations, "digest": digest.hexdigest(),
            "problems": problems}


def _layer_metrics(result):
    quadrature_exact = {}
    all_rows = []
    for inv in result["invocations"]:
        if inv["doc"] is None:
            continue
        all_rows += inv["doc"]["rows"]
        if inv["doc"]["manifest"]["command"] == "quadrature":
            quadrature_exact.update({(float(r["s"]), r["n"]): float(r["exact"]) for r in inv["doc"]["rows"]})
    return spans.layer_metrics(result["spans"], quadrature_exact, _max_bits(all_rows))


def run(workload, seed, seconds, trace, small=False):
    """One benchmark run; returns (result object, lines for people, the
    check summary of the first pass)."""
    if not (SRC / "binomax" / "cli.py").is_file():
        raise BenchError(f"no binomax sources under {SRC}")
    specs = invocations(workload, seed, small)
    work_dir = ROOT / ".bench_out"
    work_dir.mkdir(exist_ok=True)

    # Host speed drifts within seconds, so set-up is sampled in several
    # windows spread over the run; the first interpreter only warms caches.
    setup_times = measure_setup(SETUP_PROBES + 1)[1:]
    passes = []

    def one_pass(traced):
        passes.append(run_pass(specs, traced, work_dir))
        setup_times.extend(measure_setup())

    began = time.perf_counter()
    one_pass(False)
    if trace:
        one_pass(True)
    else:
        while time.perf_counter() - began < seconds:
            one_pass(False)

    checks = [assess(specs, p) for p in passes]
    problems = [msg for c in checks for msg in c["problems"]]
    if len({c["digest"] for c in checks}) != 1:
        problems.append("reports differ between passes at one seed")
    first = checks[0]
    failed_frac = first["failed_rows"] / first["rows"] if first["rows"] else 1.0
    lines = [
        f"env python={platform.python_version()} numpy={passes[0]['numpy']} "
        f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} threads=1",
        f"workload={workload} seed={seed} passes={len(passes)} trace={int(trace)} "
        f"pass_wall_s={[round(p['wall_s'], 3) for p in passes]}",
        f"digest=sha256:{first['digest']} rows={first['rows']} failed_rows={first['failed_rows']} "
        f"known_failures={first['known_failures']}",
        f"ops_failed_frac {failed_frac!r} ratio",
    ]
    if trace:
        untraced, traced = passes
        layer = _layer_metrics(traced)
        layer["trace.wall_s"] = traced["wall_s"]
        layer["trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
        numeric_s = (layer["quadrature.cdf.total_s"] + layer["quadrature.density.total_s"]
                     + layer["montecarlo.sample.total_s"] + layer["montecarlo.ks.total_s"]
                     + layer["montecarlo.estimate.self_s"])
        lines.append(f"share_of_traced_wall jets={layer['jets.f_jet.total_s'] / traced['wall_s']:.3f} "
                     f"quadrature+montecarlo={numeric_s / traced['wall_s']:.3f}")
    else:
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
            "ops_ok_frac": (1 - failed_frac, "ratio"),
        }
    lines += [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"problem: {msg}" for msg in problems[:20]]
    summary = {
        "correct": not problems,
        "attempted": sum(len(p["invocations"]) for p in passes),
        "failed": sum(c["failed_invocations"] for c in checks),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return summary, lines, first


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_coeff_mult"):
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.set_int_max_str_digits(0)  # verify rows hold rationals with thousands of digits
    correct = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            summary, lines, _ = run(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"bench: error: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        print(json.dumps(summary), flush=True)
        correct &= summary["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
