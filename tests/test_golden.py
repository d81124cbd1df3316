"""Seeded `quadrature` and `simulate` reports, pinned by digest.

Each report is hashed as the benchmark hashes it: the parsed JSON with the
manifest's timestamp set to null, dumped with sorted keys.  A performance
change must leave every byte of these reports as it is, so any moved float,
evaluation count or note fails here and not only in the benchmark.  The
grids are small but reach each path: n = 0 (one route), the density
route's failures at n = 2000, exact values below the float64 range, and
70 000 samples, one full block of draws and a partial one.
"""

import contextlib
import hashlib
import io
import json

import pytest

from binomax.cli import EXIT_FAILURE, EXIT_OK, main

REPORTS = {
    "quadrature": (
        ["quadrature", "--s", "0.5,1,10,1.557,1000", "--n", "0..8,120,1000,2000",
         "--tol", "1e-12"],
        EXIT_FAILURE,
        "75dd16d379629010d2d431513f55e10060ff60857cdfd2f307ae95b4cc690a89",
    ),
    "lemma1": (
        ["simulate", "--suite", "lemma1", "--n", "1,2,5", "--samples", "70000", "--seed", "1"],
        EXIT_OK,
        "539e821655cd58fdab5429551e4026301ad58b7960f9b69a8137592442cae53e",
    ),
    "tail": (
        ["simulate", "--suite", "tail", "--m", "3", "--s", "3/2", "--n", "1..2",
         "--samples", "70000", "--seed", "1"],
        EXIT_OK,
        "54ee13af20c92e0518e1929fa07a343bb2c2f1fab38bb573fb6bcfbd28bbd8bb",
    ),
    "laplace": (
        ["simulate", "--suite", "laplace", "--s", "2", "--n", "1..3", "--samples", "70000",
         "--seed", "1"],
        EXIT_OK,
        "79ece55635e700c8df3668801251f024e87246e1444d352f218ca18a2d10e5d5",
    ),
}


@pytest.mark.parametrize("name", REPORTS)
def test_report_digest(name):
    argv, exit_code, digest = REPORTS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == exit_code
    report = json.loads(out.getvalue())
    report["manifest"]["timestamp"] = None
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest
