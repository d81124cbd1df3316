"""Tests of the benchmark itself, on reduced grids (about a minute):

    python3 -m pytest bench
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("identities.rows", "jets.ops", "quadrature.evaluations", "montecarlo.draws")
SEED = 11


@functools.lru_cache(maxsize=None)
def small_run(workload, trace):
    return run.run(workload, SEED, 0, trace, small=True)


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    summary, _, _ = small_run(workload, False)
    assert summary["correct"] and summary["failed"] == 0
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in summary["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    summary, _, _ = small_run(workload, True)
    assert summary["correct"] and summary["failed"] == 0
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == _units(SPEC["per_layer"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_digest_and_counts(workload):
    first, _, first_check = small_run(workload, True)
    again, _, again_check = run.run(workload, SEED, 0, True, small=True)
    assert first_check["digest"] == again_check["digest"]
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name
    # The untraced run at this seed produced the same reports.
    assert small_run(workload, False)[2]["digest"] == first_check["digest"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_times_are_non_negative_and_fit_in_the_traced_wall(workload):
    summary, _, _ = small_run(workload, True)
    metrics = {k: v["value"] for k, v in summary["metrics"].items()}
    self_times = [v for k, v in metrics.items() if k.endswith("self_s")]
    assert self_times and all(v >= 0 for v in self_times)
    assert sum(self_times) <= metrics["trace.wall_s"]


def test_known_density_failures_are_counted_not_filtered():
    summary, lines, check = small_run("numeric", False)
    assert check["known_failures"] > 0
    assert check["failed_rows"] == check["known_failures"]
    assert summary["metrics"]["ops_ok_frac"]["value"] < 1
    assert small_run("numeric", True)[0]["metrics"]["quadrature.cert_ok_ratio"]["value"] < 1


def test_unequal_verify_row_is_an_error():
    expect = {"kind": "verify", "identity": "basic", "s": ["1"], "n": [1], "m": [1]}
    row = {"identity": "basic", "s": "1", "n": 1, "m": 1, "lhs": "1/2", "rhs": "1/3", "equal": False}
    problems = []
    run.check_report(expect, [row], problems)
    assert any("lhs != rhs" in p for p in problems)


def test_closed_form_catches_equal_but_wrong_rows():
    expect = {"kind": "verify", "identity": "basic", "s": ["1"], "n": [1], "m": [1]}
    row = {"identity": "basic", "s": "1", "n": 1, "m": 1, "lhs": "1/3", "rhs": "1/3", "equal": True}
    problems = []
    run.check_report(expect, [row], problems)
    assert any("closed form" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "numeric", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
