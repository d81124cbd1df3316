"""Seeded sampler bytes and simulate reports do not depend on numpy's CPU dispatch.

numpy picks SIMD kernels for ``log``, ``exp`` and friends at import, by the
features the CPU has; ``NPY_DISABLE_CPU_FEATURES`` switches them off for one
process.  The samplers and the seeded ``simulate`` reports must come out
byte-identical either way, so that a digest pinned on one machine means the
same on another with a different dispatch.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import binomax
from test_golden import REPORTS

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# Prints one sha256 per line: three sampler outputs at 10^6 draws, then the
# raw bytes of each simulate report (seeded, so its timestamp is null).
SCRIPT = """
import contextlib, hashlib, io, json, sys
from binomax.cli import main
from binomax.montecarlo import RngConfig, sample_gamma_integer, sample_max_exp, sample_sum_exp

for sample in (lambda rng: sample_max_exp(20, rng, 10**6),
               lambda rng: sample_sum_exp(20, rng, 10**6),
               lambda rng: sample_gamma_integer(3, 1.5, rng, 10**6)):
    print(hashlib.sha256(sample(RngConfig(1).generator()).tobytes()).hexdigest())
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""

# The golden reports, and the benchmark's laplace run: the golden laplace grid
# is too small to show np.exp's dispatch-dependent last bits in its mean.
SIMULATE_REPORTS = [REPORTS[name][0] for name in ("lemma1", "tail", "laplace")] + [
    ["simulate", "--suite", "laplace", "--s", "2", "--n", "1..10", "--samples", "200000",
     "--seed", "1"],
]


def _run(env, *args):
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_seeded_bytes_do_not_depend_on_cpu_dispatch():
    enabled = [feature for feature in __cpu_dispatch__ if __cpu_features__.get(feature)]
    if not enabled:
        pytest.skip("numpy dispatches to no optional CPU feature on this host")
    src = str(Path(binomax.__file__).resolve().parents[1])
    default = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    default.pop("NPY_DISABLE_CPU_FEATURES", None)
    disabled = dict(default, NPY_DISABLE_CPU_FEATURES=" ".join(enabled))
    if _run(disabled, "-c", "import numpy").returncode != 0:
        pytest.skip(f"numpy does not import with {' '.join(enabled)} disabled")

    argv = json.dumps(SIMULATE_REPORTS)
    runs = [_run(env, "-c", SCRIPT, argv) for env in (default, disabled)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    assert len(runs[0].stdout.split()) == 3 + len(SIMULATE_REPORTS)
    assert runs[1].stdout == runs[0].stdout
