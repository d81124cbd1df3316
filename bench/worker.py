"""One benchmark pass in a fresh interpreter.

Runs the binomax CLI invocations listed in a spec file back to back, in
process, each writing its JSON report into OUT_DIR, then writes
OUT_DIR/result.json (pass wall time, peak resident memory, per-invocation
exit codes) and, when traced, OUT_DIR/spans.json.  Started by run.py:

    python3 worker.py SPEC_JSON OUT_DIR TRACE
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(spec_path, out_dir, trace):
    spec = json.loads(Path(spec_path).read_text())
    out_dir = Path(out_dir)

    import numpy
    import binomax
    import binomax.cli as cli

    src = Path(spec["src"]).resolve()
    if src not in Path(binomax.__file__).resolve().parents:
        sys.exit(f"worker: binomax imported from {binomax.__file__}, not from {src}")
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    invocations = []
    start = time.perf_counter()
    for i, argv in enumerate(spec["invocations"]):
        report = out_dir / f"report-{i}.json"
        began = time.perf_counter()
        rc, error = None, None
        try:
            rc = cli.main(argv + ["--format", "json", "--output", str(report)])
        except Exception as exc:  # a raising invocation is recorded as failed, not fatal
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        invocations.append({"rc": rc, "error": error, "seconds": time.perf_counter() - began,
                            "report": report.name if report.exists() else None})
    wall_s = time.perf_counter() - start

    result = {
        "wall_s": wall_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "invocations": invocations,
    }
    if tracer:
        tracer.write(out_dir / "spans.json")
    (out_dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")
