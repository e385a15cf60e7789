"""Throughput of the repro-lint static-analysis pass.

The lint gate rides on every CI leg and on pre-commit muscle memory,
so it must stay interactive: a **full-tree** run (src/repro +
benchmarks, every rule) has a hard wall-clock budget of
:data:`BUDGET_SECONDS`.  The benchmark times
best-of-N full runs with fresh rule instances per run (R008 carries
per-run state) and reports files/second.

Each run writes ``BENCH_analysis.json`` (override with
``BENCH_ANALYSIS_REPORT``); a ``--smoke`` run writes only where
``BENCH_ANALYSIS_REPORT`` points, else to a temp file.  CI runs
``--smoke``, which additionally
asserts the tree is clean -- a belt-and-braces duplicate of the lint
job, so a red tree cannot hide behind a green benchmark.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

#: Hard wall-clock ceiling for one full-tree lint run (seconds).
#: Interactive tooling budget -- the gate runs on every CI leg.
BUDGET_SECONDS = 5.0
#: Best-of-N timing; lint is CPU-bound and steady, so N stays small.
REPEATS = int(os.environ.get("BENCH_ANALYSIS_REPEATS", "3"))
#: Where the machine-readable report lands (cwd-relative by default).
REPORT_PATH = os.environ.get("BENCH_ANALYSIS_REPORT", "BENCH_analysis.json")

from repro.analysis.engine import discover_root, iter_python_files, lint_tree


def measure(root: Path) -> dict:
    """Best-of-``REPEATS`` full-tree lint; returns the report payload."""
    files = iter_python_files(root)
    timings = []
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = lint_tree(root)
        timings.append(time.perf_counter() - started)
    best = min(timings)
    return {
        "benchmark": "analysis",
        "files": len(files),
        "files_scanned": result.files_scanned,
        "findings": len(result.findings),
        "suppressed": len(result.suppressed),
        "errors": len(result.errors),
        "repeats": REPEATS,
        "seconds_best": round(best, 4),
        "seconds_all": [round(t, 4) for t in timings],
        "files_per_second": round(result.files_scanned / best, 1) if best else 0.0,
        "budget_seconds": BUDGET_SECONDS,
        "within_budget": best < BUDGET_SECONDS,
    }


def smoke_report_path():
    """Where a ``--smoke`` run writes: ``BENCH_ANALYSIS_REPORT`` if set, else a
    temp file, never the tracked ``BENCH_analysis.json``."""
    if "BENCH_ANALYSIS_REPORT" in os.environ:
        return os.environ["BENCH_ANALYSIS_REPORT"]
    scratch = tempfile.mkdtemp(prefix="bench_analysis-")
    return os.path.join(scratch, "BENCH_analysis.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="assert the wall-clock budget and a clean tree (CI mode)",
    )
    args = parser.parse_args()

    root = discover_root(Path(__file__).resolve().parent)
    report = measure(root)
    path = smoke_report_path() if args.smoke else REPORT_PATH
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"bench_analysis: {report['files_scanned']} files in "
        f"{report['seconds_best']}s best-of-{REPEATS} "
        f"({report['files_per_second']} files/s) -> {path}"
    )

    if not report["within_budget"]:
        print(
            f"FAIL: full-tree lint took {report['seconds_best']}s "
            f"(budget {BUDGET_SECONDS}s)",
            file=sys.stderr,
        )
        return 1
    if args.smoke and (report["findings"] or report["errors"]):
        print(
            f"FAIL: tree is not clean ({report['findings']} finding(s), "
            f"{report['errors']} error(s)) -- run `python -m repro.analysis`",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
