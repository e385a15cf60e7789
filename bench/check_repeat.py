#!/usr/bin/env python3
"""Self-consistency gate: two suite runs of one commit must agree.

``python3 bench/check_repeat.py``            runs the suite twice, then compares
``python3 bench/check_repeat.py A.json B.json``   compares two ``run.py --out`` files

Fails (exit 1) when, for any workload, an end-to-end metric of one run
is worse than the other's by more than the metric's bound in
``BENCHMARK.json`` -- in either direction, since neither run is the
baseline -- or when a value that must repeat exactly for a seed
(detection digest, recall, drop rate, FN/FP/violations) does not.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List

from helpers import BENCH_DIR, load_spec, worsening

#: Exact for a given seed: virtual time and bit-identity leave no noise.
EXACT_END_TO_END = ("match_recall_pct",)
EXACT_PER_LAYER = (
    "core.drop_pct",
    "core.shed_decisions",
    "false_negative_pct",
    "false_positive_pct",
    "bound_violation_pct",
    "failed_pct",
    "cep.windows_closed",
)


def run_suite(path: str, extra: List[str]) -> None:
    subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--out", path, *extra],
        check=True,
    )


def compare(first: dict, second: dict, spec: dict) -> List[str]:
    """Every disagreement between two suite results, as readable lines."""
    problems = []
    if first["seed"] != second["seed"]:
        return [f"seeds differ: {first['seed']} vs {second['seed']}"]
    later = {record["workload"]: record for record in second["workloads"]}
    for a in first["workloads"]:
        name = a["workload"]
        b = later[name]
        if a["digest"] != b["digest"]:
            problems.append(f"{name}: detection digest differs between runs")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            x, y = a["end_to_end"][key], b["end_to_end"][key]
            bound = 0.0 if key in EXACT_END_TO_END else metric["bound"]
            gap = max(
                worsening(x, y, metric["better"]), worsening(y, x, metric["better"])
            )
            if gap > bound:
                problems.append(
                    f"{name}: {key} {x:.4f} vs {y:.4f} {metric['unit']} differ by "
                    f"{gap:.1%} (bound {bound:.0%})"
                )
        for key in EXACT_PER_LAYER:
            x, y = a["per_layer"].get(key, 0.0), b["per_layer"].get(key, 0.0)
            if x != y:
                problems.append(f"{name}: {key} must repeat exactly, got {x} vs {y}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="*", help="two run.py --out files (default: run twice)")
    parser.add_argument("--smoke", action="store_true", help="pass --smoke to the two runs")
    args = parser.parse_args()
    if len(args.results) not in (0, 2):
        parser.error("give two result files, or none to run the suite twice")
    paths = args.results
    if not paths:
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        paths = [os.path.join(out_dir, f"repeat-{i}.json") for i in (1, 2)]
        for path in paths:
            run_suite(path, ["--smoke"] if args.smoke else [])
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    problems = compare(results[0], results[1], load_spec())
    for problem in problems:
        print(f"DIFFERS: {problem}")
    print("repeat check OK" if not problems else f"{len(problems)} metric(s) out of bound")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
