#!/usr/bin/env python3
"""One benchmark for the whole event path.

Two ways in, one measuring routine:

``python3 bench/run.py [--seed N] [--out FILE] [--smoke]``
    the suite: every workload once, each in a process of its own (so
    one workload's memory peak or cached inputs cannot leak into the
    next one's numbers), measured passes with tracing off followed by
    traced passes, every end-to-end and per-layer metric printed by
    name with its unit, detection digests cross-checked.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    one workload, as the driver of ``BENCHMARK.json`` runs it: the last
    line of stdout is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics`` (end-to-end with ``--trace 0``,
    per-layer with ``--trace 1``).

Exit code 0 only when every correctness check held.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

from helpers import (
    BENCH_DIR,
    Spans,
    latency_summary,
    load_spec,
    segmented_p95_ms,
    self_time_by_name,
    spin_canary,
)
from workloads import (
    PACED_FRAMES_PER_S,
    WORKLOADS,
    PassResult,
    Workload,
    environment,
)

OUT_DIR = os.path.join(BENCH_DIR, "out")
#: Canaries before and after a workload may differ by this share.
CANARY_TOLERANCE = 0.10
#: The open-loop generator may run this many frame intervals late (p99).
LATE_INTERVALS = 2.0
#: Consecutive parts a pass's latency samples are cut into; ~800 Q1
#: detections leave each part the ten samples beyond p95 it needs.
LATENCY_SEGMENTS = 3
#: Share of the input the untimed warm-up pass runs.
WARMUP_FRACTION = 0.25
SMOKE_SCALE = 0.1
SMOKE_SECONDS = 1


def _median(passes: Sequence[PassResult], value) -> float:
    return statistics.median(value(p) for p in passes)


def _pooled(passes: Sequence[PassResult], attribute: str) -> List[float]:
    return [sample for p in passes for sample in getattr(p, attribute)]


def _passes(workload: Workload, count: int, traced: bool) -> List[PassResult]:
    results = []
    for index in range(count):
        workload.spans.pass_index = index
        workload.spans.enabled = traced
        try:
            results.append(workload.run_pass(traced=traced))
        finally:
            workload.spans.enabled = False
    return results


def measure(
    name: str, seed: int, seconds: float, trace: bool, scale: float, retry_noisy: bool
) -> dict:
    """Run one workload; returns its full result record.

    Warm-up pass (a quarter of the input, untimed), then as many
    measured passes as fit ``seconds`` with tracing off, then -- with
    ``trace`` -- as many traced passes and the isolated layer loops;
    the two halves share ``seconds``.  A run whose before/after
    canaries disagree is marked noisy and, with ``retry_noisy``,
    measured once more (the suite does; the driver's ten runs and
    medians are its retry, and its time limit is hard).
    """
    spans = Spans(name, enabled=False)
    workload = WORKLOADS[name](seed, scale, spans)
    # the inputs are the harness's, not the system's: keep them out of
    # every later collection (and out of the forked workers' page copies)
    gc.collect()
    gc.freeze()
    warm = workload.run_pass(fraction=WARMUP_FRACTION)
    estimate = warm.setup_s + warm.wall_s / WARMUP_FRACTION
    budget = seconds / 2.0 if trace else seconds
    count = max(1, round(budget / estimate))

    for attempt in (1, 2) if retry_noisy else (1,):
        spans.records.clear()  # a retry replaces the attempt, spans too
        canary_before = spin_canary()
        passes = _passes(workload, count, traced=False)
        traced = _passes(workload, count, traced=True) if trace else []
        canary_after = spin_canary()
        noisy = abs(canary_after - canary_before) / canary_before > CANARY_TOLERANCE
        if not noisy:
            break

    problems = [problem for p in passes + traced for problem in p.problems]
    # gated percentiles are medians too (over passes for p50, over thirds
    # of passes for p95) so that a burst of stalls cannot drag them; the
    # pooled summary states n and the highest percentile the sample supports
    end_to_end = {
        "events_per_s": _median(passes, lambda p: p.events / p.wall_s),
        "cpu_us_per_event": _median(passes, lambda p: p.cpu_s / p.events * 1e6),
        "detect_latency_p50_ms": _median(
            passes, lambda p: statistics.median(p.detect_s) * 1e3
        ),
        "detect_latency_p95_ms": segmented_p95_ms(
            [p.detect_s for p in passes], LATENCY_SEGMENTS
        ),
        "match_recall_pct": min(p.recall_pct for p in passes),
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "setup_s": workload.cold_start_s + _median(passes, lambda p: p.setup_s),
    }
    attempted = sum(p.events for p in passes + traced)
    failed = sum(p.failed for p in passes + traced)
    record = {
        "workload": name,
        "seed": seed,
        "passes": count,
        "noisy": noisy,
        "attempts": attempt,
        "canary_ops_per_s": [canary_before, canary_after],
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "digest": passes[0].digest,
        "detect_latency": latency_summary(_pooled(passes, "detect_s")),
        "flags": [],
        "end_to_end": end_to_end,
    }
    if trace:
        record["per_layer"] = _per_layer(workload, passes, traced, record)
        _write_trace(name, spans, record)
    return record


def _per_layer(
    workload: Workload,
    passes: Sequence[PassResult],
    traced: Sequence[PassResult],
    record: dict,
) -> Dict[str, float]:
    layers: Dict[str, float] = {}
    for key in sorted({key for p in traced for key in p.layers}):
        layers[key] = statistics.median(p.layers[key] for p in traced if key in p.layers)
    workload.spans.enabled = True
    workload.spans.pass_index = -1  # the isolated loops belong to no pass
    try:
        layers.update(workload.isolated_layers())
    finally:
        workload.spans.enabled = False
    untraced_wall = _median(passes, lambda p: p.wall_s)
    layers["obs.trace_overhead_pct"] = (
        (_median(traced, lambda p: p.wall_s) - untraced_wall) / untraced_wall * 100.0
    )
    layers["datasets.generate_s"] = workload.generate_s
    layers["canary_ops_per_s"] = statistics.mean(record["canary_ops_per_s"])
    layers["failed_pct"] = 100.0 * record["failed"] / record["attempted"]
    layers["serve.detect_p99_ms"] = (
        record["detect_latency"]["p99_ms"] if passes[0].ack_s else 0.0
    )
    acks = _pooled(passes, "ack_s")
    if acks:
        ack = record["ack_latency"] = latency_summary(acks)
        layers["serve.ack_p50_ms"] = ack["p50_ms"]
        layers["serve.ack_p95_ms"] = ack["p95_ms"]
        layers["serve.ack_p99_ms"] = ack["p99_ms"]
    lates = _pooled(passes, "late_s")
    if lates:
        late = latency_summary(lates)
        layers["gen.late_p50_ms"] = late["p50_ms"]
        layers["gen.late_p99_ms"] = late["p99_ms"]
        if late["p99_ms"] > LATE_INTERVALS * 1e3 / PACED_FRAMES_PER_S:
            record["flags"].append("generator_late")
    return layers


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def _write_trace(name: str, spans: Spans, record: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    payload = {
        "workload": name,
        "seed": record["seed"],
        "environment": environment(),
        "spans": spans.records,
        "self_seconds_by_name": self_time_by_name(spans.records),
        "counters": record["per_layer"],
    }
    _write_json(os.path.join(OUT_DIR, f"trace-{name}.json"), payload)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def contract_metrics(spec: dict, record: dict, section: str) -> Dict[str, dict]:
    """Exactly the metrics ``BENCHMARK.json`` names for ``section``.

    A layer a workload does not exercise reads 0; a metric the harness
    produced but the spec does not name is a harness bug.
    """
    values = record[section]
    names = {metric["name"] for metric in spec[section]}
    unknown = sorted(set(values) - names)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {
        metric["name"]: {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in spec[section]
    }


def describe(spec: dict, record: dict) -> str:
    lines = [
        f"== {record['workload']} (seed {record['seed']}, {record['passes']} passes"
        f"{', NOISY' if record['noisy'] else ''}"
        f"{', retried' if record['attempts'] > 1 else ''}) =="
    ]
    for section in ("end_to_end", "per_layer"):
        if section not in record:
            continue
        idle = 0
        for name, metric in contract_metrics(spec, record, section).items():
            if metric["value"] == 0.0:
                idle += 1
                continue
            lines.append(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}")
        if idle:
            lines.append(f"  ({idle} {section} metrics of layers this workload leaves idle read 0)")
    for label in ("detect_latency", "ack_latency"):
        summary = record.get(label)
        if summary and summary["tail_pct"] is not None:
            lines.append(
                f"  {label}: n={summary['n']}, p50 {summary['p50_ms']:.3f} ms, highest "
                f"supported tail p{summary['tail_pct']:g} = {summary['tail_ms']:.3f} ms"
            )
    for flag in record["flags"]:
        lines.append(f"  FLAG: {flag}")
    for problem in record["problems"]:
        lines.append(f"  FAILED: {problem}")
    return "\n".join(lines)


def driver_line(spec: dict, record: dict, trace: bool) -> str:
    section = "per_layer" if trace else "end_to_end"
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": contract_metrics(spec, record, section),
        }
    )


def run_suite(spec: dict, seed: int, seconds: float, smoke: bool, out: Optional[str]) -> int:
    """Every workload of ``BENCHMARK.json``, one child process each."""
    os.makedirs(OUT_DIR, exist_ok=True)
    records, problems = [], []
    for workload in spec["workloads"]:
        name = workload["name"]
        path = os.path.join(OUT_DIR, f"record-{name}.json")
        if os.path.exists(path):
            os.remove(path)
        command = [sys.executable, os.path.abspath(__file__), "--workload", name]
        command += ["--seed", str(seed), "--seconds", str(seconds), "--record", path]
        # the child prints its metrics itself; its exit code repeats
        # what the record says, a missing record is a crash
        subprocess.run(command + (["--smoke"] if smoke else []))
        if not os.path.exists(path):
            problems.append(f"{name}: the run ended without a result")
            continue
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    problems += [problem for record in records for problem in record["problems"]]
    digests = {r["workload"]: r["digest"] for r in records if r["digest"] is not None}
    if len(set(digests.values())) > 1:
        problems.append(f"detection digests differ across Q1 workloads: {digests}")
    if out:
        _write_json(out, {"seed": seed, "environment": environment(), "workloads": records})
    for problem in problems:
        print(f"FAILED: {problem}")
    print("OK" if not problems else f"{len(problems)} check(s) failed")
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="suite mode: write every record to this JSON file")
    parser.add_argument(
        "--record",
        help="with --workload, as the suite runs it: untraced and traced passes, one "
        "retry when noisy, the full record to this JSON file",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="a tenth of the input, one pass, same checks"
    )
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else spec["run_seconds"])
    if args.workload is None:
        return run_suite(spec, args.seed, seconds, args.smoke, args.out)
    for_suite = args.record is not None
    trace = for_suite or bool(args.trace)
    scale = SMOKE_SCALE if args.smoke else 1.0
    record = measure(args.workload, args.seed, seconds, trace, scale, retry_noisy=for_suite)
    print(describe(spec, record), flush=True)
    if for_suite:
        _write_json(args.record, record)
    else:
        print(driver_line(spec, record, trace), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
