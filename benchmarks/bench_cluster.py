"""Cluster throughput and the price of fault tolerance.

The sharded runtime earns its complexity on *matching-bound*
workloads: pattern matching over large windows dominates, window
shipping is cheap, so adding shard processes multiplies the matching
capacity.  This benchmark replays a matching-heavy Q1 configuration
(long windows, any-of pattern) through

1. a plain sequential ``Pipeline.run`` (no cluster, the baseline),
2. a ``ShardedPipeline`` at 1, 2 and 4 workers,
3. a 2-worker cluster with fault tolerance + checkpointing on, at the
   default checkpoint interval -- the overhead section: exactly-once
   bookkeeping and periodic atomic checkpoint writes must cost <= 5%
   of throughput, or crash recovery is too expensive to leave enabled,

and reports events/sec for each.  Detections are asserted identical
across every run -- neither scaling nor fault tolerance may change
results.  Each run writes a machine-readable ``BENCH_cluster.json``
(override the path with ``BENCH_CLUSTER_REPORT``) so the scaling and
overhead trajectories are trackable across PRs, like
``bench_serve``'s wire-cost numbers.

The >1.5x speedup expectation at 4 workers needs >= 4 usable cores;
on smaller machines the benchmark still reports the numbers but skips
the scaling assertion (a 1-core container cannot parallelise anything,
it can only measure transport overhead).

Run ``python benchmarks/bench_cluster.py --smoke`` for the quick
CI-friendly variant: a short slice, the same bit-identity assertions,
no speed expectations (1-core CI measures noise, not overhead); its
report goes only where ``BENCH_CLUSTER_REPORT`` points, else to a temp
file.
"""

import json
import os
import tempfile
import time

from repro.cluster import ShardedPipeline
from repro.datasets import SoccerStreamConfig, generate_soccer_stream, split_stream
from repro.pipeline import Pipeline
from repro.queries import build_q1

WORKER_COUNTS = (1, 2, 4)
EXPECTED_SPEEDUP_AT_4 = 1.5
#: Maximum tolerated throughput cost of fault tolerance + checkpointing
#: at the default checkpoint interval.
MAX_CHECKPOINT_OVERHEAD = 0.05
#: Default checkpoint interval (windows between checkpoint writes);
#: mirrors the ``ShardedPipeline`` constructor default.
CHECKPOINT_INTERVAL = 200
#: Timed rounds per configuration in the overhead comparison; the best
#: round is reported (minimum-noise estimator for a 1-shot macro run).
ROUNDS = 3
#: Where the machine-readable report lands (cwd-relative by default).
REPORT_PATH = os.environ.get("BENCH_CLUSTER_REPORT", "BENCH_cluster.json")


def matching_bound_workload(duration_seconds=1200.0):
    """Long predicate windows -> per-window match cost dominates."""
    stream = generate_soccer_stream(
        SoccerStreamConfig(
            duration_seconds=duration_seconds,
            events_per_second=25.0,
            possession_interval=6.0,
            seed=7,
        )
    )
    _train, live = split_stream(stream, train_fraction=0.2)
    query = build_q1(pattern_size=3, window_seconds=30.0)
    return query, live


def sharded_eps(query, live, reference, **cluster_options):
    """One sharded run; asserts bit-identity, returns events/sec."""
    pipeline = Pipeline.builder().query(query).build()
    with ShardedPipeline(pipeline, **cluster_options) as sharded:
        result = sharded.run(live)
    assert [c.key for c in result.complex_events] == reference
    return result.events_per_second, result


def run_checkpoint_bench(query, live, reference, rounds=ROUNDS):
    """Best-of-``rounds`` events/sec: plain vs checkpointed 2-worker
    cluster, plus the checkpoint counters of the last durable run."""
    plain_eps = 0.0
    durable_eps = 0.0
    checkpoints = bytes_written = 0
    for _ in range(rounds):
        eps, _result = sharded_eps(query, live, reference, shards=2)
        plain_eps = max(plain_eps, eps)
    with tempfile.TemporaryDirectory(prefix="bench-ckpt-") as ckpt_dir:
        for round_index in range(rounds):
            round_dir = os.path.join(ckpt_dir, str(round_index))
            eps, _result = sharded_eps(
                query,
                live,
                reference,
                shards=2,
                fault_tolerant=True,
                checkpoint_dir=round_dir,
                checkpoint_interval=CHECKPOINT_INTERVAL,
            )
            durable_eps = max(durable_eps, eps)
            # disk truth (includes the final stop-time checkpoint,
            # which lands after the last sync report)
            files = sorted(os.listdir(round_dir))
            checkpoints = len(files)
            bytes_written = sum(
                os.path.getsize(os.path.join(round_dir, name))
                for name in files
            )
    return {
        "plain_eps": plain_eps,
        "checkpointed_eps": durable_eps,
        "overhead": 1.0 - durable_eps / plain_eps,
        "interval": CHECKPOINT_INTERVAL,
        "rounds": rounds,
        "checkpoints_written": checkpoints,
        "checkpoint_bytes": bytes_written,
    }


def write_report(payload, path=REPORT_PATH):
    payload = {**payload, "unix_time": round(time.time(), 3)}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def merge_report(section, path=REPORT_PATH):
    """Fold one benchmark's section into the shared report file."""
    payload = {}
    if os.path.exists(path):
        with open(path) as handle:
            payload = json.load(handle)
    payload.update(section)
    return write_report(payload, path)


def smoke_report_path():
    """Where a ``--smoke`` run writes: ``BENCH_CLUSTER_REPORT`` if set, else a
    temp file, never the tracked ``BENCH_cluster.json``."""
    if "BENCH_CLUSTER_REPORT" in os.environ:
        return os.environ["BENCH_CLUSTER_REPORT"]
    scratch = tempfile.mkdtemp(prefix="bench_cluster-")
    return os.path.join(scratch, "BENCH_cluster.json")


def test_cluster_throughput(report):
    query, live = matching_bound_workload()
    n = len(live)

    def runner():
        t0 = time.perf_counter()
        sequential = Pipeline.builder().query(query).build().run(live)
        sequential_eps = n / (time.perf_counter() - t0)
        reference = [c.key for c in sequential.complex_events]
        assert reference

        events_per_sec = {}
        for workers in WORKER_COUNTS:
            events_per_sec[workers], _ = sharded_eps(
                query, live, reference, shards=workers
            )
        return {
            "events": n,
            "detections": len(reference),
            "cores": os.cpu_count() or 1,
            "sequential_eps": sequential_eps,
            "eps": events_per_sec,
            "speedup_4": events_per_sec[4] / events_per_sec[1],
        }

    def describe(out):
        lines = [
            "Sharded cluster throughput (matching-bound Q1, "
            f"{out['events']} events, {out['detections']} detections, "
            f"{out['cores']} cores):",
            f"  sequential pipeline: {out['sequential_eps']:>10.0f} events/s",
        ]
        for workers in WORKER_COUNTS:
            lines.append(
                f"  {workers} worker(s):         "
                f"{out['eps'][workers]:>10.0f} events/s"
            )
        lines.append(
            f"  4-worker speedup:    {out['speedup_4']:.2f}x over 1 worker "
            f"(target > {EXPECTED_SPEEDUP_AT_4}x on >=4 cores)"
        )
        extra = {
            "sequential_eps": round(out["sequential_eps"]),
            **{
                f"eps_{workers}w": round(out["eps"][workers])
                for workers in WORKER_COUNTS
            },
            "speedup_4": round(out["speedup_4"], 3),
            "cores": out["cores"],
        }
        merge_report(extra)
        return "\n".join(lines), extra

    out = report(runner, describe)
    if (os.cpu_count() or 1) >= 4:
        assert out["speedup_4"] > EXPECTED_SPEEDUP_AT_4, (
            "4 workers should beat 1 worker by more than "
            f"{EXPECTED_SPEEDUP_AT_4}x on the matching-bound workload, "
            f"got {out['speedup_4']:.2f}x"
        )


def test_batching_amortises_transport(report):
    """Same run, batch_size 1 vs 32: the transport batching dividend."""
    query, live = matching_bound_workload()
    n = len(live)

    def runner():
        eps = {}
        for batch_size in (1, 32):
            pipeline = Pipeline.builder().query(query).build()
            with ShardedPipeline(
                pipeline, shards=2, batch_size=batch_size
            ) as sharded:
                result = sharded.run(live)
            eps[batch_size] = result.events_per_second
        return {"events": n, "eps": eps, "gain": eps[32] / eps[1]}

    def describe(out):
        text = (
            "Batched transport effect (2 workers, same workload):\n"
            f"  batch_size=1:   {out['eps'][1]:>10.0f} events/s\n"
            f"  batch_size=32:  {out['eps'][32]:>10.0f} events/s\n"
            f"  batching gain:  {out['gain']:.2f}x"
        )
        extra = {
            "eps_batch1": round(out["eps"][1]),
            "eps_batch32": round(out["eps"][32]),
            "batching_gain": round(out["gain"], 3),
        }
        merge_report(extra)
        return text, extra

    report(runner, describe)


def describe_checkpoint(out):
    text = (
        "Checkpoint overhead (2 workers, fault tolerance on, "
        f"interval={out['interval']} windows, best of {out['rounds']}):\n"
        f"  plain cluster:        {out['plain_eps']:>10.0f} events/s\n"
        f"  checkpointed cluster: {out['checkpointed_eps']:>10.0f} events/s\n"
        f"  overhead:             {out['overhead'] * 100:.1f}% "
        f"(budget <= {MAX_CHECKPOINT_OVERHEAD * 100:.0f}%)\n"
        f"  checkpoint files:     {out['checkpoints_written']} "
        f"({out['checkpoint_bytes']} bytes)"
    )
    extra = {
        "checkpoint_plain_eps": round(out["plain_eps"]),
        "checkpoint_durable_eps": round(out["checkpointed_eps"]),
        "checkpoint_overhead_pct": round(out["overhead"] * 100, 2),
        "checkpoint_interval": out["interval"],
        "checkpoints_written": out["checkpoints_written"],
        "checkpoint_bytes": out["checkpoint_bytes"],
    }
    return text, extra


def test_checkpoint_overhead(report):
    """The tracked number: the throughput cost of exactly-once."""
    query, live = matching_bound_workload()

    def runner():
        sequential = Pipeline.builder().query(query).build().run(live)
        reference = [c.key for c in sequential.complex_events]
        assert reference
        return run_checkpoint_bench(query, live, reference)

    def _describe(out):
        text, extra = describe_checkpoint(out)
        path = merge_report(extra)
        return text + f"\n  report:               {path}", extra

    out = report(runner, _describe)
    assert out["overhead"] <= MAX_CHECKPOINT_OVERHEAD, (
        "fault tolerance + checkpointing at the default interval should "
        f"cost <= {MAX_CHECKPOINT_OVERHEAD * 100:.0f}% throughput, "
        f"measured {out['overhead'] * 100:.1f}%"
    )


# ----------------------------------------------------------------------
# CI smoke mode: python benchmarks/bench_cluster.py --smoke
# ----------------------------------------------------------------------
def smoke() -> int:
    """Fast assertion pass: every cluster configuration (plain and
    checkpointed) bit-identical to sequential, on a short slice.  No
    speed expectations -- 1-core CI measures noise, not overhead --
    but the overhead section is still measured and written to
    :func:`smoke_report_path`."""
    query, live = matching_bound_workload(duration_seconds=400.0)
    sequential = Pipeline.builder().query(query).build().run(live)
    reference = [c.key for c in sequential.complex_events]
    assert reference, "smoke workload must detect something"
    out = run_checkpoint_bench(query, live, reference, rounds=1)
    text, extra = describe_checkpoint(out)
    path = merge_report(extra, smoke_report_path())
    print(f"bench_cluster --smoke:\n{text}\n  report:               {path}")
    print(
        "OK: plain and checkpointed clusters bit-identical to sequential "
        f"({len(reference)} detections)"
    )
    return 0


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        raise SystemExit(smoke())
    raise SystemExit(
        "run under pytest (pytest benchmarks/bench_cluster.py "
        "--benchmark-only -s) or pass --smoke"
    )
