"""Wire-ingest throughput: the serve front door vs in-process ``feed()``.

``repro.serve`` puts a real asyncio TCP server between clients and the
pipeline.  This benchmark prices that hop: the same soccer Q1 stream is
replayed (1) straight into ``Pipeline.feed_many`` + ``finish`` -- the
in-process ceiling, no sockets -- and (2) through
:func:`repro.runtime.serve_replay` at 1, 8 and 64 concurrent framed-TCP
connections, and events/sec are compared.

Correctness is asserted alongside the numbers: the single-connection
wire run must produce detections bit-identical and identically ordered
to the in-process run (the serve determinism guarantee), and every
multi-connection run must deliver the full stream (delivery accounting;
ordering across interleaved connections is intentionally unspecified,
so only the 1-connection run asserts detection equality).

An **overload section** then prices graceful degradation: with the
front door's capacity pinned by a token bucket (so the number is
machine-independent), clients offer 2x capacity with no retries and
the run asserts the robustness contract -- rejections come back fast
(p99 rejection latency bounded), and goodput under 2x offered load
stays at >= 90% of the healthy-load goodput (load shedding at the
wire, not collapse).

Each run writes a machine-readable ``BENCH_serve.json`` (override the
path with ``BENCH_SERVE_REPORT``) so the wire-overhead trajectory is
trackable across PRs, like the chain-overhead numbers in
``bench_pipeline``.

Run ``python benchmarks/bench_serve.py --smoke`` for the quick
CI-friendly variant (its report goes only where ``BENCH_SERVE_REPORT``
points, else to a temp file): a short slice, same assertions, no speed
expectations (a 1-core container measures syscall overhead, not
scaling).
"""

import asyncio
import json
import os
import tempfile
import time

#: Concurrent client connections measured against the baseline.
CONNECTION_COUNTS = (1, 8, 64)
#: Events per ingest request (the client-side wire batch).
CLIENT_BATCH = 64
#: Pipeline micro-batch size (matches the tracked bench_pipeline setup).
PIPELINE_BATCH = 16
#: Where the machine-readable report lands (cwd-relative by default).
REPORT_PATH = os.environ.get("BENCH_SERVE_REPORT", "BENCH_serve.json")

#: Overload section: front-door capacity (token-bucket, requests/s) --
#: pinned so the section measures *behaviour under overload*, not the
#: host's CPU; 200 req/s x 64-event batches = 12.8k events/s, well
#: under the pipeline's drain rate on any machine, so the bucket (not
#: the matcher) is always the bottleneck.
OVERLOAD_CAPACITY_RPS = 200.0
#: Offered load as a multiple of capacity in the degraded phase.
OVERLOAD_MULTIPLIER = 2.0
#: No-retry client connections offering the overload.
OVERLOAD_CONNECTIONS = 4
#: Requests offered per phase (bounds each phase to about a second).
OVERLOAD_REQUESTS = 150
#: The robustness contract asserted by the section.
OVERLOAD_GOODPUT_FLOOR = 0.90
OVERLOAD_REJECTION_P99_BOUND = 0.25  # seconds

from repro.experiments import workloads
from repro.pipeline import Pipeline
from repro.queries import build_q1
from repro.runtime import serve_replay
from repro.serve.client import ServeClient
from repro.serve.middleware import TokenBucketLimiter
from repro.serve.server import PipelineServer, ServeConfig


def build_pipeline(batch_size=PIPELINE_BATCH):
    return (
        Pipeline.builder()
        .query(build_q1(pattern_size=2, window_seconds=15.0))
        .batch(batch_size)
        .build()
    )


def in_process_replay(stream):
    """The no-socket ceiling: feed_many + finish on a fresh pipeline."""
    pipeline = build_pipeline()
    start = time.perf_counter()
    fed = pipeline.feed_many(stream)
    final = pipeline.finish()
    wall = time.perf_counter() - start
    name = pipeline.chains[0].query.name
    keys = [c.key for c in fed[name] + final[name]]
    return len(stream) / wall if wall > 0 else 0.0, keys


async def _paced_offer(client, batches, interval, counters, rejection_latencies):
    """Offer batches at a fixed pace with **no retries**: a rejected
    batch is dropped on the floor (pure load shedding at the wire)."""
    loop = asyncio.get_running_loop()
    next_send = loop.time()
    for batch in batches:
        now = loop.time()
        if now < next_send:
            await asyncio.sleep(next_send - now)
        next_send += interval
        sent_at = loop.time()
        response = await client.ingest(batch)
        elapsed = loop.time() - sent_at
        if response.get("ok"):
            counters["accepted_events"] += len(batch)
        else:
            counters["rejected_requests"] += 1
            rejection_latencies.append(elapsed)


async def _offer_phase(batches, connections, offered_rps):
    """One overload-section phase: a fresh capacity-pinned server,
    ``connections`` paced no-retry clients splitting ``batches``.

    Returns ``(goodput_eps, rejected_requests, rejection_latencies)``.
    """
    server = PipelineServer(
        build_pipeline(),
        middleware=[
            # all bench clients are 127.0.0.1, so the per-client bucket
            # is effectively one global capacity budget
            TokenBucketLimiter(OVERLOAD_CAPACITY_RPS, burst=8.0)
        ],
        config=ServeConfig(port=0),
    )
    await server.start()
    clients = [
        await ServeClient.connect("127.0.0.1", server.port)
        for _ in range(connections)
    ]
    counters = {"accepted_events": 0, "rejected_requests": 0}
    rejection_latencies = []
    interval = connections / offered_rps  # per-client pacing
    try:
        start = time.perf_counter()
        await asyncio.gather(
            *(
                _paced_offer(
                    client,
                    batches[i::connections],
                    interval,
                    counters,
                    rejection_latencies,
                )
                for i, client in enumerate(clients)
            )
        )
        wall = time.perf_counter() - start
    finally:
        for client in clients:
            await client.close()
        await server.stop()
    goodput = counters["accepted_events"] / wall if wall > 0 else 0.0
    return goodput, counters["rejected_requests"], rejection_latencies


def run_overload(stream):
    """The overload section: healthy-load goodput vs 2x offered load.

    Asserts the robustness contract alongside the tracked numbers:
    overload actually rejects, rejections come back fast, and goodput
    degrades by < 10%.
    """
    batches = [
        stream[i : i + CLIENT_BATCH]
        for i in range(0, len(stream), CLIENT_BATCH)
    ][:OVERLOAD_REQUESTS]
    assert len(batches) >= 50, "stream too short for the overload section"

    healthy_goodput, healthy_rejected, _ = asyncio.run(
        _offer_phase(batches, connections=1, offered_rps=OVERLOAD_CAPACITY_RPS)
    )
    degraded_goodput, rejected, latencies = asyncio.run(
        _offer_phase(
            batches,
            connections=OVERLOAD_CONNECTIONS,
            offered_rps=OVERLOAD_MULTIPLIER * OVERLOAD_CAPACITY_RPS,
        )
    )

    assert rejected > 0, "2x offered load produced no rejections"
    latencies.sort()
    p99 = latencies[int(0.99 * (len(latencies) - 1))]
    assert p99 <= OVERLOAD_REJECTION_P99_BOUND, (
        f"p99 rejection latency {p99 * 1000:.1f}ms exceeds the "
        f"{OVERLOAD_REJECTION_P99_BOUND * 1000:.0f}ms bound"
    )
    ratio = (
        degraded_goodput / healthy_goodput if healthy_goodput > 0 else 0.0
    )
    assert ratio >= OVERLOAD_GOODPUT_FLOOR, (
        f"goodput under 2x offered load fell to {ratio:.2%} of healthy "
        f"(floor {OVERLOAD_GOODPUT_FLOOR:.0%})"
    )
    return {
        "capacity_rps": OVERLOAD_CAPACITY_RPS,
        "offered_multiplier": OVERLOAD_MULTIPLIER,
        "connections": OVERLOAD_CONNECTIONS,
        "requests_per_phase": len(batches),
        "healthy_goodput_eps": healthy_goodput,
        "healthy_rejected_requests": healthy_rejected,
        "degraded_goodput_eps": degraded_goodput,
        "goodput_ratio": ratio,
        "rejected_requests": rejected,
        "rejection_p99_ms": p99 * 1000.0,
    }


def run_bench(stream):
    """Measure every configuration once; assert correctness throughout."""
    n = len(stream)
    in_process_eps, reference = in_process_replay(stream)
    assert reference, "workload slice must detect something"

    serve_eps = {}
    for connections in CONNECTION_COUNTS:
        result = serve_replay(
            build_pipeline(),
            stream,
            batch_events=CLIENT_BATCH,
            connections=connections,
        )
        # delivery accounting holds at every fan-in; detection equality
        # (contents AND order) is the 1-connection determinism guarantee
        assert result.events_sent == n
        assert result.metrics["ingest"]["events_fed"] == n
        assert result.metrics["state"] == "stopped"
        if connections == 1:
            wire_keys = [c.key for c in result.complex_events]
            assert wire_keys == reference, (
                "single-connection wire detections diverged from in-process"
            )
        else:
            assert result.complex_events
        serve_eps[connections] = result.events_per_second

    return {
        "events": n,
        "detections": len(reference),
        "client_batch": CLIENT_BATCH,
        "pipeline_batch": PIPELINE_BATCH,
        "cores": os.cpu_count() or 1,
        "in_process_eps": in_process_eps,
        "serve_eps": serve_eps,
        "wire_cost_1conn": in_process_eps / serve_eps[1]
        if serve_eps[1] > 0
        else float("inf"),
        "overload": run_overload(stream),
    }


def write_report(out, path=REPORT_PATH):
    """Emit the machine-readable artifact (BENCH_serve.json)."""
    payload = {
        "benchmark": "serve_ingest_throughput",
        "unix_time": round(time.time(), 3),
        "events": out["events"],
        "detections": out["detections"],
        "client_batch": out["client_batch"],
        "pipeline_batch": out["pipeline_batch"],
        "cores": out["cores"],
        "in_process_eps": round(out["in_process_eps"], 1),
        "serve_eps": {
            str(c): round(eps, 1) for c, eps in out["serve_eps"].items()
        },
        "wire_cost_1conn": round(out["wire_cost_1conn"], 3),
        "overload": {
            **out["overload"],
            "healthy_goodput_eps": round(
                out["overload"]["healthy_goodput_eps"], 1
            ),
            "degraded_goodput_eps": round(
                out["overload"]["degraded_goodput_eps"], 1
            ),
            "goodput_ratio": round(out["overload"]["goodput_ratio"], 3),
            "rejection_p99_ms": round(out["overload"]["rejection_p99_ms"], 2),
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def smoke_report_path():
    """Where a ``--smoke`` run writes: ``BENCH_SERVE_REPORT`` if set, else a
    temp file, never the tracked ``BENCH_serve.json``."""
    if "BENCH_SERVE_REPORT" in os.environ:
        return os.environ["BENCH_SERVE_REPORT"]
    scratch = tempfile.mkdtemp(prefix="bench_serve-")
    return os.path.join(scratch, "BENCH_serve.json")


def describe(out):
    lines = [
        "Serve ingest throughput (framed TCP, soccer Q1, "
        f"{out['events']} events, {out['detections']} detections, "
        f"{out['cores']} core(s)):",
        f"  in-process feed():   {out['in_process_eps']:>10.0f} events/s",
    ]
    for connections in CONNECTION_COUNTS:
        lines.append(
            f"  serve, {connections:>2} conn:       "
            f"{out['serve_eps'][connections]:>10.0f} events/s"
        )
    lines.append(
        f"  wire cost (1 conn):  {out['wire_cost_1conn']:.2f}x vs in-process"
    )
    overload = out["overload"]
    lines.append(
        f"  overload ({overload['offered_multiplier']:.0f}x capacity, "
        f"{overload['connections']} conn, no retries): goodput "
        f"{overload['goodput_ratio']:.0%} of healthy, "
        f"{overload['rejected_requests']} rejections at p99 "
        f"{overload['rejection_p99_ms']:.1f}ms"
    )
    extra = {
        "in_process_eps": round(out["in_process_eps"]),
        **{
            f"serve_eps_{c}conn": round(out["serve_eps"][c])
            for c in CONNECTION_COUNTS
        },
        "wire_cost_1conn": round(out["wire_cost_1conn"], 3),
        "overload_goodput_ratio": round(out["overload"]["goodput_ratio"], 3),
        "overload_rejection_p99_ms": round(
            out["overload"]["rejection_p99_ms"], 2
        ),
        "cores": out["cores"],
    }
    return "\n".join(lines), extra


def test_serve_ingest_throughput(report):
    """The tracked number: events/s over the wire vs in-process."""
    _train, stream = workloads.soccer_streams()

    def runner():
        out = run_bench(stream)
        write_report(out)
        return out

    def _describe(out):
        text, extra = describe(out)
        return text + f"\n  report:              {REPORT_PATH}", extra

    report(runner, _describe)


# ----------------------------------------------------------------------
# CI smoke mode: python benchmarks/bench_serve.py --smoke
# ----------------------------------------------------------------------
def smoke() -> int:
    """Fast assertion pass: delivery + 1-connection detection equality
    across every fan-in, on a short slice.  No speed expectations -- a
    1-core CI box cannot parallelise connections, only serialise them.
    Exits non-zero on violation; the report goes to
    :func:`smoke_report_path`."""
    _train, stream = workloads.soccer_streams(duration_seconds=600.0)
    out = run_bench(stream)
    path = write_report(out, smoke_report_path())
    text, _extra = describe(out)
    print(f"bench_serve --smoke:\n{text}\n  report:              {path}")
    print(
        "OK: delivery complete at every fan-in, 1-conn wire bit-identical, "
        "overload rejected fast with goodput held"
    )
    return 0


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        raise SystemExit(smoke())
    raise SystemExit(
        "run under pytest (pytest benchmarks/bench_serve.py "
        "--benchmark-only -s) or pass --smoke"
    )
