"""Per-event overhead of the pipeline's middleware stage chain.

The API redesign routes every event through an explicit stage chain
(admission -> window assign -> shedding -> match -> emit) instead of
calling the operator directly.  This benchmark quantifies what that
indirection costs so the redesign's price stays visible in the perf
trajectory: the same stream is replayed (1) through a bare
``CEPOperator.detect_all`` -- the old direct wiring, (2) through
``Pipeline.run`` at batch size 1 (every event a batch of its own, the
"per-event" rows below), and (3) through ``Pipeline.run`` at
``.batch(64)`` -- the same stage path at two batch sizes -- and the
per-event wall-clock times are compared.  All runs produce identical
detections in identical order, which the benchmark asserts -- batch 1
vs batch 64 both sequentially and through a 2-shard cluster.

History of the tracked number (best-of-3, soccer Q1 workload):

- seed of the API redesign: **≈ +40%** chain overhead vs the direct
  operator;
- after the cluster PR's hot-path work (prebound stage dispatch lists
  in ``QueryChain``; ``__slots__`` on the per-event objects):
  **≈ +31%** measured on the same workload;
- after the micro-batch execution path (``batch(64)``): target
  **≤ +10%** -- in practice the batched chain tracks the direct
  operator within noise;
- since the stage chain moves each micro-batch as parallel columns,
  the only per-event objects on the path are the queue entry
  (``QueuedItem``) and its ``Memberships`` view -- no per-event
  context, assignment or result object -- and ``detect_all`` drives
  the same batched operator body.

Run ``python benchmarks/bench_pipeline.py --smoke`` for a quick
CI-friendly check that batch-64 replay is not slower than batch-1
replay and stays bit-identical.
"""

import time

#: Chain overhead measured at the seed of the API redesign (%).
SEED_OVERHEAD_PCT = 40.0
#: Overhead after the dispatch-list + __slots__ optimisation (%).
OPTIMISED_OVERHEAD_PCT = 31.0
#: Target (and asserted bound) for the micro-batched path (%).
BATCHED_TARGET_PCT = 10.0
#: Micro-batch size used for the tracked number.
BATCH_SIZE = 64

from repro.cep.operator.operator import CEPOperator
from repro.core.kernel import HAVE_NUMPY
from repro.experiments import workloads
from repro.pipeline import Pipeline
from repro.queries import build_q1


def _measure(run, repeats=3):
    """Best-of-N wall time of ``run()`` (returns (seconds, result))."""
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _chain_runner(stream, batch_size=1):
    return (
        lambda: Pipeline.builder()
        .query(build_q1(pattern_size=3))
        .batch(batch_size)
        .build()
        .run(stream)
        .complex_events
    )


def test_stage_chain_overhead(report):
    """Stage-chain replay vs direct operator replay, unshedded.

    The tracked acceptance number: micro-batched (batch >= 64) chain
    overhead must stay <= +10% vs the direct operator.
    """
    _train, stream = workloads.soccer_streams()
    n = len(stream)

    def runner():
        direct_s, direct_out = _measure(
            lambda: CEPOperator(build_q1(pattern_size=3)).detect_all(stream)
        )
        chain_s, chain_out = _measure(_chain_runner(stream))
        batched_s, batched_out = _measure(_chain_runner(stream, BATCH_SIZE))
        assert [c.key for c in chain_out] == [c.key for c in direct_out]
        assert [c.key for c in batched_out] == [c.key for c in chain_out]
        assert [c.detection_time for c in batched_out] == [
            c.detection_time for c in chain_out
        ]
        return {
            "events": n,
            "direct_us_per_event": 1e6 * direct_s / n,
            "pipeline_us_per_event": 1e6 * chain_s / n,
            "batched_us_per_event": 1e6 * batched_s / n,
            "overhead_pct": 100.0 * (chain_s - direct_s) / direct_s,
            "batched_overhead_pct": 100.0 * (batched_s - direct_s) / direct_s,
        }

    def describe(out):
        text = (
            "Pipeline stage-chain overhead (unshedded batch replay):\n"
            f"  events:              {out['events']}\n"
            f"  direct operator:     {out['direct_us_per_event']:.2f} us/event\n"
            f"  pipeline per-event:  {out['pipeline_us_per_event']:.2f} us/event "
            f"({out['overhead_pct']:+.1f}%)\n"
            f"  pipeline batch={BATCH_SIZE}:   {out['batched_us_per_event']:.2f} "
            f"us/event ({out['batched_overhead_pct']:+.1f}%)\n"
            f"  trajectory:          +{SEED_OVERHEAD_PCT:.0f}% (seed) -> "
            f"+{OPTIMISED_OVERHEAD_PCT:.0f}% (dispatch lists/__slots__) -> "
            f"<=+{BATCHED_TARGET_PCT:.0f}% (micro-batch target)"
        )
        return text, {
            "direct_us_per_event": round(out["direct_us_per_event"], 3),
            "pipeline_us_per_event": round(out["pipeline_us_per_event"], 3),
            "batched_us_per_event": round(out["batched_us_per_event"], 3),
            "overhead_pct": round(out["overhead_pct"], 2),
            "batched_overhead_pct": round(out["batched_overhead_pct"], 2),
            "batch_size": BATCH_SIZE,
            "seed_overhead_pct": SEED_OVERHEAD_PCT,
            "optimised_overhead_pct": OPTIMISED_OVERHEAD_PCT,
            "batched_target_pct": BATCHED_TARGET_PCT,
        }

    out = report(runner, describe)
    # the chain should cost a small constant per event, not multiples
    assert out["overhead_pct"] < 100.0
    # the acceptance bound: batching amortises the chain to <= +10%
    assert out["batched_overhead_pct"] <= BATCHED_TARGET_PCT


def test_shedded_batch_kernel(report):
    """Active shedding: one kernel pass per item vs per batch of 64.

    Same deployment, same static drop command; batch size 1 (one small
    kernel pass per item, default backend -- the "scalar" row) vs batch
    64 with the numpy kernel and with the stdlib fallback kernel.
    Detections must be identical everywhere.

    The scenario is *static* coordinated shedding (the deterministic
    "under shedding" setup), so the overload detector has no decisions
    to make and its check interval is widened to 10s of stream time --
    with the paper-default 0.1s every due tick is a mandatory batch
    boundary (detector state may change), which caps micro-batches at
    ~2 events on this stream and benchmarks the boundary machinery
    rather than the kernel.
    """
    from repro.shedding.base import DropCommand

    train, stream = workloads.soccer_streams()
    n = len(stream)

    def shedded_runner(batch_size, backend):
        def run():
            pipeline = (
                Pipeline.builder()
                .query(build_q1(pattern_size=3))
                .shedder("espice", f=0.8)
                .bin_size(8)
                .check_interval(10.0)
                .batch(batch_size)
                .build()
            )
            pipeline.train(train)
            pipeline.deploy(
                expected_throughput=1000.0, expected_input_rate=1200.0
            )
            shedder = pipeline.chains[0].shedder
            shedder._kernel_backend = backend
            psize = pipeline.model.reference_size / 4
            shedder.on_drop_command(
                DropCommand(x=0.25 * psize, partition_count=4, partition_size=psize)
            )
            shedder.activate()
            return pipeline.run(stream).complex_events

        return run

    def runner():
        scalar_s, scalar_out = _measure(shedded_runner(1, None), repeats=2)
        fallback_s, fallback_out = _measure(
            shedded_runner(BATCH_SIZE, "fallback"), repeats=2
        )
        assert [c.key for c in fallback_out] == [c.key for c in scalar_out]
        out = {
            "scalar_us_per_event": 1e6 * scalar_s / n,
            "fallback_us_per_event": 1e6 * fallback_s / n,
            "numpy_us_per_event": None,
            "detections": len(scalar_out),
        }
        if HAVE_NUMPY:
            numpy_s, numpy_out = _measure(
                shedded_runner(BATCH_SIZE, "numpy"), repeats=2
            )
            assert [c.key for c in numpy_out] == [c.key for c in scalar_out]
            out["numpy_us_per_event"] = 1e6 * numpy_s / n
        return out

    def describe(out):
        numpy_line = (
            f"  batched (numpy):     {out['numpy_us_per_event']:.2f} us/event\n"
            if out["numpy_us_per_event"] is not None
            else "  batched (numpy):     numpy not installed\n"
        )
        text = (
            "Shedded replay, scalar vs vectorized kernel "
            f"(batch={BATCH_SIZE}, incl. train+deploy):\n"
            f"  per-event (scalar):  {out['scalar_us_per_event']:.2f} us/event\n"
            f"  batched (fallback):  {out['fallback_us_per_event']:.2f} us/event\n"
            + numpy_line
            + f"  detections:          {out['detections']} (bit-identical everywhere)"
        )
        extra = {
            "scalar_us_per_event": round(out["scalar_us_per_event"], 3),
            "fallback_us_per_event": round(out["fallback_us_per_event"], 3),
            "detections": out["detections"],
            "have_numpy": HAVE_NUMPY,
        }
        if out["numpy_us_per_event"] is not None:
            extra["numpy_us_per_event"] = round(out["numpy_us_per_event"], 3)
        return text, extra

    report(runner, describe)


def test_cluster_batched_equivalence(report):
    """2-shard cluster: batched winbatch shipping == per-event shipping."""
    from repro.runtime.simulation import simulate_sharded

    _train, stream = workloads.soccer_streams()
    small = stream[: len(stream) // 4]

    def sharded(batch_size):
        pipeline = Pipeline.builder().query(build_q1(pattern_size=3)).build()
        result = simulate_sharded(pipeline, small, shards=2, batch_size=batch_size)
        return result

    def runner():
        per_event = sharded(1)
        batched = sharded(BATCH_SIZE)
        a = [c.key for c in per_event.complex_events]
        b = [c.key for c in batched.complex_events]
        assert a == b
        return {
            "events": per_event.events_fed,
            "detections": len(a),
            "per_event_eps": per_event.events_per_second,
            "batched_eps": batched.events_per_second,
        }

    def describe(out):
        text = (
            "2-shard cluster, per-event vs batched window shipping:\n"
            f"  events:              {out['events']}\n"
            f"  detections:          {out['detections']} (identical, same order)\n"
            f"  per-event shipping:  {out['per_event_eps']:.0f} events/s\n"
            f"  winbatch shipping:   {out['batched_eps']:.0f} events/s"
        )
        return text, {k: round(v, 1) for k, v in out.items()}

    report(runner, describe)


def test_simulation_driver_overhead(report):
    """Virtual-time driver: historical wrapper vs explicit pipeline."""
    from repro.runtime.simulation import SimulationConfig, measure_mean_memberships, simulate

    train, stream = workloads.soccer_streams()
    query = build_q1(pattern_size=3)
    memberships = measure_mean_memberships(query, stream)
    n = len(stream)

    def runner():
        config = SimulationConfig(
            input_rate=1200.0,
            throughput=1000.0,
            mean_memberships=memberships,
        )
        wrapper_s, wrapper_out = _measure(
            lambda: simulate(query, stream, config), repeats=2
        )

        def pipeline_run():
            pipeline = (
                Pipeline.builder()
                .query(query)
                .shedder("espice", f=0.8)
                .bin_size(8)
                .build()
            )
            pipeline.train(train)
            pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1200.0)
            return pipeline.simulate(
                stream,
                input_rate=1200.0,
                throughput=1000.0,
                mean_memberships=memberships,
            )

        shedding_s, shedding_out = _measure(pipeline_run, repeats=2)
        return {
            "unshedded_us_per_event": 1e6 * wrapper_s / n,
            "espice_us_per_event": 1e6 * shedding_s / n,
            "unshedded_detections": wrapper_out.detections,
            "espice_detections": shedding_out.detections,
        }

    def describe(out):
        text = (
            "Virtual-time simulation cost through the pipeline driver:\n"
            f"  unshedded replay:    {out['unshedded_us_per_event']:.2f} us/event "
            f"({out['unshedded_detections']} detections)\n"
            f"  trained eSPICE run:  {out['espice_us_per_event']:.2f} us/event "
            f"({out['espice_detections']} detections, incl. train+deploy)"
        )
        return text, {k: round(v, 3) for k, v in out.items()}

    report(runner, describe)


# ----------------------------------------------------------------------
# CI smoke mode: python benchmarks/bench_pipeline.py --smoke
# ----------------------------------------------------------------------
def smoke() -> int:
    """Fast assertion: batched replay <= per-event wall time, identical
    detections.  Exits non-zero on violation (wired into CI)."""
    _train, stream = workloads.soccer_streams()
    per_event_s, per_event_out = _measure(_chain_runner(stream))
    batched_s, batched_out = _measure(_chain_runner(stream, BATCH_SIZE))
    assert [c.key for c in batched_out] == [c.key for c in per_event_out], (
        "batched detections diverged from per-event detections"
    )
    print(
        f"bench_pipeline --smoke: per-event {per_event_s:.3f}s, "
        f"batch={BATCH_SIZE} {batched_s:.3f}s "
        f"({100.0 * (batched_s - per_event_s) / per_event_s:+.1f}%), "
        f"{len(batched_out)} identical detections"
    )
    if batched_s > per_event_s:
        print("FAIL: batched replay slower than per-event replay")
        return 1
    print("OK: batched <= per-event wall time")
    return 0


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        raise SystemExit(smoke())
    raise SystemExit(
        "run under pytest (pytest benchmarks/bench_pipeline.py "
        "--benchmark-only -s) or pass --smoke"
    )
