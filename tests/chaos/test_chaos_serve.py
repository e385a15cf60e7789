"""Chaos at the wire: serve traffic into a fault-tolerant cluster.

The closing rung of the robustness ladder: real framed-TCP traffic
through a :class:`~repro.serve.server.PipelineServer` driving a
fault-tolerant 2-shard :class:`~repro.cluster.ShardedPipeline`, while
faults hit *both* layers --

- the wire (``tests.chaos.network.NetworkChaos``: connection resets
  and truncated frames at exact frame indices, survived by the
  client's reconnect + backoff + circuit breaker), and
- the cluster (``kill -9`` of a shard worker mid-stream,
  autoscaler-driven ``scale_up()`` under load).

The property, every time: the detections collected from the served
cluster are **bit-identical and identically ordered** vs the
sequential reference -- exactly-once end to end, zero duplicates,
zero loss.  Shedding is statically commanded (the wall-clock overload
detector is detached) so the reference is replayable; wire faults are
injected before the faulted frame reaches the server, so a client
resend can never duplicate an admitted batch.
"""

import asyncio
import os
import signal

import pytest

from repro.cluster import ShardedPipeline
from repro.cluster.elastic import Autoscaler
from repro.serve.client import ServeClient
from repro.serve.resilience import CircuitBreaker, ExponentialBackoff
from repro.serve.server import PipelineServer, ServeConfig

from chaos.conftest import keys, make_deployed_pipeline
from chaos.controller import ChaosController
from chaos.network import NetworkChaos

BATCH_EVENTS = 32


def build_served_pipeline(workload):
    """The chaos workload pipeline, prepared for *serving*.

    Same statically-commanded shedding as the replay chaos suite; the
    wall-clock overload detector is additionally detached (live feeds
    would let it re-command shedding at nondeterministic points, which
    is correct overload behaviour but breaks the bit-identity this
    suite asserts).
    """
    query, model, _live, command = workload
    pipeline = make_deployed_pipeline(query, model)
    chain = pipeline.chains[0]
    chain.shedder.on_drop_command(command)
    chain.shedder.activate()
    chain.detector = None
    chain.shedding.detector = None
    chain.admission.detector = None
    return pipeline


def serve_with_chaos(
    workload,
    shards=2,
    before_batch=None,
    chaos_schedule=None,
    cluster_options=None,
    client_timeout=2.0,
):
    """Serve the workload stream into a fresh sharded cluster.

    ``before_batch(index, sharded, server)`` runs before batch
    ``index`` ships (the deterministic injection point for cluster
    faults); ``chaos_schedule(proxy)`` arms wire faults on the
    :class:`NetworkChaos` proxy the client is routed through.

    Returns ``(detection_keys, snapshot, reports)``.
    """
    pipeline = build_served_pipeline(workload)
    live = list(workload[2])
    sharded = ShardedPipeline(
        pipeline,
        shards=shards,
        fault_tolerant=True,
        **(cluster_options or {}),
    )
    collected = []
    chain = pipeline.chains[0]
    sink = collected.append
    chain.emit.subscribe(sink)

    async def _run():
        server = PipelineServer(sharded, config=ServeConfig())
        await server.start()
        proxy = None
        port = server.port
        if chaos_schedule is not None:
            proxy = NetworkChaos("127.0.0.1", server.port)
            chaos_schedule(proxy)
            port = await proxy.start()
        client = await ServeClient.connect(
            "127.0.0.1", port, timeout=client_timeout
        )
        backoff = ExponentialBackoff(base=0.02, cap=0.5, seed=11)
        breaker = CircuitBreaker(failure_threshold=3, recovery_timeout=0.1)
        reports = []
        try:
            batches = [
                live[i : i + BATCH_EVENTS]
                for i in range(0, len(live), BATCH_EVENTS)
            ]
            for index, batch in enumerate(batches):
                if before_batch is not None:
                    before_batch(index, sharded, server)
                report = await client.ingest_stream(
                    batch,
                    batch_events=BATCH_EVENTS,
                    max_retries=50,
                    backoff=backoff,
                    breaker=breaker,
                    reconnect=True,
                )
                reports.append(report)
                assert report.completed, report
                assert not report.rejected, report
        finally:
            await client.close()
            await server.stop()
            if proxy is not None:
                await proxy.stop()
        return reports

    try:
        reports = asyncio.run(_run())
        snapshot = sharded.snapshot()
    finally:
        sharded.shutdown()
        chain.emit.sinks.remove(sink)
    total = len(live)
    assert sum(r.events_sent for r in reports) == total
    return keys(collected), snapshot, reports


class TestServedClusterBitIdentity:
    def test_faultless_serve_matches_sequential(self, workload, reference):
        """The baseline: wire + 2-shard FT cluster, no faults."""
        detected, snapshot, _reports = serve_with_chaos(workload)
        assert detected == reference
        assert snapshot.restarts == 0

    def test_worker_kill9_midstream_is_exactly_once(
        self, workload, reference, tmp_path
    ):
        """kill -9 a shard while serve traffic flows: respawn + replay
        must leave the detection stream bit-identical -- no loss from
        the dead worker's unacked windows, no duplicates from replay."""

        def kill_at_one_third(index, sharded, _server):
            if index == 20:
                os.kill(sharded._workers[0].pid, signal.SIGKILL)

        detected, snapshot, _reports = serve_with_chaos(
            workload,
            before_batch=kill_at_one_third,
            cluster_options={
                "checkpoint_dir": str(tmp_path / "ckpt"),
                "checkpoint_interval": 10,
            },
        )
        assert detected == reference
        assert snapshot.restarts == 1

    def test_connection_reset_midstream_recovers_exactly_once(
        self, workload, reference
    ):
        """The proxy hard-resets the connection at exact ingest frames;
        the client reconnects (seeded backoff) and resends the batch
        the server provably never admitted."""
        detected, _snapshot, reports = serve_with_chaos(
            workload,
            chaos_schedule=lambda proxy: proxy.reset_at_frame(7)
            .truncate_frame(40)
            .drop_frame(90),
        )
        assert detected == reference
        assert sum(r.reconnects for r in reports) >= 3
        assert sum(len(r.errors) for r in reports) >= 3

    def test_autoscaler_scales_up_under_serve_traffic(
        self, workload, reference
    ):
        """The ROADMAP rung: autoscaler-driven scale_up() while serve
        traffic flows, detections oblivious to the membership change.

        The backlog the autoscaler reacts to is made, not hoped for:
        shard 0 is SIGSTOPped at a fixed batch, so every window routed
        to it stays outstanding, and the overload check is made due
        before each following batch (its 0.1 s wall-clock pacing would
        otherwise decide which batch sees the backlog).  The worker
        resumes as soon as the scale-up is observed -- or at the last
        batch, so a missing scale-up fails the assertions instead of
        hanging the final sync."""
        autoscaler = Autoscaler(
            min_shards=2,
            max_shards=3,
            queue_high=0,  # any dispatched backlog triggers growth
            low_utilization=0.01,
            cooldown_seconds=60.0,  # one growth step per run
        )
        last_batch = (len(workload[2]) - 1) // BATCH_EVENTS
        stalled = []  # the controller of the stopped worker, while stopped

        def stall_shard_until_scaled(index, sharded, _server):
            if index == 10:
                stalled.append(ChaosController(sharded))
                stalled[0].stop_worker(0)
            elif stalled and (autoscaler.decisions or index == last_batch):
                stalled.pop().resume_worker(0)
            elif stalled:
                sharded._checks.start(0.0)  # next batch runs the check

        detected, snapshot, _reports = serve_with_chaos(
            workload,
            before_batch=stall_shard_until_scaled,
            cluster_options={"autoscaler": autoscaler},
        )
        assert not stalled
        assert detected == reference
        assert len(snapshot.shards) == 3
        assert autoscaler.decisions == 1

    def test_kill_and_reset_combined(self, workload, reference):
        """Both layers at once: a wire reset *and* a worker kill."""

        def kill_late(index, sharded, _server):
            if index == 60:
                os.kill(sharded._workers[1].pid, signal.SIGKILL)

        detected, snapshot, reports = serve_with_chaos(
            workload,
            before_batch=kill_late,
            chaos_schedule=lambda proxy: proxy.reset_at_frame(30),
        )
        assert detected == reference
        assert snapshot.restarts == 1
        assert sum(r.reconnects for r in reports) >= 1
