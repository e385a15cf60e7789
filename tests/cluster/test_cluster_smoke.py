"""Cluster smoke: 2 real worker processes over a small soccer trace.

Quick-mode coverage of the whole `repro.cluster` lifecycle -- builder
wiring, run/merge, snapshot, hot model swap, coordinated shedding,
failure handling -- kept small enough for the CI cluster smoke job
(which runs this file and ``test_runtime_contract.py``, the runtime
surface a cluster shares with an in-process pipeline, on every Python
version under a hard timeout, so a multiprocessing deadlock fails fast
instead of hanging).
"""

import pickle

import pytest

from repro.core.partitions import plan_partitions
from repro.datasets import SoccerStreamConfig, generate_soccer_stream, split_stream
from repro.pipeline import Pipeline
from repro.queries import build_q1
from repro.shedding.base import DropCommand

SHARDS = 2


@pytest.fixture(scope="module")
def soccer():
    stream = generate_soccer_stream(SoccerStreamConfig(duration_seconds=600))
    return split_stream(stream, train_fraction=0.5)


@pytest.fixture(scope="module")
def query():
    return build_q1(pattern_size=2, window_seconds=15.0)


@pytest.fixture(scope="module")
def model(soccer, query):
    train, _live = soccer
    return (
        Pipeline.builder()
        .query(query)
        .shedder("espice", f=0.8)
        .bin_size(8)
        .build()
        .train(train)
        .model
    )


def keys(events):
    return [c.key for c in events]


def sharded_builder(query, **distributed):
    distributed.setdefault("shards", SHARDS)
    return Pipeline.builder().query(query).distributed(**distributed)


class TestBuilderWiring:
    def test_distributed_rejects_adaptive(self, query):
        with pytest.raises(ValueError, match="adaptive"):
            (
                Pipeline.builder()
                .query(query)
                .shedder("espice")
                .adaptive()
                .distributed(2)
                .build()
            )

    def test_bad_shard_count(self, query):
        with pytest.raises(ValueError):
            Pipeline.builder().query(query).distributed(0)

    def test_distributed_rejects_custom_egress_stages(self, query):
        """Egress stages run nowhere in sharded mode -> loud failure."""
        from repro.pipeline import LoggingStage

        with pytest.raises(ValueError, match="egress"):
            (
                Pipeline.builder()
                .query(query)
                .stage(LoggingStage(), where="egress")
                .distributed(2)
                .build()
            )

    def test_distributed_allows_ingress_stages(self, soccer, query):
        """Ingress middleware runs on the router and keeps counting."""
        from repro.pipeline import LoggingStage

        _train, live = soccer
        logging_stage = LoggingStage()
        sharded = (
            Pipeline.builder()
            .query(query)
            .stage(logging_stage, where="ingress")
            .distributed(shards=SHARDS)
            .build()
        )
        with sharded:
            sharded.run(live)
        assert logging_stage.seen == len(live)

    def test_lifecycle_locks_after_start(self, soccer, query):
        train, _live = soccer
        sharded = sharded_builder(query).build()
        with sharded:
            with pytest.raises(RuntimeError, match="before start"):
                sharded.train(train)
            with pytest.raises(RuntimeError, match="before start"):
                sharded.deploy()


class TestRunAndMerge:
    def test_repeated_runs_reuse_workers(self, soccer, query):
        _train, live = soccer
        head = live.slice(0, len(live) // 2)
        with sharded_builder(query).build() as sharded:
            first = sharded.run(head)
            second = sharded.run(head)  # windows keep flowing, ids advance
        assert first.totals() and second.totals()
        total = sharded.snapshot()
        assert total.events_ingested == 2 * len(head)

    def test_live_batch_pending_at_run_joins_the_replay(self, soccer, query):
        """Events fed live and still buffered are processed before a run.

        ``feed_many`` of 10 events leaves a part-filled router batch;
        ``run`` must flush it first, exactly as the sequential
        ``Pipeline.run`` does -- ingesting it after the replay would
        reorder the stream and lose detections.
        """
        _train, live = soccer
        events = list(live)
        sequential = Pipeline.builder().query(query).build().run(live)
        with sharded_builder(query).build() as sharded:
            got = sharded.feed_many(events[:10])[query.name]
            got += sharded.run(events[10:]).complex_events
            got += sharded.finish()[query.name]
        assert keys(got) == keys(sequential.complex_events)

    def test_alternative_routers_do_not_change_detections(self, soccer, query):
        _train, live = soccer
        reference = None
        for router in ("round-robin", "hash", "least-loaded"):
            with sharded_builder(query, router=router).build() as sharded:
                out = keys(sharded.run(live).complex_events)
            if reference is None:
                reference = out
                assert reference
            else:
                assert out == reference, f"router {router} changed detections"


class _SpyQueue:
    """``put()`` proxy keeping the pickled bytes of every batch."""

    def __init__(self, inner):
        self.inner = inner
        self.blobs = []

    def put(self, batch):
        self.blobs.append(pickle.dumps(batch))
        self.inner.put(batch)


class TestSpansCrossThePipe:
    """The coordinator->worker hop carries log segments and spans: no
    ``Window`` (and no ``Event``: segments are packed columns) is ever
    pickled towards a worker, in any mode, and an event crosses at most
    once per shard."""

    def _spy(self, sharded):
        spies = []
        for sender in sharded._senders:
            if not isinstance(sender.queue, _SpyQueue):
                sender.queue = _SpyQueue(sender.queue)
            spies.append(sender.queue)
        return spies

    def _assert_no_objects(self, spies, snapshot):
        blobs = [blob for spy in spies for blob in spy.blobs]
        assert any(b"winbatch" in blob for blob in blobs)
        assert not any(b"Window" in blob or b"Event" in blob for blob in blobs)
        once_per_shard = len(snapshot.shards) * snapshot.events_ingested
        assert 0 < snapshot.transport["events_shipped"] <= once_per_shard

    def test_replay(self, soccer, query):
        _train, live = soccer
        sequential = Pipeline.builder().query(query).build().run(live)
        with sharded_builder(query, router="hash").build() as sharded:
            spies = self._spy(sharded.start())
            result = sharded.run(live)
        assert keys(result.complex_events) == keys(sequential.complex_events)
        self._assert_no_objects(spies, result.snapshot)
        memberships = sum(s.memberships_kept for s in result.snapshot.shards)
        assert result.snapshot.transport["events_shipped"] < memberships

    def test_live_feed_fault_tolerant_with_scale_up(self, soccer, query):
        _train, live = soccer
        events = list(live)
        sequential = Pipeline.builder().query(query).build().run(live)
        got = []
        with sharded_builder(query, fault_tolerant=True).build() as sharded:
            spies = self._spy(sharded.start())
            for at in range(0, len(events), 50):
                if at == 2000:
                    sharded.scale_up()
                    spies = self._spy(sharded)
                got += sharded.feed_many(events[at : at + 50])[query.name]
            got += sharded.finish()[query.name]
            snapshot = sharded.snapshot()
        assert keys(got) == keys(sequential.complex_events)
        assert len(snapshot.shards) == SHARDS + 1
        self._assert_no_objects(spies, snapshot)


class TestSnapshot:
    def test_snapshot_aggregates_shards(self, soccer, query):
        _train, live = soccer
        with sharded_builder(query).build() as sharded:
            result = sharded.run(live)
        snapshot = result.snapshot
        assert len(snapshot.shards) == SHARDS
        dispatched = snapshot.windows_dispatched[query.name]
        assert dispatched > 0
        assert sum(s.windows for s in snapshot.shards) == dispatched
        assert snapshot.complex_events[query.name] == len(result.complex_events)
        for status in snapshot.shards:
            assert 0.0 <= status.utilization <= 1.0
            assert status.pending_windows == 0  # everything merged back
        assert snapshot.queue_depths() == [0] * SHARDS
        assert snapshot.router["policy"] == "round-robin"
        assert snapshot.transport["messages"] >= dispatched
        assert snapshot.transport["avg_batch"] >= 1.0
        assert snapshot.total_pending_events == 0

    def test_drift_signal_present(self, soccer, query, model):
        _train, live = soccer
        sharded = (
            Pipeline.builder()
            .query(query)
            .shedder("espice", f=0.8)
            .bin_size(8)
            .model(model)
            .distributed(shards=SHARDS)
            .build()
        )
        sharded.deploy()
        with sharded:
            snapshot = sharded.run(live).snapshot
        signal = snapshot.drift[query.name]
        assert signal.trained_match_rate > 0
        assert signal.reason


class TestCoordinatedShedding:
    def command(self, model):
        plan = plan_partitions(model.reference_size, qmax=1000.0, f=0.8)
        return DropCommand(
            x=0.3 * plan.partition_size,
            partition_count=plan.partition_count,
            partition_size=plan.partition_size,
        )

    def sharded(self, query, model):
        sharded = (
            Pipeline.builder()
            .query(query)
            .shedder("espice", f=0.8)
            .bin_size(8)
            .model(model)
            .distributed(shards=SHARDS)
            .build()
        )
        sharded.deploy()
        return sharded

    def test_broadcast_reaches_every_shard(self, soccer, query, model):
        _train, live = soccer
        with self.sharded(query, model) as sharded:
            sharded.broadcast_shedding(self.command(model))
            snapshot = sharded.run(live).snapshot
            assert snapshot.shedding[query.name] is True
            for status in snapshot.shards:
                assert status.shedding_active[query.name] is True
                assert status.memberships_dropped > 0
            assert snapshot.drop_rate() > 0.0

    def test_stop_shedding_deactivates_all_shards(self, soccer, query, model):
        _train, live = soccer
        with self.sharded(query, model) as sharded:
            sharded.broadcast_shedding(self.command(model))
            sharded.stop_shedding()
            snapshot = sharded.run(live).snapshot
            assert snapshot.shedding[query.name] is False
            for status in snapshot.shards:
                assert status.shedding_active[query.name] is False
                assert status.memberships_dropped == 0


class TestHotModelSwap:
    def test_retrain_broadcasts_new_model(self, soccer, query, model):
        train, live = soccer
        with TestCoordinatedShedding().sharded(query, model) as sharded:
            sharded.run(live)
            before = sharded.snapshot()
            assert all(
                s.model_versions[query.name] == 1 for s in before.shards
            )
            sharded.retrain(live)
            after = sharded.ping()
            assert after.model_versions[query.name] == 2
            expected = sharded.model.fingerprint()
            for status in after.shards:
                assert status.model_versions[query.name] == 2
                assert status.model_fingerprints[query.name] == expected


class TestFailureHandling:
    def test_dead_worker_is_reported(self, soccer, query, wait_until):
        _train, live = soccer
        sharded = sharded_builder(query).build()
        try:
            sharded.start()
            sharded._workers[0].terminate()
            wait_until(lambda: not sharded._workers[0].is_alive())
            with pytest.raises(RuntimeError, match="died|failed"):
                sharded.run(live)
        finally:
            sharded.shutdown()

    def test_shutdown_is_idempotent(self, query):
        sharded = sharded_builder(query).build()
        sharded.start()
        sharded.shutdown()
        sharded.shutdown()
        assert not sharded.started


class TestMultiQueryFanOut:
    def test_both_chains_match_sequential(self, soccer, query):
        _train, live = soccer
        tight = build_q1(pattern_size=3, window_seconds=10.0)
        sequential = (
            Pipeline.builder().query(query).query(tight).build().run(live)
        )
        sharded = (
            Pipeline.builder()
            .query(query)
            .query(tight)
            .distributed(shards=SHARDS)
            .build()
        )
        with sharded:
            result = sharded.run(live)
        for name in (query.name, tight.name):
            assert keys(result.for_query(name)) == keys(
                sequential.for_query(name)
            ), name
