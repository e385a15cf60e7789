"""Unit tests for the middleware stages (repro.pipeline.stages)."""

import pytest

from repro.cep.events import StreamBuilder
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import CountSlidingWindows
from repro.pipeline import (
    EventBatch,
    LoggingStage,
    Pipeline,
    RateLimitStage,
    SamplingStage,
    Stage,
    StageContext,
)


def toy_query(window=4):
    return Query(
        name="toy",
        pattern=seq("toy", spec("A"), spec("B")),
        window_factory=lambda: CountSlidingWindows(window),
    )


def toy_stream(repetitions=20, rate=10.0):
    builder = StreamBuilder(rate=rate)
    for _ in range(repetitions):
        builder.emit_many(["A", "B", "X", "X"])
    return builder.stream


class TestStageProtocol:
    def test_core_chain_order(self):
        chain = Pipeline.builder().query(toy_query()).build().chains[0]
        names = [stage.name for stage in chain.stages]
        assert names == ["admission", "window_assign", "shedding", "match", "emit"]

    def test_custom_stage_between_admission_and_assign(self):
        stage = LoggingStage()
        chain = Pipeline.builder().query(toy_query()).stage(stage).build().chains[0]
        names = [s.name for s in chain.ingress]
        assert names == ["admission", "logging", "window_assign"]

    def test_metrics_exposed_per_stage(self):
        pipeline = Pipeline.builder().query(toy_query()).build()
        pipeline.run(toy_stream())
        report = pipeline.metrics()["toy"]
        assert report["admission"]["arrivals"] == 80
        assert report["match"]["events_processed"] == 80
        assert report["emit"]["emitted"] == report["match"]["complex_events"]

    def test_default_stage_is_passthrough(self):
        stage = Stage()
        ctx = StageContext(event=None, now=0.0)
        assert stage.on_event(ctx) is True
        assert stage.metrics() == {}


class TestCustomStages:
    def test_logging_stage_counts_types(self):
        stage = LoggingStage()
        pipeline = Pipeline.builder().query(toy_query()).stage(stage).build()
        pipeline.run(toy_stream(10))
        assert stage.seen == 40
        assert stage.by_type["A"] == 10
        assert stage.by_type["X"] == 20

    def test_sampling_stage_drops_events(self):
        stage = SamplingStage(keep_probability=0.5, seed=1)
        pipeline = Pipeline.builder().query(toy_query()).stage(stage).build()
        result = pipeline.run(toy_stream(50))
        assert stage.dropped > 0
        assert stage.kept + stage.dropped == 200
        # sampled-away events never reach the operator
        assert (
            pipeline.metrics()["toy"]["match"]["events_processed"] == stage.kept
        )
        assert result.events_fed == 200

    def test_sampling_zero_keeps_nothing(self):
        stage = SamplingStage(keep_probability=0.0)
        pipeline = Pipeline.builder().query(toy_query()).stage(stage).build()
        result = pipeline.run(toy_stream(5))
        assert result.complex_events == []
        assert stage.kept == 0

    def test_rate_limit_stage(self):
        # stream at 10 events/s, limit at 5/s with burst 1: roughly half pass
        stage = RateLimitStage(events_per_second=5.0, burst=1.0)
        pipeline = Pipeline.builder().query(toy_query()).stage(stage).build()
        pipeline.run(toy_stream(50))
        assert stage.limited > 0
        assert stage.passed + stage.limited == 200
        assert stage.passed == pytest.approx(100, rel=0.1)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SamplingStage(keep_probability=1.5)
        with pytest.raises(ValueError):
            RateLimitStage(events_per_second=0.0)


class TestOnEventOnlyStages:
    """Stages that implement only ``on_event`` ride the base adapter:
    a veto means the same thing at every batch size and under the
    virtual-time driver (whose egress batches hold one item)."""

    @staticmethod
    def _build(batch_size=1):
        ingress = SamplingStage(keep_probability=0.6, seed=3)
        egress = SamplingStage(keep_probability=0.5, seed=4)
        after = LoggingStage(name="after_egress_veto")
        pipeline = (
            Pipeline.builder()
            .query(toy_query())
            .batch(batch_size)
            .stage(ingress)
            .stage(egress, where="egress")
            .stage(after, where="egress")
            .build()
        )
        return pipeline, (ingress, egress, after)

    @staticmethod
    def _counters(pipeline, stages):
        ingress, egress, after = stages
        chain = pipeline.chains[0]
        return {
            "ingress": (ingress.kept, ingress.dropped),
            "egress": (egress.kept, egress.dropped),
            "after": (after.seen, dict(after.by_type)),
            "arrivals": chain.admission.arrivals,
            "memberships": chain.window_assign.assigned_memberships,
            "processed": chain.operator.stats.events_processed,
            "emitted": chain.emit.emitted,
        }

    def _reference(self):
        pipeline, stages = self._build()
        keys = [c.key for c in pipeline.run(toy_stream(50)).complex_events]
        counters = self._counters(pipeline, stages)
        ingress_kept, _ = counters["ingress"]
        egress_kept, egress_dropped = counters["egress"]
        # both vetoes bite, each where it stands
        assert 0 < ingress_kept < 200 and counters["processed"] == ingress_kept
        assert egress_dropped > 0 and egress_kept + egress_dropped == ingress_kept
        assert counters["after"][0] == egress_kept
        assert keys
        return keys, counters

    @pytest.mark.parametrize("batch_size", [7, 64])
    def test_vetoes_identical_at_every_batch_size(self, batch_size):
        keys, counters = self._reference()
        pipeline, stages = self._build(batch_size)
        result = pipeline.run(toy_stream(50))
        assert [c.key for c in result.complex_events] == keys
        assert self._counters(pipeline, stages) == counters

    def test_vetoes_identical_under_simulate(self):
        keys, counters = self._reference()
        pipeline, stages = self._build()
        result = pipeline.simulate(toy_stream(50), input_rate=140.0, throughput=100.0)
        assert [c.key for c in result.complex_events] == keys
        assert self._counters(pipeline, stages) == counters


class TestBackpressure:
    def test_bounded_queue_rejects_at_admission(self):
        pipeline = Pipeline.builder().query(toy_query()).queue_capacity(5).build()
        chain = pipeline.chains[0]
        # drive the sim-facing surface directly: ingest without draining
        for i, event in enumerate(toy_stream(10)):
            chain.ingest_batch(EventBatch([event], [float(i)]))
        assert chain.queue.size == 5
        assert chain.admission.rejected == 40 - 5
        report = pipeline.backpressure()["toy"]
        assert report["queue_depth"] == 5
        assert report["rejected"] == 35

    def test_unbounded_queue_never_rejects(self):
        chain = Pipeline.builder().query(toy_query()).build().chains[0]
        for i, event in enumerate(toy_stream(10)):
            chain.ingest_batch(EventBatch([event], [float(i)]))
        assert chain.queue.size == 40
        assert chain.admission.rejected == 0
