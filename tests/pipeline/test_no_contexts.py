"""The core chain moves columns: it builds no per-event ``StageContext``.

A context exists only for a user stage that thinks per event
(``Stage.on_event``), one per live event, for that stage alone.  The
count is taken by wrapping ``StageContext.__init__``, so this pins the
structure of the event path independently of timing.
"""

import pytest

from repro.datasets import SoccerStreamConfig, generate_soccer_stream
from repro.experiments import workloads as datasets
from repro.pipeline import LoggingStage, Pipeline, SamplingStage, StageContext
from repro.queries import build_q1, build_q3


@pytest.fixture
def constructed(monkeypatch):
    """Counts ``StageContext`` constructions while the test runs."""
    count = {"contexts": 0}
    init = StageContext.__init__

    def counting_init(self, *args, **kwargs):
        count["contexts"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(StageContext, "__init__", counting_init)
    return count


@pytest.fixture(scope="module")
def soccer():
    return list(generate_soccer_stream(SoccerStreamConfig(duration_seconds=300)))


def q1_pipeline(*stages):
    builder = Pipeline.builder().query(build_q1(pattern_size=2, window_seconds=15.0))
    for stage in stages:
        builder = builder.stage(stage)
    return builder.batch(16).build()


def feed(pipeline, stream):
    name = pipeline.chains[0].query.name
    detected = []
    for at in range(0, len(stream), 64):
        detected += pipeline.feed_many(stream[at : at + 64])[name]
    detected += pipeline.finish()[name]
    return detected


def test_core_feed_builds_no_context(soccer, constructed):
    assert feed(q1_pipeline(), soccer)
    assert constructed["contexts"] == 0


def espice_q3(*egress_stages):
    train, live = datasets.stock_streams_q3(ticks=120, seed=3)
    builder = (
        Pipeline.builder()
        .query(build_q3(300))
        .shedder("espice", f=0.8, seed=3)
        .latency_bound(1.0)
    )
    for stage in egress_stages:
        builder = builder.stage(stage, where="egress")
    pipeline = builder.build().train(train)
    pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1400.0)
    return pipeline, live


def test_trained_espice_simulate_builds_no_context(constructed):
    pipeline, live = espice_q3()
    result = pipeline.simulate(live, input_rate=1400.0, throughput=1000.0)
    assert result.operator_stats.memberships_dropped > 0  # the kernel ran
    assert constructed["contexts"] == 0


def test_simulate_builds_contexts_for_an_egress_on_event_stage_only(constructed):
    logging_stage = LoggingStage()
    pipeline, live = espice_q3(logging_stage)
    pipeline.simulate(live, input_rate=1400.0, throughput=1000.0)
    assert logging_stage.seen == len(live)
    assert constructed["contexts"] == len(live)


def test_one_context_per_live_event_for_the_on_event_stage_only(soccer, constructed):
    logging_stage = LoggingStage()
    assert feed(q1_pipeline(logging_stage), soccer)
    assert logging_stage.seen == len(soccer)
    assert constructed["contexts"] == len(soccer)


def test_a_vetoed_event_gets_no_context_downstream(soccer, constructed):
    sampling, logging_stage = SamplingStage(0.5, seed=1), LoggingStage()
    feed(q1_pipeline(sampling, logging_stage), soccer)
    assert 0 < sampling.kept < len(soccer)
    assert logging_stage.seen == sampling.kept
    assert constructed["contexts"] == len(soccer) + sampling.kept
