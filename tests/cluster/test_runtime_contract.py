"""One runtime contract, two executors: in-process and forked shards.

A :class:`~repro.cluster.ShardedPipeline` is a ``Pipeline``: the same
calls -- ``run``, ragged ``feed_many`` slices, single ``feed``,
``flush_pending`` mid-session, ``finish``, subscribed sinks, a bounded
queue, a static drop command applied through ``broadcast_shedding`` --
must give the detection keys of one sequential ``run``, in order,
whether the windows execute inline or on two forked shard workers.
"""

import pytest

from repro.cluster import ShardedPipeline, ShardedResult
from repro.core.partitions import plan_partitions
from repro.datasets import SoccerStreamConfig, generate_soccer_stream, split_stream
from repro.pipeline import Pipeline
from repro.queries import build_q1
from repro.shedding.base import DropCommand

SHARDS = 2

#: Slice sizes of the ragged ``feed_many`` session, cycled: below,
#: at and far above the cluster's router batch of 32.
RAGGED = [1, 7, 50, 3, 129, 32, 2]


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


@pytest.fixture(scope="module")
def reference(soccer, query):
    """The detection keys of one sequential, unshedded run."""
    _train, live = soccer
    found = keys(Pipeline.builder().query(query).build().run(live).complex_events)
    assert found
    return found


@pytest.fixture(params=["inline", "2-shards"])
def executor(request):
    return request.param


def keys(events):
    return [c.key for c in events]


def build(query, executor, sink=None, queue_capacity=None, model=None):
    builder = Pipeline.builder().query(query)
    if model is not None:
        builder.shedder("espice", f=0.8).bin_size(8).model(model)
    if sink is not None:
        builder.sink(sink)
    if queue_capacity is not None:
        builder.queue_capacity(queue_capacity)
    if executor != "inline":
        builder.distributed(shards=SHARDS)
    pipeline = builder.build()
    if model is not None:
        pipeline.deploy()
    return pipeline


def close(pipeline):
    if isinstance(pipeline, ShardedPipeline):
        pipeline.shutdown()


def feed_session(pipeline, events, sizes):
    """Feed ``events`` in slices of the cycled ``sizes``; then finish."""
    name = pipeline.queries[0].name
    got, at, turn = [], 0, 0
    while at < len(events):
        size = sizes[turn % len(sizes)]
        got += pipeline.feed_many(events[at : at + size])[name]
        at, turn = at + size, turn + 1
    return got + pipeline.finish()[name]


def test_run(soccer, query, executor, reference):
    _train, live = soccer
    pipeline = build(query, executor)
    try:
        result = pipeline.run(live)
    finally:
        close(pipeline)
    assert keys(result.complex_events) == reference
    assert result.events_fed == len(live)
    if executor != "inline":
        assert isinstance(result, ShardedResult)
        assert result.events_per_second > 0


def test_ragged_feed_many_then_finish(soccer, query, executor, reference):
    _train, live = soccer
    pipeline = build(query, executor)
    try:
        got = feed_session(pipeline, list(live), RAGGED)
    finally:
        close(pipeline)
    assert keys(got) == reference


def test_single_feed(soccer, query, executor, reference):
    _train, live = soccer
    pipeline = build(query, executor)
    name = query.name
    try:
        got = []
        for event in live:
            got += pipeline.feed(event)[name]
        got += pipeline.finish()[name]
    finally:
        close(pipeline)
    assert keys(got) == reference


def test_flush_pending_mid_session(soccer, query, executor, reference):
    _train, live = soccer
    events = list(live)
    half = len(events) // 2 + 5  # mid-batch at every batch size
    pipeline = build(query, executor)
    name = query.name
    try:
        got = pipeline.feed_many(events[:half])[name]
        got += pipeline.flush_pending()[name]
        assert pipeline.flush_pending() == {name: []}  # nothing left buffered
        got += pipeline.feed_many(events[half:])[name]
        got += pipeline.finish()[name]
    finally:
        close(pipeline)
    assert keys(got) == reference


def test_sinks_fire_in_sequential_order(soccer, query, executor, reference):
    _train, live = soccer
    seen = []
    pipeline = build(query, executor, sink=seen.append)
    try:
        result = pipeline.run(live)
    finally:
        close(pipeline)
    assert keys(seen) == keys(result.complex_events) == reference
    seen.clear()
    pipeline = build(query, executor, sink=seen.append)
    try:
        fed = feed_session(pipeline, list(live), RAGGED)
    finally:
        close(pipeline)
    assert keys(seen) == keys(fed) == reference


def test_bounded_queue(soccer, query, executor, reference):
    _train, live = soccer
    pipeline = build(query, executor, queue_capacity=10_000)
    try:
        replayed = keys(pipeline.run(live).complex_events)
    finally:
        close(pipeline)
    assert replayed == reference
    pipeline = build(query, executor, queue_capacity=10_000)
    try:
        fed = keys(feed_session(pipeline, list(live), RAGGED))
    finally:
        close(pipeline)
    assert fed == reference
    assert pipeline.backpressure()[query.name]["rejected"] == 0


def test_static_drop_command(soccer, query, model, executor, reference):
    """``broadcast_shedding`` sheds alike in-process and on every shard."""
    _train, live = soccer
    plan = plan_partitions(model.reference_size, qmax=1000.0, f=0.8)
    command = DropCommand(
        x=0.3 * plan.partition_size,
        partition_count=plan.partition_count,
        partition_size=plan.partition_size,
    )
    sequential = build(query, "inline", model=model)
    sequential.broadcast_shedding(command)
    shed = keys(sequential.run(live).complex_events)
    assert 0 < len(shed) < len(reference)  # the command really drops
    pipeline = build(query, executor, model=model)
    try:
        pipeline.broadcast_shedding(command)
        replayed = keys(pipeline.run(live).complex_events)
    finally:
        close(pipeline)
    assert replayed == shed


def test_distributed_build_is_a_pipeline(query):
    pipeline = build(query, "2-shards")
    assert isinstance(pipeline, Pipeline)
    assert isinstance(pipeline, ShardedPipeline)
    assert pipeline.shards == SHARDS
    assert not pipeline.started
    assert pipeline.queries == [query]
    assert pipeline.chain(query.name) is pipeline.chains[0]


def test_simulate_on_a_cluster_raises(soccer, query):
    _train, live = soccer
    pipeline = build(query, "2-shards")
    with pytest.raises(TypeError, match="simulate_sharded"):
        pipeline.simulate(live, input_rate=1400.0, throughput=1000.0)
    assert not pipeline.started
