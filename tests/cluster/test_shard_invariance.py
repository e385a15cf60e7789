"""Shard-count invariance across real processes.

The paper claims eSPICE "is independent of the parallelism degree of
the operator" (§5).  The forked-shard cluster is the codebase's only
window parallelism, so these property-style tests are where the claim
is gated: ``simulate_sharded`` with
shards ∈ {1, 2, 4, 8} -- real forked worker processes, batched IPC
transport, merge-and-order -- emits *identical complex events in
identical order* as a sequential ``simulate_pipeline`` run of the same
deployment, for Q1 (soccer, time-extent predicate windows) and Q3
(stock cascades, count-extent windows), both under active shedding.

Shedding is configured as a static drop command (the established
deterministic "under shedding" setup: detector-driven activation reacts
to wall-clock backpressure and is inherently not replayable).
"""

import pytest

from repro.core.partitions import plan_partitions
from repro.datasets import SoccerStreamConfig, generate_soccer_stream, split_stream
from repro.experiments import workloads
from repro.pipeline import (
    Pipeline,
    SimulationConfig,
    measure_mean_memberships,
    simulate_pipeline,
)
from repro.queries import build_q1, build_q3
from repro.runtime.simulation import simulate_sharded
from repro.shedding.base import DropCommand

SHARD_COUNTS = (1, 2, 4, 8)


def keys(events):
    return [c.key for c in events]


def train_model(query, train):
    return (
        Pipeline.builder()
        .query(query)
        .shedder("espice", f=0.8)
        .bin_size(8)
        .build()
        .train(train)
        .model
    )


def drop_command(model, fraction=0.2):
    plan = plan_partitions(model.reference_size, qmax=1000.0, f=0.8)
    return DropCommand(
        x=fraction * plan.partition_size,
        partition_count=plan.partition_count,
        partition_size=plan.partition_size,
    )


def deployed_pipeline(query, model):
    pipeline = (
        Pipeline.builder()
        .query(query)
        .shedder("espice", f=0.8)
        .latency_bound(1.0)
        .bin_size(8)
        .model(model)
        .build()
    )
    pipeline.deploy()
    return pipeline


def sequential_reference(query, model, live, command):
    pipeline = deployed_pipeline(query, model)
    pipeline.chains[0].shedder.on_drop_command(command)
    pipeline.chains[0].shedder.activate()
    config = SimulationConfig(
        input_rate=1200.0,
        throughput=1000.0,
        mean_memberships=measure_mean_memberships(query, live),
    )
    return simulate_pipeline(pipeline, live, config)[query.name]


@pytest.fixture(scope="module")
def q1_setup():
    stream = generate_soccer_stream(SoccerStreamConfig(duration_seconds=1200))
    train, live = split_stream(stream, train_fraction=0.5)
    query = build_q1(pattern_size=2, window_seconds=15.0)
    model = train_model(query, train)
    return query, model, live


@pytest.fixture(scope="module")
def q3_setup():
    train, live = workloads.stock_streams_q3(sequence_length=6, ticks=150, seed=9)
    query = build_q3(window_events=60, sequence_length=6)
    model = train_model(query, train)
    return query, model, live


class TestShardInvariance:
    @pytest.mark.parametrize("setup_fixture", ["q1_setup", "q3_setup"])
    def test_sharded_equals_sequential_under_shedding(
        self, setup_fixture, request
    ):
        query, model, live = request.getfixturevalue(setup_fixture)
        command = drop_command(model)
        reference = keys(
            sequential_reference(query, model, live, command).complex_events
        )
        assert reference  # shedding must leave something to detect
        for shards in SHARD_COUNTS:
            result = simulate_sharded(
                deployed_pipeline(query, model),
                live,
                shards=shards,
                drop_command=command,
            )
            produced = keys(result.complex_events)
            # identical contents AND identical order after the merge
            assert produced == reference, f"shards={shards} diverged"

    def test_shedding_actually_dropped(self, q1_setup):
        """Guard: the invariance above must not be vacuous."""
        query, model, live = q1_setup
        result = simulate_sharded(
            deployed_pipeline(query, model),
            live,
            shards=2,
            drop_command=drop_command(model),
        )
        assert result.snapshot.drop_rate() > 0.05
        unshedded = Pipeline.builder().query(query).build().run(live)
        assert len(result.complex_events) < len(unshedded.complex_events)

    def test_unshedded_invariance_via_pipeline_entrypoint(self, q1_setup):
        """The builder entry point: .distributed() runs match sequential."""
        query, _model, live = q1_setup
        sequential = Pipeline.builder().query(query).build().run(live)
        for shards in (1, 4):
            sharded = (
                Pipeline.builder().query(query).distributed(shards=shards).build()
            )
            with sharded:
                result = sharded.run(live)
            assert keys(result.complex_events) == keys(
                sequential.complex_events
            ), f"shards={shards}"

    def test_drop_command_requires_shedder(self, q1_setup):
        query, _model, live = q1_setup
        pipeline = Pipeline.builder().query(query).build()
        with pytest.raises(RuntimeError, match="no shedder"):
            simulate_sharded(
                pipeline, live, shards=2, drop_command=DropCommand(x=1.0)
            )
