"""Behavioural tests for the unified Pipeline (repro.pipeline.pipeline)."""

import pytest

from repro.cep.events import StreamBuilder
from repro.cep.operator.operator import CEPOperator
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import CountSlidingWindows
from repro.core.overload import OverloadDetector
from repro.pipeline import Pipeline
from repro.queries import build_q1
from repro.datasets import SoccerStreamConfig, generate_soccer_stream, split_stream
from repro.runtime.quality import compare_results, ground_truth
from repro.runtime.simulation import SimulationConfig, simulate


def toy_query(name="toy", window=4, types=("A", "B")):
    return Query(
        name=name,
        pattern=seq(name, *[spec(t) for t in types]),
        window_factory=lambda: CountSlidingWindows(window),
    )


def toy_stream(repetitions=30):
    builder = StreamBuilder(rate=10.0)
    for _ in range(repetitions):
        builder.emit_many(["A", "B", "X", "C"])
    return builder.stream


def soccer_setup(duration=1200, pattern_size=2):
    stream = generate_soccer_stream(SoccerStreamConfig(duration_seconds=duration))
    train, live = split_stream(stream, train_fraction=0.5)
    query = build_q1(pattern_size=pattern_size, window_seconds=15.0)
    return query, train, live


class TestLiveMode:
    def test_run_matches_ground_truth(self):
        query = toy_query()
        stream = toy_stream()
        truth = ground_truth(query, stream)
        result = Pipeline.builder().query(query).build().run(stream)
        assert [c.key for c in result.complex_events] == [c.key for c in truth]

    def test_feed_returns_new_detections(self):
        query = toy_query()
        pipeline = Pipeline.builder().query(query).build()
        total = 0
        for event in toy_stream(10):
            out = pipeline.feed(event)
            total += len(out["toy"])
        # windows closed by later arrivals: all but the trailing ones
        truth = ground_truth(query, toy_stream(10))
        assert total >= len(truth) - 2
        assert total <= len(truth)

    def test_run_collects_per_run(self):
        query = toy_query()
        pipeline = Pipeline.builder().query(query).build()
        first = pipeline.run(toy_stream(10))
        second = pipeline.run(toy_stream(10))
        # second run sees fresh events only (no double counting)
        assert first.events_fed == second.events_fed == 40


class TestMultiQueryFanOut:
    def test_two_queries_equal_two_sequential_runs(self):
        """ISSUE satellite: fan-out == independent sequential runs."""
        q1 = toy_query("q_ab", types=("A", "B"))
        q2 = toy_query("q_ac", types=("A", "C"))
        stream = toy_stream(40)

        fanout = Pipeline.builder().query(q1).query(q2).build().run(stream)

        solo1 = Pipeline.builder().query(toy_query("q_ab", types=("A", "B"))).build()
        solo2 = Pipeline.builder().query(toy_query("q_ac", types=("A", "C"))).build()
        keys = lambda events: [c.key for c in events]  # noqa: E731

        assert keys(fanout.for_query("q_ab")) == keys(
            solo1.run(stream).complex_events
        )
        assert keys(fanout.for_query("q_ac")) == keys(
            solo2.run(stream).complex_events
        )
        assert fanout.totals()["q_ab"] > 0
        assert fanout.totals()["q_ac"] > 0

    def test_fanout_against_direct_operators(self):
        q1 = toy_query("q_ab", types=("A", "B"))
        q2 = toy_query("q_ac", types=("A", "C"))
        stream = toy_stream(40)
        fanout = Pipeline.builder().query(q1).query(q2).build().run(stream)
        for query in (q1, q2):
            direct = CEPOperator(query).detect_all(stream)
            assert [c.key for c in fanout.for_query(query.name)] == [
                c.key for c in direct
            ]


class TestSimulationEquivalence:
    """pipeline.simulate == the hand-wired simulate() wrapper."""

    def test_espice_equivalence(self):
        query, train, live = soccer_setup()

        # hand wiring: loose shedder + detector into the simulate() wrapper
        trainer = (
            Pipeline.builder().query(query).shedder("espice").bin_size(8).build()
        )
        model = trainer.train(train).model
        shedder = trainer.create_shedder()
        detector = OverloadDetector(
            latency_bound=1.0,
            f=0.8,
            reference_size=model.reference_size,
            shedder=shedder,
            fixed_processing_latency=1.0 / 1000.0,
            fixed_input_rate=1400.0,
        )
        from repro.runtime.simulation import measure_mean_memberships

        old = simulate(
            query,
            live,
            SimulationConfig(
                input_rate=1400.0,
                throughput=1000.0,
                latency_bound=1.0,
                mean_memberships=measure_mean_memberships(query, live),
            ),
            shedder=shedder,
            detector=detector,
            prime_window_size=model.reference_size,
        )

        # new wiring through the pipeline API
        pipeline = (
            Pipeline.builder()
            .query(query)
            .shedder("espice", f=0.8)
            .latency_bound(1.0)
            .bin_size(8)
            .build()
        )
        pipeline.train(train)
        pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1400.0)
        new = pipeline.simulate(live, input_rate=1400.0, throughput=1000.0)

        assert [c.key for c in new.complex_events] == [
            c.key for c in old.complex_events
        ]
        assert (
            new.operator_stats.memberships_dropped
            == old.operator_stats.memberships_dropped
        )
        assert new.latency.stats().mean == pytest.approx(old.latency.stats().mean)
        assert new.max_queue_size == old.max_queue_size

    def test_sim_quality_beats_random(self):
        query, train, live = soccer_setup(duration=1600, pattern_size=3)
        truth = ground_truth(query, live)
        outcomes = {}
        for label in ("espice", "random"):
            pipeline = (
                Pipeline.builder()
                .query(query)
                .shedder(label, f=0.8, seed=1)
                .latency_bound(1.0)
                .bin_size(8)
                .build()
            )
            pipeline.train(train)
            pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1400.0)
            result = pipeline.simulate(live, input_rate=1400.0, throughput=1000.0)
            outcomes[label] = compare_results(truth, result.complex_events)
        assert (
            outcomes["espice"].false_negative_pct
            < outcomes["random"].false_negative_pct
        )


class TestRetrain:
    def test_hot_swap_updates_live_components(self):
        query, train, live = soccer_setup()
        pipeline = (
            Pipeline.builder()
            .query(query)
            .shedder("espice", f=0.8)
            .latency_bound(1.0)
            .bin_size(8)
            .build()
        )
        pipeline.train(train)
        pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1400.0)
        chain = pipeline.chains[0]
        old_model = chain.model
        assert chain.shedder.model is old_model

        pipeline.retrain(live)
        assert chain.model is not old_model
        assert chain.shedder.model is chain.model  # hot swap reached the shedder
        assert chain.detector.reference_size == chain.model.reference_size

    def test_shedder_stays_active_through_swap(self):
        query, train, live = soccer_setup()
        pipeline = (
            Pipeline.builder()
            .query(query)
            .shedder("espice", f=0.8)
            .latency_bound(1.0)
            .bin_size(8)
            .build()
        )
        pipeline.train(train)
        pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1400.0)
        chain = pipeline.chains[0]
        chain.shedder.activate()
        pipeline.retrain(live)
        assert chain.shedder.active
