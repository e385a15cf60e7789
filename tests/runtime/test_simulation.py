"""Unit tests for the virtual-time simulation (repro.runtime.simulation)."""

import dataclasses
import hashlib

import pytest

from repro.cep.events import StreamBuilder
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import CountSlidingWindows
from repro.core.overload import OverloadDetector
from repro.pipeline import Pipeline
from repro.runtime.simulation import (
    SimulationConfig,
    measure_mean_memberships,
    simulate,
    simulate_pipeline,
)
from repro.shedding.base import LoadShedder
from repro.shedding.random_shedder import RandomShedder


def toy_query(window=10, slide=None):
    return Query(
        name="toy",
        pattern=seq("toy", spec("A"), spec("B")),
        window_factory=lambda: CountSlidingWindows(window, slide),
    )


def toy_stream(n=1000):
    builder = StreamBuilder(rate=100.0)
    for i in range(n):
        builder.emit("A" if i % 3 == 0 else ("B" if i % 3 == 1 else "X"))
    return builder.stream


class TestMeasureMeanMemberships:
    def test_tumbling_is_one(self):
        assert measure_mean_memberships(toy_query(10), toy_stream(100)) == 1.0

    def test_sliding_overlap(self):
        value = measure_mean_memberships(toy_query(10, slide=5), toy_stream(100))
        assert value == pytest.approx(2.0, rel=0.1)

    def test_empty_stream(self):
        from repro.cep.events import EventStream

        assert measure_mean_memberships(toy_query(), EventStream()) == 1.0


class TestUnshedded:
    def test_underload_latency_is_processing_time(self):
        # R < th: no queueing; every event's latency ~= l(p)
        config = SimulationConfig(input_rate=100.0, throughput=1000.0)
        result = simulate(toy_query(), toy_stream(500), config)
        stats = result.latency.stats()
        assert stats.count == 500
        assert stats.maximum <= 2.0 / 1000.0 + 1e-9

    def test_overload_latency_grows_without_shedding(self):
        config = SimulationConfig(input_rate=1500.0, throughput=1000.0)
        result = simulate(toy_query(), toy_stream(2000), config)
        stats = result.latency.stats()
        assert stats.maximum > 0.3  # ~2000/3000 s of backlog at the end
        assert result.max_queue_size > 100

    def test_detections_match_ground_truth(self):
        from repro.runtime.quality import compare_results, ground_truth

        stream = toy_stream(500)
        query = toy_query()
        truth = ground_truth(query, stream)
        config = SimulationConfig(input_rate=100.0, throughput=1000.0)
        result = simulate(query, stream, config)
        report = compare_results(truth, result.complex_events)
        assert report.degradation == 0

    def test_unshedded_throughput_calibration(self):
        # virtual duration of a saturated run ~= n / th
        config = SimulationConfig(input_rate=10_000.0, throughput=1000.0)
        result = simulate(toy_query(), toy_stream(1000), config)
        assert result.virtual_duration == pytest.approx(1.0, rel=0.1)


class TestWithShedding:
    def _run(self, rate=1300.0, th=1000.0, n=3000):
        query = toy_query()
        stream = toy_stream(n)
        shedder = RandomShedder(seed=5)
        detector = OverloadDetector(
            latency_bound=0.1,
            f=0.8,
            reference_size=10,
            shedder=shedder,
            check_interval=0.01,
            fixed_processing_latency=1.0 / th,
            fixed_input_rate=rate,
        )
        config = SimulationConfig(
            input_rate=rate,
            throughput=th,
            latency_bound=0.1,
            check_interval=0.01,
        )
        return simulate(query, stream, config, shedder=shedder, detector=detector)

    def test_shedding_contains_latency(self):
        # a random shedder drops exactly the surplus, so the queue hovers
        # at the trigger point: the bound may be grazed but not blown
        # (zero-violation guarantees are eSPICE integration tests)
        result = self._run()
        stats = result.latency.stats()
        assert stats.violation_pct < 25.0
        assert stats.maximum < 2 * 0.1
        assert result.operator_stats.memberships_dropped > 0

    def test_detector_sampled(self):
        result = self._run()
        assert len(result.detector.samples) > 10
        assert any(s.shedding for s in result.detector.samples)

    def test_drop_ratio_near_surplus(self):
        result = self._run(rate=1300.0)
        # needs >= 23% membership drop to keep up; duty-cycling may add some
        assert 0.15 < result.operator_stats.drop_ratio() < 0.6


class TestBoundedQueue:
    def test_bounded_queue_at_r2_is_pinned(self):
        """R = 1.4 th into a 90-item queue: admission rejects by depth
        while the shedder (trigger at 80) drops memberships.  A bounded
        chain is driven one arrival per batch; the numbers are those of
        the per-event driver this replaced (commit ace9aca)."""
        query = toy_query(window=10, slide=2)
        stream = toy_stream(3000)
        pipeline = (
            Pipeline.builder()
            .query(query)
            .shedder("random", seed=5)
            .latency_bound(0.1)
            .check_interval(0.01)
            .reference_size(10)
            .queue_capacity(90)
            .build()
            .deploy(expected_throughput=1000.0, expected_input_rate=1400.0)
        )
        config = SimulationConfig(
            input_rate=1400.0,
            throughput=1000.0,
            latency_bound=0.1,
            check_interval=0.01,
            mean_memberships=measure_mean_memberships(query, stream),
        )
        result = simulate_pipeline(pipeline, stream, config)["toy"]
        chain = pipeline.chains[0]
        assert chain.admission.rejected == 57
        assert chain.window_assign.rejected == 0
        assert result.max_queue_size == 90
        keys = [c.key for c in result.complex_events]
        assert len(keys) == 1356
        assert hashlib.sha256(repr(keys).encode()).hexdigest()[:16] == (
            "7cf939a94471cbf3"
        )
        assert dataclasses.asdict(result.operator_stats) == {
            "events_processed": 2943,
            "memberships_kept": 10935,
            "memberships_dropped": 3760,
            "windows_completed": 1472,
            "complex_events": 1356,
        }
        assert (chain.shedder.decisions, chain.shedder.drops) == (13210, 3760)


class TestConfigValidation:
    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            SimulationConfig(input_rate=0.0, throughput=1.0)
        with pytest.raises(ValueError):
            SimulationConfig(input_rate=1.0, throughput=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(input_rate=1.0, throughput=1.0, latency_bound=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(input_rate=1.0, throughput=1.0, mean_memberships=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(input_rate=1.0, throughput=1.0, idle_cost_fraction=1.0)

    @pytest.mark.parametrize(
        "interval", [0.0, -0.01, float("nan"), float("inf")]
    )
    def test_check_interval_must_be_positive_and_finite(self, interval):
        with pytest.raises(ValueError, match="check interval"):
            SimulationConfig(input_rate=1.0, throughput=1.0, check_interval=interval)

    def test_zero_check_interval_rejected_before_the_run(self):
        """Ticks advance by the interval: at zero a deployed pipeline
        used to tick forever at t = 0 instead of returning."""
        pipeline = (
            Pipeline.builder()
            .query(toy_query())
            .shedder("random", seed=5)
            .reference_size(10)
            .build()
            .deploy(expected_throughput=1000.0, expected_input_rate=1400.0)
        )
        with pytest.raises(ValueError, match="check interval"):
            pipeline.simulate(
                toy_stream(50), input_rate=1400.0, throughput=1000.0, check_interval=0.0
            )

    def test_overload_factor(self):
        config = SimulationConfig(input_rate=1200.0, throughput=1000.0)
        assert config.overload_factor == pytest.approx(1.2)


class TestDeterminism:
    def test_same_inputs_same_outputs(self):
        results = [self._one() for _ in range(2)]
        assert results[0] == results[1]

    def _one(self):
        query = toy_query()
        stream = toy_stream(800)
        shedder = RandomShedder(seed=9)
        detector = OverloadDetector(
            latency_bound=0.1,
            f=0.8,
            reference_size=10,
            shedder=shedder,
            check_interval=0.01,
            fixed_processing_latency=0.001,
            fixed_input_rate=1300.0,
        )
        config = SimulationConfig(
            input_rate=1300.0, throughput=1000.0, latency_bound=0.1, check_interval=0.01
        )
        result = simulate(query, stream, config, shedder=shedder, detector=detector)
        return (
            [c.key for c in result.complex_events],
            result.operator_stats.memberships_dropped,
            result.latency.stats().mean,
        )
