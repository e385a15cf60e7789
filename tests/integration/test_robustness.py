"""Robustness and failure-injection tests.

The shedding stack must degrade gracefully on inputs the model never
saw, on bursty arrivals, and with noisy (measured, not pinned)
estimators -- the conditions a production deployment actually faces.
"""

import pytest

from repro.cep.events import Event, EventStream, StreamBuilder
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import CountSlidingWindows
from repro.core.overload import OverloadDetector
from repro.pipeline import Pipeline
from repro.runtime.simulation import (
    SimulationConfig,
    measure_mean_memberships,
    simulate,
)


def toy_query(window=10):
    return Query(
        name="toy",
        pattern=seq("toy", spec("A"), spec("B")),
        window_factory=lambda: CountSlidingWindows(window),
    )


def training_stream(repetitions=100):
    builder = StreamBuilder(rate=100.0)
    for _ in range(repetitions):
        builder.emit_many(["A", "B"] + ["X"] * 8)
    return builder.stream


def trained_pipeline():
    """A toy eSPICE pipeline trained on the toy stream (model + shedders)."""
    pipeline = Pipeline.builder().query(toy_query()).shedder("espice").build()
    return pipeline.train(training_stream())


class TestUnknownInputs:
    def test_unknown_event_types_at_shed_time(self):
        """Types never seen in training are shed first, never crash."""
        shedder = trained_pipeline().create_shedder()
        from repro.shedding.base import DropCommand

        shedder.on_drop_command(DropCommand(x=2.0, partition_count=1, partition_size=10.0))
        shedder.activate()
        alien = Event("NEVER_SEEN", 0, 0.0)
        assert shedder.should_drop(alien, 3, 10.0) is True  # utility 0

    def test_position_far_beyond_reference(self):
        shedder = trained_pipeline().create_shedder()
        from repro.shedding.base import DropCommand

        shedder.on_drop_command(DropCommand(x=2.0, partition_count=2, partition_size=5.0))
        shedder.activate()
        # a window 50x the reference size: decisions clamp, no IndexError
        for position in (0, 100, 499):
            shedder.should_drop(Event("A", 0, 0.0), position, 500.0)

    def test_empty_training_stream_rejected(self):
        pipeline = Pipeline.builder().query(toy_query()).shedder("espice").build()
        with pytest.raises(ValueError):
            pipeline.train(EventStream())


class TestBurstyArrivals:
    def test_short_burst_is_absorbed_without_shedding(self):
        """A burst shorter than the f*qmax headroom must not shed."""
        pipeline = trained_pipeline()
        model = pipeline.model
        shedder = pipeline.create_shedder()
        detector = OverloadDetector(
            latency_bound=1.0,
            f=0.8,
            reference_size=model.reference_size,
            shedder=shedder,
            check_interval=0.01,
            fixed_processing_latency=0.001,  # qmax = 1000, trigger at 800
            fixed_input_rate=2000.0,
        )
        # 600-event burst at 2x capacity: peak queue ~300 < 800
        stream = training_stream(repetitions=60)
        result = simulate(
            toy_query(),
            stream,
            SimulationConfig(
                input_rate=2000.0,
                throughput=1000.0,
                latency_bound=1.0,
                check_interval=0.01,
            ),
            shedder=shedder,
            detector=detector,
            prime_window_size=model.reference_size,
        )
        assert result.operator_stats.memberships_dropped == 0
        assert result.latency.stats().violations == 0

    def test_sustained_overload_triggers_shedding(self):
        pipeline = trained_pipeline()
        model = pipeline.model
        shedder = pipeline.create_shedder()
        detector = OverloadDetector(
            latency_bound=0.1,
            f=0.8,
            reference_size=model.reference_size,
            shedder=shedder,
            check_interval=0.005,
            fixed_processing_latency=0.001,
            fixed_input_rate=1400.0,
        )
        stream = training_stream(repetitions=800)  # 8000 events
        result = simulate(
            toy_query(),
            stream,
            SimulationConfig(
                input_rate=1400.0,
                throughput=1000.0,
                latency_bound=0.1,
                check_interval=0.005,
            ),
            shedder=shedder,
            detector=detector,
            prime_window_size=model.reference_size,
        )
        assert result.operator_stats.memberships_dropped > 0
        assert result.latency.stats().violations == 0


class TestMeasuredEstimators:
    def test_detector_with_measured_rates_still_sheds(self):
        """No pinned l(p)/R: estimators learn from the run itself."""
        pipeline = trained_pipeline()
        model = pipeline.model
        shedder = pipeline.create_shedder()
        detector = OverloadDetector(
            latency_bound=0.1,
            f=0.8,
            reference_size=model.reference_size,
            shedder=shedder,
            check_interval=0.005,
        )
        # feed the estimators like the runtime would
        stream = training_stream(repetitions=600)
        config = SimulationConfig(
            input_rate=1400.0,
            throughput=1000.0,
            latency_bound=0.1,
            check_interval=0.005,
            mean_memberships=measure_mean_memberships(toy_query(), stream),
        )
        # prime l(p) with a few measurements, then let the run refine it
        for _ in range(10):
            detector.record_processing(0.001)
        result = simulate(
            toy_query(),
            stream,
            config,
            shedder=shedder,
            detector=detector,
            prime_window_size=model.reference_size,
        )
        assert result.operator_stats.memberships_dropped > 0
        # the measured-rate detector reacts a beat later than a pinned
        # one; the bound may be grazed briefly but not blown
        assert result.latency.stats().maximum < 0.3

    def test_detector_survives_zero_arrivals_between_checks(self):
        detector = OverloadDetector(
            latency_bound=1.0, f=0.8, reference_size=10, check_interval=0.1
        )
        detector.record_processing(0.001)
        detector.check(0.1, 0)
        detector.check(0.2, 0)  # no arrivals in between: rate 0, no crash
        assert detector.samples[-1].input_rate == 0.0
