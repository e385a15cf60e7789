"""Unit tests for the fluent pipeline builder (repro.pipeline.builder)."""

import pytest

from repro.cep.events import StreamBuilder
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import CountSlidingWindows
from repro.core.shedder import ESpiceShedder
from repro.pipeline import LoggingStage, Pipeline
from repro.shedding.base import NoShedder
from repro.shedding.random_shedder import RandomShedder


def toy_query(name="toy", window=4):
    return Query(
        name=name,
        pattern=seq(name, spec("A"), spec("B")),
        window_factory=lambda: CountSlidingWindows(window),
    )


def toy_stream(repetitions=20):
    builder = StreamBuilder(rate=10.0)
    for _ in range(repetitions):
        builder.emit_many(["A", "B", "X", "X"])
    return builder.stream


class TestFluentConstruction:
    def test_single_query_chain(self):
        pipeline = Pipeline.builder().query(toy_query()).build()
        assert len(pipeline.chains) == 1
        assert pipeline.queries[0].name == "toy"

    def test_config_knobs_propagate(self):
        pipeline = (
            Pipeline.builder()
            .query(toy_query())
            .shedder("espice", f=0.7, seed=3)
            .latency_bound(2.0)
            .bin_size(4)
            .check_interval(0.05)
            .queue_capacity(100)
            .build()
        )
        config = pipeline.config
        assert config.latency_bound == 2.0
        assert config.f == 0.7
        assert config.seed == 3
        assert config.bin_size == 4
        assert config.check_interval == 0.05
        assert config.queue_capacity == 100

    def test_requires_a_query(self):
        with pytest.raises(ValueError, match="at least one query"):
            Pipeline.builder().build()

    def test_unique_query_names(self):
        with pytest.raises(ValueError, match="unique"):
            Pipeline.builder().query(toy_query()).query(toy_query()).build()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown shedder strategy"):
            Pipeline.builder().query(toy_query()).shedder("bogus")

    def test_model_free_strategy_exists_at_build(self):
        pipeline = (
            Pipeline.builder().query(toy_query()).shedder("random", seed=1).build()
        )
        assert isinstance(pipeline.chains[0].shedder, RandomShedder)

    def test_espice_shedder_deferred_to_deploy(self):
        pipeline = Pipeline.builder().query(toy_query()).shedder("espice").build()
        assert pipeline.chains[0].shedder is None
        pipeline.train(toy_stream())
        pipeline.deploy(expected_throughput=100.0, expected_input_rate=120.0)
        assert isinstance(pipeline.chains[0].shedder, ESpiceShedder)
        assert pipeline.chains[0].detector is not None
        assert pipeline.chains[0].detector.shedder is pipeline.chains[0].shedder

    def test_deploy_without_training_raises(self):
        pipeline = Pipeline.builder().query(toy_query()).shedder("espice").build()
        with pytest.raises(RuntimeError, match="train"):
            pipeline.deploy(expected_throughput=100.0, expected_input_rate=120.0)

    def test_pretrained_model_injection(self):
        model = (
            Pipeline.builder()
            .query(toy_query())
            .shedder("espice")
            .build()
            .train(toy_stream())
            .model
        )
        pipeline = (
            Pipeline.builder()
            .query(toy_query())
            .shedder("espice")
            .model(model)
            .build()
        )
        pipeline.deploy(expected_throughput=100.0, expected_input_rate=120.0)
        assert pipeline.chains[0].shedder.model is model

    def test_instance_injection(self):
        shedder = NoShedder()
        pipeline = Pipeline.builder().query(toy_query()).shedder(shedder).build()
        assert pipeline.chains[0].shedder is shedder

    def test_injection_rejected_for_fanout(self):
        with pytest.raises(ValueError, match="single-query"):
            (
                Pipeline.builder()
                .query(toy_query("a"))
                .query(toy_query("b"))
                .shedder(NoShedder())
                .build()
            )

    def test_stage_instance_rejected_for_fanout(self):
        with pytest.raises(ValueError, match="factories"):
            (
                Pipeline.builder()
                .query(toy_query("a"))
                .query(toy_query("b"))
                .stage(LoggingStage())
                .build()
            )

    def test_stage_factory_per_chain(self):
        pipeline = (
            Pipeline.builder()
            .query(toy_query("a"))
            .query(toy_query("b"))
            .stage(lambda: LoggingStage())
            .build()
        )
        stages = [chain.ingress[1] for chain in pipeline.chains]
        assert all(isinstance(stage, LoggingStage) for stage in stages)
        assert stages[0] is not stages[1]


class TestDeprecatedFacadeParity:
    """The builder wires what hand-assembled components would be."""

    def test_same_model_and_detector_wiring(self):
        from repro.cep.operator.operator import CEPOperator
        from repro.core.model import ModelBuilder
        from repro.core.overload import OverloadDetector
        from repro.shedding.registry import create_shedder

        stream = toy_stream()
        model_builder = ModelBuilder()
        trainer = CEPOperator(toy_query())
        trainer.add_window_listener(model_builder.observe)
        trainer.detect_all(stream)
        old_model = model_builder.build()
        old_detector = OverloadDetector(
            latency_bound=1.0,
            f=0.8,
            reference_size=old_model.reference_size,
            shedder=create_shedder("espice", model=old_model),
            fixed_processing_latency=0.001,
            fixed_input_rate=1200.0,
        )

        pipeline = (
            Pipeline.builder()
            .query(toy_query())
            .shedder("espice", f=0.8)
            .latency_bound(1.0)
            .build()
        )
        pipeline.train(stream)
        pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1200.0)
        chain = pipeline.chains[0]

        assert chain.model.reference_size == old_model.reference_size
        assert chain.model.table.as_matrix() == old_model.table.as_matrix()
        assert chain.detector.f == old_detector.f
        assert chain.detector.latency_bound == old_detector.latency_bound
        assert chain.detector.reference_size == old_detector.reference_size
