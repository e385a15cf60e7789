"""The unified public API: composable middleware-stage pipelines.

This package is the single entry point of the reproduction.  Queries,
shedding strategies (by registry name), bounds and custom middleware
are declared fluently, and the resulting :class:`Pipeline` serves
training, deployment, push-based live ingestion, batch replay,
deterministic overload simulation and hot model retraining::

    from repro.pipeline import Pipeline

    pipeline = (
        Pipeline.builder()
        .query(query)
        .shedder("espice", f=0.8)
        .latency_bound(1.0)
        .build()
    )
    pipeline.train(training_stream)
    pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1400.0)
    result = pipeline.simulate(live_stream, input_rate=1400.0, throughput=1000.0)

Event path (per query chain)::

    AdmissionStage -> [custom stages] -> WindowAssignStage
        ||  (input queue)
    SheddingStage -> MatchStage -> EmitStage -> [custom stages]

Cross-cutting helpers that the old wiring scattered over ``repro.core``
and ``repro.runtime`` are re-exported here so typical applications
import one module: quality comparison (:func:`ground_truth`,
:func:`compare_results`), the simulation types, and the ready-made
middleware stages.
"""

from repro.pipeline.batching import EventBatch, MicroBatcher, StageBatch
from repro.pipeline.builder import PipelineBuilder
from repro.pipeline.pipeline import (
    Pipeline,
    PipelineConfig,
    PipelineResult,
    QueryChain,
)
from repro.pipeline.stages import (
    AdmissionStage,
    EmitStage,
    LoggingStage,
    MatchStage,
    RateLimitStage,
    SamplingStage,
    SheddingStage,
    Stage,
    StageContext,
    WindowAssignStage,
)
from repro.runtime.quality import QualityReport, compare_results, ground_truth
from repro.runtime.simulation import (
    SimulationConfig,
    SimulationResult,
    measure_mean_memberships,
    simulate_pipeline,
    simulate_sharded,
)
from repro.shedding.registry import (
    available_shedders,
    create_shedder,
    describe_shedders,
    register_shedder,
)

__all__ = [
    "AdmissionStage",
    "EmitStage",
    "EventBatch",
    "LoggingStage",
    "MatchStage",
    "MicroBatcher",
    "StageBatch",
    "Pipeline",
    "PipelineBuilder",
    "PipelineConfig",
    "PipelineResult",
    "QualityReport",
    "QueryChain",
    "RateLimitStage",
    "SamplingStage",
    "SheddingStage",
    "SimulationConfig",
    "SimulationResult",
    "Stage",
    "StageContext",
    "WindowAssignStage",
    "available_shedders",
    "compare_results",
    "create_shedder",
    "describe_shedders",
    "ground_truth",
    "measure_mean_memberships",
    "register_shedder",
    "simulate_pipeline",
    "simulate_sharded",
]
