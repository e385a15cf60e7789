"""Shared machinery for the paper-figure experiments.

Every quality experiment follows the paper's protocol (§4.1):

1. stream the dataset at a sustainable rate until the model is built
   (our ``train`` stream),
2. raise the input rate to ``R1 = 1.2·th`` or ``R2 = 1.4·th`` and
   replay the evaluation stream through the simulated pipeline,
3. compare detected complex events against the ground truth of an
   unconstrained run and report %false negatives / %false positives.

:func:`run_quality_point` performs one such (strategy, rate) run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Mapping, Optional, Tuple

from repro.cep.events import EventStream
from repro.cep.patterns.query import Query
from repro.cep.windows import average_window_size, collect_windows
from repro.core.model import UtilityModel
from repro.pipeline import Pipeline
from repro.runtime.latency import LatencyStats
from repro.runtime.quality import QualityReport, compare_results, ground_truth
from repro.runtime.simulation import measure_mean_memberships

# The paper's two overload levels: input rate exceeds throughput by 20/40 %.
R1 = 1.2
R2 = 1.4

STRATEGIES = ("espice", "bl", "bl-integral", "random", "none")


@dataclass
class ExperimentConfig:
    """Shared knobs of one experiment family."""

    throughput: float = 1000.0  # th, events/second (virtual)
    latency_bound: float = 1.0  # LB, seconds (paper default)
    f: float = 0.8  # paper default
    bin_size: int = 1
    check_interval: float = 0.05
    seed: int = 0


@dataclass(frozen=True)
class QualityOutcome:
    """One (strategy, rate) quality point -- the one point of every figure.

    ``x`` is the point's place in a figure's sweep (see
    :mod:`repro.experiments.grid`); a bare :func:`run_quality_point`
    leaves it ``None``.
    """

    strategy: str
    rate_factor: float
    quality: QualityReport
    latency: LatencyStats
    drop_ratio: float
    truth_count: int
    detected_count: int
    dropped_memberships: int
    timeline: Tuple[Tuple[float, float], ...]  # (1 s bucket end, mean latency)
    x: Any = None

    @property
    def fn_pct(self) -> float:
        """% false negatives."""
        return self.quality.false_negative_pct

    @property
    def fp_pct(self) -> float:
        """% false positives."""
        return self.quality.false_positive_pct

    def __str__(self) -> str:
        return (
            f"{self.strategy}@R={self.rate_factor:.1f}: "
            f"FN={self.fn_pct:.1f}% FP={self.fp_pct:.1f}% "
            f"drop={100 * self.drop_ratio:.1f}% "
            f"(truth={self.truth_count}, detected={self.detected_count})"
        )


def reference_window_size(query: Query, stream: EventStream) -> int:
    """Average seen window size ``N`` for ``stream`` under ``query``."""
    windows = collect_windows(stream, query.new_assigner())
    return max(1, round(average_window_size(windows)))


def strategy_pipeline(
    strategy: str,
    query: Query,
    train_stream: EventStream,
    config: ExperimentConfig,
    rate_factor: float,
    model: Optional[UtilityModel] = None,
    deploy: Optional[Mapping[str, Any]] = None,
    reference_size: Optional[int] = None,
) -> Pipeline:
    """A trained, deployed single-query pipeline for one experiment run.

    eSPICE fits its utility model on the training stream, unless a
    trained ``model`` is given (it is deployed as is, never modified);
    the comparator strategies skip model fitting, pin the reference
    window size to the training stream's average (the historical
    protocol; ``reference_size`` when it is precomputed) and only warm
    their online type statistics.  ``deploy`` holds extra
    :meth:`Pipeline.deploy` arguments (``partition_override``,
    ``prime``).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    builder = (
        Pipeline.builder()
        .query(query)
        .shedder(strategy, seed=config.seed)
        .latency_bound(config.latency_bound)
        .f(config.f)
        .bin_size(config.bin_size)
        .check_interval(config.check_interval)
    )
    if strategy != "espice":
        if reference_size is None:
            reference_size = reference_window_size(query, train_stream)
        builder.reference_size(reference_size)
    elif model is not None:
        builder.model(model)
    pipeline = builder.build()
    if strategy != "espice":
        pipeline.warm(train_stream)
    elif model is None:
        pipeline.train(train_stream)
    pipeline.deploy(
        expected_throughput=config.throughput,
        expected_input_rate=rate_factor * config.throughput,
        **(deploy or {}),
    )
    return pipeline


def run_quality_point(
    query: Query,
    train_stream: EventStream,
    eval_stream: EventStream,
    strategy: str,
    rate_factor: float,
    config: Optional[ExperimentConfig] = None,
    truth: Optional[list] = None,
    model: Optional[UtilityModel] = None,
    mean_memberships: Optional[float] = None,
    deploy: Optional[Mapping[str, Any]] = None,
    arrival_times: Optional[List[float]] = None,
    reference_size: Optional[int] = None,
) -> QualityOutcome:
    """One full experiment point: train, overload, compare to truth.

    ``truth``, ``model``, ``mean_memberships`` and the comparators'
    ``reference_size`` may be precomputed (none depends on the rate;
    only the model on the strategy) and shared across points to save
    time.  ``deploy`` is forwarded to :func:`strategy_pipeline`;
    ``arrival_times`` replaces the uniform arrivals at
    ``rate_factor * throughput`` (a burst), the detector still
    expecting that rate.
    """
    cfg = config if config is not None else ExperimentConfig()
    if truth is None:
        truth = ground_truth(query, eval_stream)
    if mean_memberships is None:
        mean_memberships = measure_mean_memberships(query, eval_stream)
    pipeline = strategy_pipeline(
        strategy, query, train_stream, cfg, rate_factor, model, deploy, reference_size
    )
    result = pipeline.simulate(
        eval_stream,
        input_rate=rate_factor * cfg.throughput,
        throughput=cfg.throughput,
        mean_memberships=mean_memberships,
        arrival_times=arrival_times,
    )
    report = compare_results(truth, result.complex_events)
    return QualityOutcome(
        strategy=strategy,
        rate_factor=rate_factor,
        quality=report,
        latency=result.latency.stats(),
        drop_ratio=result.operator_stats.drop_ratio(),
        truth_count=report.truth_count,
        detected_count=report.detected_count,
        dropped_memberships=result.operator_stats.memberships_dropped,
        timeline=tuple(result.latency.timeline(1.0)),
    )


def format_rows(
    header: Iterable[str], rows: Iterable[Iterable[object]]
) -> str:
    """Simple fixed-width table rendering for runner output."""
    header = [str(h) for h in header]
    body = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in header]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for row in body:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
