"""Figure 10: run-time overhead of the load shedder.

The paper measures the time the LS needs relative to the actual event
processing time, for Q2 with window sizes from ~2000 to ~16000 events,
and finds <1% to ~5%.  Unlike the quality figures this one is a real
wall-clock measurement: we time every ``should_drop_batch`` call (what
the operator pays per batch of decisions) and compare against the
remaining (matching + window bookkeeping) time of the same run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.cep.events import Event
from repro.cep.operator.operator import CEPOperator
from repro.experiments import workloads
from repro.experiments.common import ExperimentConfig, format_rows
from repro.pipeline import Pipeline
from repro.queries import build_q2
from repro.shedding.base import DropCommand, LoadShedder


class TimingShedder(LoadShedder):
    """Delegating shedder that wall-clock-times ``inner.should_drop_batch``
    (what the operator pays); wrapper and ``inner`` start active."""

    def __init__(self, inner: LoadShedder) -> None:
        super().__init__()
        self.inner = inner
        self.elapsed_ns = 0
        self._active = True
        inner.activate()

    def on_drop_command(self, command: DropCommand) -> None:
        self.inner.on_drop_command(command)

    def should_drop_batch(
        self,
        events: Sequence[Event],
        positions: Sequence[int],
        predicted_ws: float,
    ) -> List[bool]:
        start = time.perf_counter_ns()
        mask = self.inner.should_drop_batch(events, positions, predicted_ws)
        self.elapsed_ns += time.perf_counter_ns() - start
        self.decisions = self.inner.decisions
        self.drops = self.inner.drops
        return mask


@dataclass
class Fig10Point:
    """Overhead measurement for one window size."""

    window_seconds: float
    window_events: int
    shed_time_s: float
    processing_time_s: float

    @property
    def overhead_pct(self) -> float:
        """LS time as % of the event processing time."""
        if self.processing_time_s <= 0.0:
            return 0.0
        return 100.0 * self.shed_time_s / self.processing_time_s


@dataclass
class Fig10Result:
    """The overhead series."""

    points: List[Fig10Point] = field(default_factory=list)

    def rows(self) -> str:
        header = ["window (s)", "window (events)", "LS overhead %"]
        body = [
            [f"{p.window_seconds:.0f}", p.window_events, f"{p.overhead_pct:.2f}"]
            for p in sorted(self.points, key=lambda p: p.window_seconds)
        ]
        return "Fig10 load-shedder overhead\n" + format_rows(header, body)


def fig10_overhead(
    window_seconds: Sequence[float] = (120.0, 240.0, 480.0, 960.0),
    pattern_size: int = 10,
    drop_fraction: float = 0.2,
    config: Optional[ExperimentConfig] = None,
    symbols: int = 50,
) -> Fig10Result:
    """Measure LS overhead for Q2 across window sizes.

    ``drop_fraction`` sets the active drop command (x = fraction of the
    partition size), mirroring an R1-style overload.
    """
    cfg = config or ExperimentConfig()
    train, eval_stream = workloads.stock_streams_q2(symbols=symbols)
    result = Fig10Result()
    for ws in window_seconds:
        query = build_q2(pattern_size, window_seconds=ws, symbols=symbols)
        pipeline = (
            Pipeline.builder()
            .query(query)
            .shedder("espice", f=cfg.f)
            .latency_bound(cfg.latency_bound)
            .bin_size(cfg.bin_size)
            .build()
        )
        model = pipeline.train(train).model
        timing = TimingShedder(pipeline.create_shedder())
        partition_size = model.reference_size / 2
        timing.on_drop_command(
            DropCommand(
                x=drop_fraction * partition_size,
                partition_count=2,
                partition_size=partition_size,
            )
        )
        operator = CEPOperator(query, shedder=timing)
        operator.prime_window_size(model.reference_size, weight=10)
        start = time.perf_counter()
        operator.detect_all(eval_stream)
        total = time.perf_counter() - start
        shed = timing.elapsed_ns / 1e9
        result.points.append(
            Fig10Point(
                window_seconds=ws,
                window_events=model.reference_size,
                shed_time_s=shed,
                processing_time_s=max(total - shed, 1e-12),
            )
        )
    return result
