"""The batched virtual-time driver replays the per-event schedule exactly.

``simulate_pipeline`` ingests once per tick interval and drains priced
window segments; ``reference_simulation`` is the loop it replaced, one
scheduler round per arrival run, per item and per check.  Over rates
below, at and above capacity, explicit arrivals with ties, bursts and
gaps, with and without a detector, bounded queues, one or two chains, a
vetoing ingress stage and observability, everything a run exposes must
be identical: every ``SimulationResult`` field, detection times and
order, the latency series, the call order of a sink both chains share,
the clock an egress stage sees per item, the tracer's shed explanations
and window stamps, and ``pipeline.metrics()``.

Rates, costs, tick periods and arrival steps are dyadic, so virtual
times are exact binary fractions and ties between a tick, an arrival
and an item's start -- the cases the scheduling order decides -- are
common rather than accidental.
"""

from __future__ import annotations

import dataclasses
from itertools import accumulate
from typing import List, Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_simulation
from repro.cep.events import StreamBuilder
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import CountSlidingWindows
from repro.core.overload import OverloadDetector
from repro.pipeline import (
    Pipeline,
    PipelineConfig,
    QueryChain,
    SamplingStage,
    Stage,
)
from repro.runtime.simulation import SimulationConfig, simulate_pipeline
from repro.shedding.base import DropCommand, LoadShedder

TH = 1024.0  # operator capacity: 1/th is exact
LATENCY_BOUND = 1 / 32  # qmax = 32 items; the detector triggers above 16
IDLE = 0.25  # idle cost fraction: exact costs
#: the window-size predictor starts here, away from every window size,
#: so each completed window moves the predictor the next decisions read
PRIME = 11.0
#: explicit arrival steps: ties, bursts, spacing near capacity, gaps
STEPS = (0.0, 1 / 8192, 1 / 2048, 1 / 1024, 1 / 512, 1 / 64, 1 / 4)
STEP_WEIGHTS = (6, 4, 6, 4, 4, 2, 1)
WINDOWS = (("pairs", 8, 4), ("tumbling", 6, None))
EXCLUDED_FAMILIES = ("repro_stage_seconds", "repro_batch_size")  # wall time, batch shape


class PredictorShedder(LoadShedder):
    """RNG-free shedder whose verdicts move with the predicted window
    size: a decision taken against a stale prediction shows."""

    def __init__(self) -> None:
        super().__init__()
        self._probability = 0.0

    def on_drop_command(self, command: DropCommand) -> None:
        size = command.partition_size
        self._probability = min(1.0, command.x / size) if size > 0.0 else 0.0

    def _decide(self, event, position: int, predicted_ws: float) -> bool:
        return (position * 0.618034 + predicted_ws * 7.31) % 1.0 < self._probability


class ClockProbe(Stage):
    """Egress stage logging the clock each item is applied at."""

    name = "clock_probe"

    def __init__(self, query: str, log: list) -> None:
        self.query = query
        self.log = log

    def on_event(self, ctx) -> bool:
        self.log.append((self.query, ctx.event.seq, ctx.now))
        return True


@dataclasses.dataclass(frozen=True)
class Scenario:
    types: str
    arrivals: Optional[List[float]]
    factor: float  # R / th
    check_interval: float
    detector: bool
    capacity: Optional[int]
    chains: int
    veto: bool
    obs: bool


@st.composite
def scenarios(draw) -> Scenario:
    # the stream and the arrival steps come from one seeded generator:
    # hundreds of per-event draws would crowd out everything else
    rng = draw(st.randoms(use_true_random=False))
    length = draw(st.integers(min_value=0, max_value=240))
    types = "".join(rng.choice("AABX") for _ in range(length))
    arrivals = None
    if draw(st.booleans()):
        arrivals = list(accumulate(rng.choices(STEPS, STEP_WEIGHTS, k=length)))
    return Scenario(
        types=types,
        arrivals=arrivals,
        factor=draw(st.sampled_from((0.5, 1.0, 1.4, 2.0))),
        check_interval=draw(st.sampled_from((1 / 256, 1 / 64, 1 / 16, 0.1))),
        detector=draw(st.sampled_from((True, True, False))),
        capacity=draw(st.sampled_from((None, None, 4, 24))),
        chains=draw(st.sampled_from((1, 2))),
        veto=draw(st.booleans()),
        obs=draw(st.booleans()),
    )


def build(scenario: Scenario, sink_log: list, probe_log: list):
    config = PipelineConfig(
        latency_bound=LATENCY_BOUND,
        check_interval=scenario.check_interval,
        reference_size=8,
        queue_capacity=scenario.capacity,
    )
    chains = []
    for name, size, slide in WINDOWS[: scenario.chains]:
        query = Query(
            name=name,
            pattern=seq(name, spec("A"), spec("B")),
            window_factory=lambda size=size, slide=slide: CountSlidingWindows(
                size, slide
            ),
        )
        shedder = PredictorShedder()
        detector = None
        if scenario.detector:
            detector = OverloadDetector(
                latency_bound=LATENCY_BOUND,
                f=0.5,
                reference_size=8,
                shedder=shedder,
                fixed_processing_latency=1.0 / TH,
                fixed_input_rate=scenario.factor * TH,
            )
        chains.append(
            QueryChain(
                query,
                config,
                shedder=shedder,
                detector=detector,
                ingress_stages=[SamplingStage(0.75, seed=7)] if scenario.veto else [],
                egress_stages=[ClockProbe(name, probe_log)],
                sinks=[lambda c, name=name: sink_log.append((name, c.key))],
            )
        )
    pipeline = Pipeline(chains, config)
    obs = None
    if scenario.obs:
        obs = pipeline.enable_observability(trace_capacity=4096, max_explanations=64)
    return pipeline, obs


def observe(driver, scenario: Scenario) -> dict:
    """Everything one run exposes, in comparable form."""
    builder = StreamBuilder(rate=100.0)
    builder.emit_many(scenario.types)
    sink_log: list = []
    probe_log: list = []
    pipeline, obs = build(scenario, sink_log, probe_log)
    config = SimulationConfig(
        input_rate=scenario.factor * TH,
        throughput=TH,
        latency_bound=LATENCY_BOUND,
        check_interval=scenario.check_interval,
        idle_cost_fraction=IDLE,
        mean_memberships=2.0,
    )
    results = driver(
        pipeline,
        builder.stream,
        config,
        prime_window_size=PRIME,
        arrival_times=scenario.arrivals,
    )
    seen: dict = {}
    for name, result in results.items():
        shedder = result.shedder
        seen[name] = {
            "detections": [(c.key, c.detection_time) for c in result.complex_events],
            "latency": result.latency.series,
            "bound": result.latency.bound,
            "operator": dataclasses.asdict(result.operator_stats),
            "config": result.config,
            "detector": result.detector.samples if result.detector else None,
            "shedder": (shedder.decisions, shedder.drops, shedder.active),
            "events_arrived": result.events_arrived,
            "virtual_duration": result.virtual_duration,
            "max_queue_size": result.max_queue_size,
        }
    seen["sinks"] = sink_log
    seen["egress_clock"] = probe_log
    seen["metrics"] = pipeline.metrics()
    if obs is not None:
        seen["traces"] = obs.tracer.recent(4096)
        snapshot = obs.registry.snapshot()
        for family in EXCLUDED_FAMILIES:
            del snapshot[family]
        seen["registry"] = snapshot
    return seen


def pinned(types="AXB" * 60, **overrides) -> Scenario:
    fields = dict(
        types=types,
        arrivals=None,
        factor=2.0,
        check_interval=1 / 64,
        detector=True,
        capacity=None,
        chains=1,
        veto=False,
        obs=True,
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestBatchedDriverEqualsPerEventLoop:
    @settings(max_examples=80, deadline=None)
    @given(scenarios())
    # pinned cases: sustained shedding on one and on two chains, a
    # bounded queue, bursts with vetoes, no detector, an empty stream
    @example(pinned())
    @example(pinned(chains=2, factor=1.4))
    @example(pinned(capacity=24, veto=True))
    @example(pinned(arrivals=[i // 8 / 64 for i in range(180)], chains=2))
    @example(pinned(detector=False, factor=1.0, obs=False))
    @example(pinned(types=""))
    def test_every_observable_matches(self, scenario):
        batched = observe(simulate_pipeline, scenario)
        reference = observe(reference_simulation.reference_simulate_pipeline, scenario)
        assert batched == reference

    def test_the_pinned_case_sheds_across_window_closes(self):
        """The pinned overload case is not vacuous: shedding is live
        across many window closes, so stale predictions, misplaced cuts
        and mispriced drops all have something to change."""
        seen = observe(simulate_pipeline, pinned())
        decisions, drops, _active = seen["pairs"]["shedder"]
        assert drops > 20 and decisions > drops
        assert seen["pairs"]["operator"]["windows_completed"] > 20
        assert any(trace["shed_explanations"] for trace in seen["traces"])
