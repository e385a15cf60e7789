"""The unified pipeline: composable middleware chains around CEP operators.

A :class:`Pipeline` is the single public entry point of the
reproduction: it owns one :class:`QueryChain` per deployed query (all
chains share the input stream -- multi-query fan-out) and drives each
chain's middleware stages (see :mod:`repro.pipeline.stages`).

Lifecycle::

    pipeline = (
        Pipeline.builder()
        .query(q1).query(q2)
        .shedder("espice", f=0.8)
        .latency_bound(1.0)
        .build()
    )
    pipeline.train(training_stream)       # fit utility models / warm baselines
    pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1400.0)

    pipeline.feed(event)                  # push-based live ingestion
    result = pipeline.run(live_stream)    # batch replay (event time)
    outcome = pipeline.simulate(live_stream, input_rate=1400.0,
                                throughput=1000.0)   # virtual-time overload

    pipeline.retrain(fresh_stream)        # hot model swap, shedding uninterrupted

Live ``feed``/``run`` process events synchronously in event time (the
queue only buffers within one feed); the virtual-time overload
replay -- the paper's experimental setup -- is provided by
:func:`repro.runtime.simulation.simulate_pipeline`, which drives the
same chains in batches under a configured arrival rate and operator
throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.cep.clock import TickSchedule
from repro.cep.events import ComplexEvent, Event, EventStream
from repro.cep.operator.operator import CEPOperator, segments
from repro.cep.operator.queue import InputQueue
from repro.cep.patterns.query import Query
from repro.core.adaptive import AdaptiveController
from repro.core.fvalue import effective_f
from repro.core.model import ModelBuilder, UtilityModel
from repro.core.overload import OverloadDetector
from repro.pipeline.batching import EventBatch, MicroBatcher, StageBatch
from repro.pipeline.stages import (
    AdmissionStage,
    EmitStage,
    EventSink,
    MatchStage,
    SheddingStage,
    Stage,
    WindowAssignStage,
)
from repro.shedding.base import DropCommand, LoadShedder
from repro.shedding.registry import create_shedder, shedder_requirements

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (builder imports us)
    from repro.obs.instrument import Observability
    from repro.runtime.simulation import SimulationResult


def _materialise(stream: Iterable[Event]) -> Iterable[Event]:
    """A re-iterable view of ``stream``.

    Training passes iterate the stream more than once (model fitting,
    observer warm-up, one pass per fan-out chain); a plain generator
    would silently exhaust after the first pass.
    """
    return stream if hasattr(stream, "__len__") else list(stream)


@dataclass
class PipelineConfig:
    """Shared knobs of a pipeline (one copy per chain).

    The eSPICE knobs (latency bound, ``f``, bin size, check interval)
    plus the queue capacity used for admission control and the
    micro-batch shape of the event path.
    """

    latency_bound: float = 1.0
    f: Optional[float] = 0.8
    bin_size: int = 1
    check_interval: float = 0.1
    reference_size: Optional[int] = None
    queue_capacity: Optional[int] = None
    seed: int = 0
    #: Micro-batch size of the event path (1 = one event per batch).
    batch_size: int = 1
    #: Event-time seconds the oldest buffered event may wait before the
    #: micro-batch ships early (0 = flush purely by size).  A cluster's
    #: own ``linger`` is a different, wall-clock bound on its IPC links.
    linger: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_bound <= 0.0:
            raise ValueError("latency bound must be positive")
        if self.f is not None and not 0.0 <= self.f < 1.0:
            raise ValueError("f must lie in [0, 1)")
        if self.bin_size <= 0:
            raise ValueError("bin size must be positive")
        if self.check_interval <= 0.0:
            raise ValueError("check interval must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch size must be positive")
        if self.linger < 0.0:
            raise ValueError("linger must be non-negative")


@dataclass
class PipelineResult:
    """Outcome of one :meth:`Pipeline.run` batch replay."""

    matches: Dict[str, List[ComplexEvent]]
    metrics: Dict[str, Dict[str, Dict[str, object]]]
    events_fed: int

    @property
    def complex_events(self) -> List[ComplexEvent]:
        """The first (or only) query's detections."""
        return next(iter(self.matches.values()), [])

    def for_query(self, name: str) -> List[ComplexEvent]:
        """Detections of query ``name``."""
        return self.matches[name]

    def totals(self) -> Dict[str, int]:
        """Detections per query."""
        return {name: len(events) for name, events in self.matches.items()}


class QueryChain:
    """One query's middleware chain: stages, queue, model and shedding.

    Built by :class:`repro.pipeline.builder.PipelineBuilder`; driven
    either by :class:`Pipeline` (live mode) or by the virtual-time
    simulation driver, both through the same entry points:
    :meth:`ingest_batch`, the egress halves :meth:`decide` and
    :meth:`apply` (:meth:`process_batch` runs both per segment),
    :meth:`on_tick`, :meth:`flush`.
    """

    def __init__(
        self,
        query: Query,
        config: PipelineConfig,
        strategy: Optional[str] = None,
        strategy_options: Optional[dict] = None,
        shedder: Optional[LoadShedder] = None,
        detector: Optional[OverloadDetector] = None,
        ingress_stages: Optional[List[Stage]] = None,
        egress_stages: Optional[List[Stage]] = None,
        adaptive_options: Optional[dict] = None,
        sinks: Optional[List[EventSink]] = None,
        model: Optional[UtilityModel] = None,
    ) -> None:
        self.query = query
        self.config = config
        self.strategy = strategy
        self.strategy_options = dict(strategy_options or {})
        self.adaptive_options = adaptive_options
        self.controller: Optional[AdaptiveController] = None
        self.model: Optional[UtilityModel] = model
        self._model_builder = ModelBuilder(
            bin_size=config.bin_size, reference_size=config.reference_size
        )
        self._primed = False
        self.deployed = False

        # --- components ------------------------------------------------
        self.queue = InputQueue(capacity=config.queue_capacity)
        self.admission = AdmissionStage(self.queue, capacity=config.queue_capacity)
        self.window_assign = WindowAssignStage(query.new_assigner(), self.queue)
        self.operator = CEPOperator(query, shedder=None)
        self.match_stage = MatchStage(self.operator)
        self.window_assign.operator = self.operator
        self.shedding = SheddingStage()
        self.shedding.operator = self.operator
        self.shedding.queue = self.queue
        self.emit = EmitStage(sinks)

        self.ingress: List[Stage] = [
            self.admission,
            *(ingress_stages or []),
            self.window_assign,
        ]
        self.egress: List[Stage] = [
            self.shedding,
            self.match_stage,
            self.emit,
            *(egress_stages or []),
        ]
        self.stages: List[Stage] = [*self.ingress, *self.egress]
        #: the stages that override ``on_tick`` (fixed, like the chain)
        self.tick_stages = tuple(
            s for s in self.stages if type(s).on_tick is not Stage.on_tick
        )
        # hot-path dispatch: prebound ``process_batch`` methods (the
        # stage chain is fixed after construction), so nothing
        # re-resolves stage attributes per batch.  The egress is two
        # steps -- *decide* (the shedding stage) and *apply* (match,
        # emit, custom stages) -- because the virtual-time driver prices
        # a segment between them.  Enabling observability swaps these
        # for instrumented composites -- disabled, they are identical to
        # an uninstrumented chain.
        self._ingress_batch_dispatch = tuple(s.process_batch for s in self.ingress)
        self._decide_dispatch = self.shedding.process_batch
        self._apply_dispatch = tuple(s.process_batch for s in self.egress[1:])

        # --- shedding machinery ---------------------------------------
        self.shedder: Optional[LoadShedder] = None
        self.detector: Optional[OverloadDetector] = None
        if shedder is not None:
            self._install_shedder(shedder)
        elif strategy is not None:
            requires_model, _requires_query = shedder_requirements(strategy)
            if not requires_model:
                # model-free strategies exist from the start so train()
                # can warm their online statistics (e.g. BL frequencies)
                self._install_shedder(self._create_shedder())
        if detector is not None:
            self._install_detector(detector)

    # ------------------------------------------------------------------
    # wiring helpers
    # ------------------------------------------------------------------
    def _create_shedder(self) -> LoadShedder:
        assert self.strategy is not None
        return create_shedder(
            self.strategy,
            query=self.query,
            model=self.model,
            seed=self.config.seed,
            **self.strategy_options,
        )

    def create_shedder(self) -> LoadShedder:
        """A fresh, unwired shedder of this chain's strategy.

        For callers that drive components manually (micro-benchmarks);
        :meth:`deploy` wires its own.
        """
        if self.strategy is None:
            raise RuntimeError("no shedding strategy configured")
        return self._create_shedder()

    def _install_shedder(self, shedder: LoadShedder) -> None:
        self.shedder = shedder
        self.shedding.shedder = shedder

    def _install_detector(self, detector: OverloadDetector) -> None:
        self.detector = detector
        self.shedding.detector = detector
        self.admission.detector = detector

    def _prime(self, size: float, weight: int = 10) -> None:
        if self._primed or size <= 0:
            return
        self.operator.prime_window_size(size, weight=weight)
        self._primed = True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def train(self, stream: Iterable[Event]) -> UtilityModel:
        """Fit the utility model on ``stream``; statistics accumulate."""
        stream = _materialise(stream)
        trainer = CEPOperator(self.query, shedder=None)
        trainer.add_window_listener(self._model_builder.observe)
        trainer.detect_all(stream)
        self.model = self._model_builder.build()
        self._warm_observers(stream)
        return self.model

    def warm(self, stream: Iterable[Event]) -> None:
        """Feed ``stream`` to shedders that learn statistics online.

        Type-level baselines (BL, integral) learn per-type frequencies
        from observed events; warming them on the training stream makes
        their plan informed from the start without fitting a utility
        model.  No-op for strategies without online statistics.
        """
        self._warm_observers(stream)

    def _warm_observers(self, stream: Iterable[Event]) -> None:
        if self.shedder is not None and hasattr(self.shedder, "observe"):
            for event in stream:
                self.shedder.observe(event)

    def deploy(
        self,
        expected_throughput: Optional[float] = None,
        expected_input_rate: Optional[float] = None,
        f: Optional[float] = None,
        partition_override: Optional[int] = None,
        prime: bool = True,
    ) -> "QueryChain":
        """Build and wire the shedder + overload detector.

        ``expected_throughput`` / ``expected_input_rate`` pin the
        detector's estimators (deterministic experiments); leave them
        unset to let the detector estimate ``l(p)`` and ``R`` online.
        ``f`` overrides the configured trigger fraction for this
        deployment (parameter sweeps re-deploy the same trained
        pipeline).  ``prime=False`` leaves the window-size predictor
        cold (it then converges from observed windows only).
        """
        reference = (
            self.model.reference_size
            if self.model is not None
            else self.config.reference_size
        )
        if self.strategy is None:
            return self  # nothing to deploy: unshedded chain
        if self.strategy == "none":
            if prime:
                self._prime(reference or 0)
            self.deployed = True
            return self
        requires_model, _ = shedder_requirements(self.strategy)
        configured_f = f if f is not None else self.config.f
        if self.model is None and (requires_model or configured_f is None):
            raise RuntimeError("train() must be called before deploy()")
        if reference is None:
            raise RuntimeError(
                "deploy() needs a reference window size: call train() "
                "or pin it with reference_size()"
            )
        if requires_model or self.shedder is None:
            self._install_shedder(self._create_shedder())
        processing_latency = (
            1.0 / expected_throughput if expected_throughput else None
        )
        chosen_f = effective_f(
            self.model,
            self.config.latency_bound,
            configured_f,
            processing_latency,
            expected_input_rate,
        )
        self._install_detector(
            OverloadDetector(
                latency_bound=self.config.latency_bound,
                f=chosen_f,
                reference_size=reference,
                shedder=self.shedder,
                fixed_processing_latency=processing_latency,
                fixed_input_rate=expected_input_rate,
                partition_override=partition_override,
            )
        )
        if prime:
            self._prime(reference)
        if self.adaptive_options is not None:
            if self.controller is not None:
                # re-deploy: detach the previous controller so stale
                # instances neither double-count windows nor hot-swap
                # models into a shedder no longer wired to the chain
                self.operator.remove_window_listener(self.controller.observe)
            self.controller = AdaptiveController(
                self.model, self._adaptive_shedder(), **self.adaptive_options
            )
            self.operator.add_window_listener(self.controller.observe)
        self.deployed = True
        return self

    def _adaptive_shedder(self) -> Optional[LoadShedder]:
        # the controller hot-swaps utility models; only the eSPICE
        # shedder carries one
        return self.shedder if hasattr(self.shedder, "rebind_model") else None

    def retrain(self, stream: Iterable[Event]) -> UtilityModel:
        """Retrain from scratch on ``stream`` and hot-swap the model.

        The live shedder keeps serving O(1) decisions throughout
        (paper §3.6): the new model is swapped in atomically via
        :meth:`repro.core.shedder.ESpiceShedder.rebind_model`, the
        detector's reference size is updated, and any adaptive
        controller is rebound.
        """
        self._model_builder = ModelBuilder(
            bin_size=self.config.bin_size, reference_size=self.config.reference_size
        )
        new_model = self.train(stream)
        if self.shedder is not None and hasattr(self.shedder, "rebind_model"):
            self.shedder.rebind_model(new_model)
        if self.detector is not None:
            self.detector.reference_size = new_model.reference_size
        if self.controller is not None:
            self.controller.model = new_model
            self.controller.detector.rebind(new_model)
        return new_model

    # ------------------------------------------------------------------
    # event path (shared by live mode and the simulation driver)
    # ------------------------------------------------------------------
    def ingest_batch(self, batch: EventBatch) -> StageBatch:
        """Run the ingress half over a micro-batch of arrivals.

        Each ingress stage processes the batch in one
        :meth:`~repro.pipeline.stages.Stage.process_batch` call.  A
        bounded queue admits by its depth *between* batches (admission
        runs before the batch is enqueued), so drivers hand a chain
        with a ``queue_capacity`` batches of one: enqueue and drain
        then interleave per event.
        """
        stage_batch = StageBatch.from_events(batch)
        for process_batch in self._ingress_batch_dispatch:
            process_batch(stage_batch)
        return stage_batch

    @property
    def shedding_live(self) -> bool:
        """Whether per-event drop decisions are being taken."""
        return self.shedder is not None and self.shedder.active

    def decide(self, stage_batch: StageBatch) -> None:
        """Egress, first half: the shedding stage's drop decisions.

        Fills the ``drops`` column; nothing downstream of the decision
        has run, so a driver may read the decisions (the virtual-time
        driver prices the segment from them) before :meth:`apply`.
        """
        self._decide_dispatch(stage_batch)

    def apply(self, stage_batch: StageBatch) -> None:
        """Egress, second half: match, emit and custom egress stages."""
        for process_batch in self._apply_dispatch:
            process_batch(stage_batch)

    def process_batch(self, stage_batch: StageBatch) -> List[ComplexEvent]:
        """Run the egress half over an ingested micro-batch.

        Returns the batch's detections, in order.  The batch is split
        into *segments* after its window-closing items: completing a
        window updates the window-size predictor and may fire listeners
        (drift detection, adaptive retrain with a hot model swap), so
        the decisions of later items must see that new state exactly as
        they would one event at a time.  Within a segment no such state
        change can occur, and the shedding stage resolves every (event,
        window) pair with one vectorized kernel pass.  Each segment is
        decided, then applied.
        """
        self.queue.consume_all()  # the batch's items leave the queue as one drain
        found: List[ComplexEvent] = []
        for segment in self._segments(stage_batch.admitted()):
            self.decide(segment)
            self.apply(segment)
            found += segment.complex_events
        return found

    def run_batch(self, batch: EventBatch) -> List[ComplexEvent]:
        """Ingest and immediately drain one micro-batch (synchronous mode).

        Returns the batch's detections.  The queue exists only within
        this call, so the backpressure metric is reconciled to its
        batch-of-one equivalent: interleaved execution never sees more
        than one item queued, and the staging depth of the batch must
        not masquerade as backlog.
        """
        assign_stage = self.window_assign
        depth_before = assign_stage.max_queue_depth
        stage_batch = self.ingest_batch(batch)
        pushed = self.queue.size
        found = self.process_batch(stage_batch)
        assign_stage.max_queue_depth = max(depth_before, 1 if pushed else 0)
        return found

    @staticmethod
    def _segments(stage_batch: StageBatch) -> List[StageBatch]:
        """Split an egress batch after every item that closes windows."""
        closes = stage_batch.closes
        count = len(stage_batch.items)
        if not closes or closes == [count - 1]:
            return [stage_batch]
        events, nows, items = stage_batch.events, stage_batch.nows, stage_batch.items
        return [
            StageBatch(events[start:end], nows[start:end], items[start:end], part_closes)
            for start, end, part_closes in segments(closes, count)
        ]

    @property
    def observes_ticks(self) -> bool:
        """Whether any stage would act on a periodic tick.

        The core stages' ``on_tick`` is a no-op unless the shedding
        stage carries an overload detector; a custom stage overriding
        ``on_tick`` (rate limiters, ...) is assumed to act.  Drivers
        schedule ticks for a chain only while this holds.
        """
        for stage in self.tick_stages:
            if not isinstance(stage, SheddingStage) or stage.detector is not None:
                return True
        return False

    def on_tick(self, now: float) -> None:
        """Periodic duty for every stage (detector checks, refills)."""
        for stage in self.stages:
            stage.on_tick(now)

    def flush(self, now: float = 0.0) -> List[ComplexEvent]:
        """Complete still-open windows at end of stream and emit them."""
        windows = self.window_assign.flush()
        complex_events = self.match_stage.flush(windows, now)
        if complex_events:
            self.emit.dispatch(complex_events)
        return complex_events

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def disable_obs(self) -> None:
        """Restore plain prebound dispatch (observability off)."""
        from repro.obs.instrument import deinstrument_chain

        deinstrument_chain(self)

    def metrics(self) -> Dict[str, Dict[str, object]]:
        """Per-stage metrics, keyed by stage name."""
        from repro.obs.snapshot import chain_metrics

        return chain_metrics(self)

    def backpressure(self) -> Dict[str, object]:
        """Queue depth and rejection counters of this chain."""
        return {
            "queue_depth": self.queue.size,
            "max_queue_depth": self.window_assign.max_queue_depth,
            "rejected": self.admission.rejected + self.window_assign.rejected,
        }


class Pipeline:
    """Multi-query CEP pipeline with middleware-stage event paths."""

    def __init__(self, chains: List[QueryChain], config: PipelineConfig) -> None:
        if not chains:
            raise ValueError("a pipeline needs at least one query chain")
        names = [chain.query.name for chain in chains]
        if len(set(names)) != len(names):
            raise ValueError(f"query names must be unique, got {names}")
        self.chains = chains
        self.config = config
        self._events_fed = 0
        self._last_fed = 0.0
        #: the event-time tick schedule every chain shares (batch cuts
        #: are shared); unanchored while no stage observes ticks
        self._ticks = TickSchedule(config.check_interval)
        # observability bundle (repro.obs.Observability) when enabled
        self.observability = None
        self._obs_collector = None
        # live-mode micro-batcher (size-or-linger)
        self._feed_batcher = MicroBatcher(self._batch_size(), config.linger)

    def _batch_size(self, override: Optional[int] = None) -> int:
        """The micro-batch size the event path runs at.

        A bounded queue admits by its depth between batches, so its
        enqueue and drain must interleave per event: batches of one.
        """
        if self.config.queue_capacity is not None:
            return 1
        return self.config.batch_size if override is None else override

    # ------------------------------------------------------------------
    @staticmethod
    def builder() -> "PipelineBuilder":
        """Start a fluent :class:`PipelineBuilder`."""
        from repro.pipeline.builder import PipelineBuilder

        return PipelineBuilder()

    # ------------------------------------------------------------------
    @property
    def queries(self) -> List[Query]:
        """The deployed queries, in chain order."""
        return [chain.query for chain in self.chains]

    @property
    def models(self) -> Dict[str, Optional[UtilityModel]]:
        """Trained models per query name."""
        return {chain.query.name: chain.model for chain in self.chains}

    @property
    def model(self) -> Optional[UtilityModel]:
        """The first (or only) chain's trained model."""
        return self.chains[0].model

    def chain(self, name: str) -> QueryChain:
        """The chain deployed for query ``name``."""
        for chain in self.chains:
            if chain.query.name == name:
                return chain
        raise KeyError(f"no chain for query {name!r}")

    def create_shedder(self) -> LoadShedder:
        """A fresh, unwired shedder of the first chain's strategy."""
        return self.chains[0].create_shedder()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def train(self, stream: Iterable[Event]) -> "Pipeline":
        """Fit every chain's utility model on ``stream`` (accumulates)."""
        stream = _materialise(stream)
        for chain in self.chains:
            chain.train(stream)
        return self

    def deploy(
        self,
        expected_throughput: Optional[float] = None,
        expected_input_rate: Optional[float] = None,
        f: Optional[float] = None,
        partition_override: Optional[int] = None,
        prime: bool = True,
    ) -> "Pipeline":
        """Build shedders and overload detectors for every chain."""
        for chain in self.chains:
            chain.deploy(
                expected_throughput=expected_throughput,
                expected_input_rate=expected_input_rate,
                f=f,
                partition_override=partition_override,
                prime=prime,
            )
        return self

    def warm(self, stream: Iterable[Event]) -> "Pipeline":
        """Warm shedders with online statistics (no model fitting)."""
        stream = _materialise(stream)
        for chain in self.chains:
            chain.warm(stream)
        return self

    def retrain(self, stream: Iterable[Event]) -> "Pipeline":
        """Retrain every chain on ``stream`` and hot-swap live models."""
        stream = _materialise(stream)
        for chain in self.chains:
            chain.retrain(stream)
        return self

    def start(self) -> "Pipeline":
        """Bring up the executor: a no-op in-process (a cluster forks)."""
        return self

    def broadcast_shedding(
        self, command: DropCommand, chain: Optional[str] = None
    ) -> None:
        """Activate shedding with ``command`` on every chain (or ``chain``)."""
        for target in self._chains(chain):
            shedder = target.shedder
            if shedder is None:
                raise RuntimeError(
                    f"chain {target.query.name!r} has no shedder to command; "
                    "deploy() a shedding strategy first"
                )
            shedder.on_drop_command(command)
            shedder.activate()

    def stop_shedding(self, chain: Optional[str] = None) -> None:
        """Deactivate shedding on every chain (or on ``chain``)."""
        for target in self._chains(chain):
            if target.shedder is not None:
                target.shedder.deactivate()

    def _chains(self, name: Optional[str]) -> List[QueryChain]:
        return self.chains if name is None else [self.chain(name)]

    # ------------------------------------------------------------------
    # live ingestion (push-based, event time)
    # ------------------------------------------------------------------
    def feed(
        self, event: Event, now: Optional[float] = None
    ) -> Dict[str, List[ComplexEvent]]:
        """Push one live event through every chain.

        Time advances with the event's timestamp (or an explicit
        ``now``); periodic stage duty runs on the configured check
        interval.  Returns the complex events each query detected as a
        consequence of this event.

        With a configured micro-batch (``.batch(batch_size, linger)``)
        the event is buffered and the whole batch is processed -- with
        identical detections, in identical order -- once it fills,
        lingers out, or a detector tick is due; the return value then
        carries the flushed batch's detections (usually empty for
        buffering calls).  :meth:`flush_pending` forces the buffer
        through.  At the default batch size of one every call flushes.
        """
        out = self._no_detections()
        at = event.timestamp if now is None else now
        self._feed_run([event], [at], self._feed_batcher, out)
        return out

    def feed_many(
        self, events: Iterable[Event], now: Optional[float] = None
    ) -> Dict[str, List[ComplexEvent]]:
        """Push a slice of live events through every chain, in order.

        The bulk ingest hook of network front doors
        (:mod:`repro.serve`) and other push-based producers: the slice
        is cut into micro-batches (see :meth:`_feed_batches`) and the
        per-query detections of the whole slice land in one result
        mapping, built once per call.  ``events`` may be an iterator;
        it is consumed one micro-batch at a time, so a caller whose
        call raised (a stage failed on one batch) resumes by calling
        again with the same iterator and loses only that batch.
        """
        out = self._no_detections()
        self._feed_batches(events, now, self._feed_batcher, out)
        return out

    def _feed_batches(
        self,
        events: Iterable[Event],
        now: Optional[float],
        batcher: MicroBatcher,
        out: Optional[Dict[str, List[ComplexEvent]]],
    ) -> float:
        """Cut micro-batches from ``events``: the one batching loop.

        Each round takes what the pending batch has room for off the
        iterator -- never more, so the iterator is never ahead of the
        batch being filled -- stamps the clocks and hands the run to
        :meth:`_feed_run`.  Returns the clock of the last event (0.0
        for an empty slice).
        """
        events = iter(events)
        last = 0.0
        while True:
            room = batcher.batch_size - len(batcher.pending.events)
            run = list(islice(events, room))
            if run:
                nows = (
                    [event.timestamp for event in run]
                    if now is None
                    else [now] * len(run)
                )
                last = nows[-1]
                self._feed_run(run, nows, batcher, out)
            if len(run) < room:
                return last  # the iterator ran dry inside this round

    def _feed_run(
        self,
        run: List[Event],
        nows: List[float],
        batcher: MicroBatcher,
        out: Optional[Dict[str, List[ComplexEvent]]],
    ) -> None:
        """Buffer a run the pending batch has room for; flush what is due.

        The run is buffered before any stage runs, so a batch that
        raises loses only itself (what the run holds beyond a cut stays
        pending).  The batch is flushed when full and cut earlier only
        where per-event feeding would cut it: before an event at which
        a tick is due that some stage observes (a due tick is a batch
        boundary: buffered events are processed before detector duty
        runs, as they are at batch size one), and after an event at
        which the oldest buffered one has lingered out.  Without
        observable tick duty ticks are no-ops, so the tick schedule
        (``_ticks``) is left unanchored (as after :meth:`run`) and no
        stage is called: it anchors at the first event fed once duty is
        observable, wherever the stream was cut, at a cost that does not
        grow with the time span fed.  Whether duty is observable is
        asked per run while the schedule is unanchored, else only when a
        tick is due.

        A stage's ``on_tick`` that raises loses the batch that was
        pending when it raised -- the events the tick was due before,
        at most a batch -- exactly like a stage that raises on a batch:
        the pending batch is dropped before the error propagates, so a
        caller resuming the same iterator starts an empty batch (a full
        one left behind would give the next call no room to take
        events).  The tick itself stays due and is retried at the next
        due event.
        """
        latest = max(nows) if len(nows) > 1 else nows[0]
        if latest > self._last_fed:
            self._last_fed = latest
        i = len(batcher.pending.events)  # the run's first event, once buffered
        batcher.extend(run, nows)
        schedule = self._ticks
        ticks = False
        if schedule.next is None or schedule.due(latest):
            ticks = self._ticks_observable()
            if not ticks:
                schedule.stop()  # re-anchor: no tick was observable
        linger = batcher.linger
        if ticks or linger > 0.0:
            nows = batcher.pending.nows
            while i < len(nows):
                at = nows[i]
                if ticks and schedule.next is None:
                    schedule.start(at)
                elif ticks and schedule.due(at):
                    if i:
                        self._collect_batch(batcher.split(i), out)
                        nows, i = batcher.pending.nows, 0
                    try:
                        for tick in schedule.advance(at):
                            for chain in self.chains:
                                chain.on_tick(tick)
                    except BaseException:
                        batcher.take()
                        raise
                i += 1
                if linger > 0.0 and at - nows[0] >= linger:
                    self._collect_batch(batcher.split(i), out)
                    nows, i = batcher.pending.nows, 0
        if len(batcher.pending.events) >= batcher.batch_size:
            self._collect_batch(batcher.take(), out)

    def finish(self) -> Dict[str, List[ComplexEvent]]:
        """End a live feed session: flush the micro-batcher and windows.

        Processes whatever the live micro-batcher still buffers, then
        completes every chain's still-open windows at the time of the
        last fed event -- the push-based equivalent of the end-of-stream
        flush inside :meth:`run`.  Detections are dispatched through
        the emit stage (sinks fire) and returned per query.  The
        pipeline stays usable: later feeds simply open new windows.
        """
        out = self.flush_pending()
        self._flush_windows(self._last_fed, out)
        return out

    def flush_pending(self) -> Dict[str, List[ComplexEvent]]:
        """Process whatever the live micro-batcher still buffers.

        No-op (empty result) with an empty buffer -- always, at batch
        size one.  Call at the end of a feed session -- or whenever a
        downstream consumer must observe everything fed so far.
        """
        out = self._no_detections()
        self._collect_batch(self._feed_batcher.take(), out)
        return out

    def _no_detections(self) -> Dict[str, List[ComplexEvent]]:
        return {chain.query.name: [] for chain in self.chains}

    def _collect_batch(
        self,
        batch: Optional[EventBatch],
        out: Optional[Dict[str, List[ComplexEvent]]],
    ) -> None:
        """Run one micro-batch through every chain: the per-batch step.

        Detections are appended to ``out`` per query; a replay passes
        ``None`` (its emit stages retain them).
        """
        if not batch:
            return
        for chain in self.chains:
            found = chain.run_batch(batch)
            if out is not None and found:
                out[chain.query.name].extend(found)
        self._events_fed += len(batch.events)

    def _flush_windows(
        self, now: float, out: Optional[Dict[str, List[ComplexEvent]]]
    ) -> None:
        """End of stream (:meth:`run`, :meth:`finish`): complete every
        chain's still-open windows."""
        for chain in self.chains:
            flushed = chain.flush(now=now)
            if out is not None and flushed:
                out[chain.query.name].extend(flushed)

    def run(
        self, stream: Iterable[Event], batch_size: Optional[int] = None
    ) -> PipelineResult:
        """Replay ``stream`` through every chain in event time.

        Synchronous batch mode: no queueing delays, no shedding unless
        a shedder was activated explicitly -- with a default deployment
        this equals the ground truth of an unconstrained operator.
        Returns everything collected since the previous ``run``.

        ``batch_size`` overrides the configured micro-batch size for
        this replay (``None`` uses ``config.batch_size``); detections
        are bit-identical and identically ordered at every size (a
        bounded queue always runs at size one, see :meth:`_batch_size`).
        That equivalence is structural: per-event clocks travel with
        the batch, detector ticks force a flush before they fire, and
        the egress splits at window completions (see
        :meth:`QueryChain.process_batch`).  When no stage has periodic
        duty (no overload detector, no tick-driven custom stage) ticks
        are provably no-ops, so no batch is cut for them and no stage
        is called -- otherwise every due tick would cap the effective
        batch at ``check_interval``'s worth of events.
        """
        for chain in self.chains:
            chain.emit.drain_collected()
            chain.emit.retain = True
        last_fed = self._last_fed
        try:
            # events still buffered by a live feed session are flushed
            # with retention already on: their detections join this
            # run's result instead of being silently dropped
            self.flush_pending()
            fed_before = self._events_fed
            # a replay cuts its batches as a live feed does, but at its
            # own size and without moving the live session's clock
            batcher = MicroBatcher(self._batch_size(batch_size), self.config.linger)
            last = self._feed_batches(stream, None, batcher, None)
            self._collect_batch(batcher.take(), None)
            if not self._ticks_observable():
                self._ticks.stop()  # re-anchor: no tick was observable
            self._flush_windows(last, None)
            matches = {
                chain.query.name: chain.emit.drain_collected()
                for chain in self.chains
            }
        finally:
            self._last_fed = last_fed
            for chain in self.chains:
                chain.emit.retain = False
        return PipelineResult(
            matches=matches,
            metrics=self.metrics(),
            events_fed=self._events_fed - fed_before,
        )

    def _ticks_observable(self) -> bool:
        """Whether any chain observes ticks (the chains share the
        tick schedule, since they share the batch cuts)."""
        return any([chain.observes_ticks for chain in self.chains])

    # ------------------------------------------------------------------
    # virtual-time overload simulation (the paper's experimental setup)
    # ------------------------------------------------------------------
    def simulate(
        self,
        stream: EventStream,
        input_rate: float,
        throughput: float,
        latency_bound: Optional[float] = None,
        check_interval: Optional[float] = None,
        mean_memberships: Optional[float] = None,
        idle_cost_fraction: float = 0.05,
        arrival_times: Optional[List[float]] = None,
    ) -> "SimulationResult":
        """Replay ``stream`` at ``input_rate`` against operator capacity
        ``throughput`` in deterministic virtual time.

        Convenience wrapper over
        :func:`repro.runtime.simulation.simulate_pipeline`; per-chain
        ``mean_memberships`` are measured from the stream when not
        given.  Returns the first chain's
        :class:`~repro.runtime.simulation.SimulationResult` for
        single-query pipelines; use
        :func:`~repro.runtime.simulation.simulate_pipeline` directly
        for per-query results of a fan-out pipeline.
        """
        from repro.runtime.simulation import (
            SimulationConfig,
            measure_mean_memberships,
            simulate_pipeline,
        )

        memberships = {
            chain.query.name: (
                mean_memberships
                if mean_memberships is not None
                else measure_mean_memberships(chain.query, stream)
            )
            for chain in self.chains
        }
        config = SimulationConfig(
            input_rate=input_rate,
            throughput=throughput,
            latency_bound=(
                latency_bound
                if latency_bound is not None
                else self.config.latency_bound
            ),
            check_interval=(
                check_interval
                if check_interval is not None
                else self.config.check_interval
            ),
            idle_cost_fraction=idle_cost_fraction,
            mean_memberships=memberships[self.chains[0].query.name],
        )
        results = simulate_pipeline(
            self,
            stream,
            config,
            arrival_times=arrival_times,
            mean_memberships=memberships,
        )
        return results[self.chains[0].query.name]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def enable_observability(
        self, obs: Optional["Observability"] = None, **kwargs: Any
    ) -> "Observability":
        """Turn on unified observability (metrics registry + tracer).

        Instruments every chain's dispatch with stage-timing histograms
        and window-lifecycle tracing, and registers a scrape-time
        collector mirroring the stage counters into the registry.
        Pass an existing :class:`repro.obs.Observability` to share one
        registry across surfaces (the server does), or keyword options
        (``trace_capacity``, ``max_explanations``) to build a fresh
        bundle.  Idempotent per bundle; returns the active bundle.
        """
        from repro.obs.instrument import (
            Observability,
            instrument_chain,
            register_pipeline_collectors,
        )

        if obs is None:
            obs = self.observability or Observability(**kwargs)
        if self.observability is not None and self.observability is not obs:
            self.disable_observability()
        for chain in self.chains:
            instrument_chain(chain, obs)
        if self._obs_collector is None or self.observability is not obs:
            self._obs_collector = register_pipeline_collectors(self, obs.registry)
        self.observability = obs
        return obs

    def disable_observability(self) -> None:
        """Restore uninstrumented dispatch and drop the collector."""
        for chain in self.chains:
            chain.disable_obs()
        if self.observability is not None and self._obs_collector is not None:
            self.observability.registry.unregister_collector(self._obs_collector)
        self._obs_collector = None
        self.observability = None

    def metrics(self) -> Dict[str, Dict[str, Dict[str, object]]]:
        """Per-chain, per-stage metrics."""
        from repro.obs.snapshot import pipeline_metrics

        return pipeline_metrics(self)

    def backpressure(self) -> Dict[str, Dict[str, object]]:
        """Per-chain queue depth and rejection counters."""
        return {chain.query.name: chain.backpressure() for chain in self.chains}
