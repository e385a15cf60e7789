"""Fluent construction of pipelines.

The builder is the declarative surface of the API redesign: queries,
shedding strategy, bounds and custom middleware are stated once, and
``build()`` wires the per-query chains (stages, queue, operator) that
the old code hand-assembled::

    pipeline = (
        Pipeline.builder()
        .query(q1)
        .query(q2)
        .shedder("espice", f=0.8)
        .latency_bound(1.0)
        .stage(LoggingStage())
        .build()
    )

Strategy names come from :mod:`repro.shedding.registry`; prebuilt
shedder/detector instances can be injected instead (the simulation
driver's compatibility path).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.cep.patterns.query import Query
from repro.core.model import UtilityModel
from repro.core.overload import OverloadDetector
from repro.pipeline.pipeline import Pipeline, PipelineConfig, QueryChain
from repro.pipeline.stages import EventSink, Stage
from repro.shedding.base import LoadShedder
from repro.shedding.registry import available_shedders

#: A stage instance (single-query pipelines) or a zero-argument factory
#: producing one fresh stage per chain (required for fan-out pipelines,
#: since stages are stateful).
StageLike = Union[Stage, Callable[[], Stage]]


class PipelineBuilder:
    """Fluent builder for :class:`~repro.pipeline.pipeline.Pipeline`."""

    def __init__(self) -> None:
        self._queries: List[Query] = []
        self._config = PipelineConfig()
        self._strategy: Optional[str] = None
        self._strategy_options: Dict[str, Any] = {}
        self._shedder_instance: Optional[LoadShedder] = None
        self._detector_instance: Optional[OverloadDetector] = None
        self._ingress: List[StageLike] = []
        self._egress: List[StageLike] = []
        self._sinks: List[EventSink] = []
        self._adaptive: Optional[Dict[str, Any]] = None
        self._model: Optional["UtilityModel"] = None
        self._distributed: Optional[Dict[str, Any]] = None
        self._observability: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, query: Query) -> "PipelineBuilder":
        """Add a query; each gets its own chain, all share the input."""
        self._queries.append(query)
        return self

    # ------------------------------------------------------------------
    # shedding strategy
    # ------------------------------------------------------------------
    def shedder(
        self, strategy: Union[str, LoadShedder], **options: Any
    ) -> "PipelineBuilder":
        """Select the shedding strategy.

        ``strategy`` is a registry name (``"espice"``, ``"bl"``,
        ``"integral"``, ``"random"``, ``"none"``) with strategy options
        as keywords -- the detector knobs ``f`` and ``seed`` are routed
        to the pipeline config; everything else reaches the factory.
        Passing a prebuilt :class:`LoadShedder` instance injects it
        verbatim (single-query pipelines only).
        """
        if isinstance(strategy, LoadShedder):
            if options:
                raise ValueError("options only apply to registry strategy names")
            self._shedder_instance = strategy
            self._strategy = None
            return self
        if strategy not in available_shedders():
            known = ", ".join(available_shedders())
            raise ValueError(
                f"unknown shedder strategy {strategy!r}; registered: {known}"
            )
        if "f" in options:
            self._config.f = options.pop("f")
        if "seed" in options:
            self._config.seed = options.pop("seed")
        self._strategy = strategy
        self._strategy_options = options
        return self

    def model(self, model: "UtilityModel") -> "PipelineBuilder":
        """Deploy a pre-trained utility model (e.g. loaded from disk).

        Skips the training phase: ``deploy()`` can be called directly.
        ``train()`` still works and replaces the model.
        """
        self._model = model
        return self

    def detector(self, detector: OverloadDetector) -> "PipelineBuilder":
        """Inject a prebuilt overload detector (single-query pipelines).

        The detector is expected to be wired to the injected shedder
        already (``detector.shedder is shedder``); ``deploy()`` is then
        unnecessary.
        """
        self._detector_instance = detector
        return self

    # ------------------------------------------------------------------
    # config knobs
    # ------------------------------------------------------------------
    def latency_bound(self, seconds: float) -> "PipelineBuilder":
        """``LB``: the latency bound in seconds (paper default 1.0)."""
        self._config.latency_bound = seconds
        return self

    def f(self, value: Optional[float]) -> "PipelineBuilder":
        """Shedding trigger fraction; ``None`` auto-selects (§3.4)."""
        self._config.f = value
        return self

    def bin_size(self, bins: int) -> "PipelineBuilder":
        """``bs``: utility-table positions per bin (§3.6)."""
        self._config.bin_size = bins
        return self

    def check_interval(self, seconds: float) -> "PipelineBuilder":
        """Overload-detector period in seconds."""
        self._config.check_interval = seconds
        return self

    def reference_size(self, size: Optional[int]) -> "PipelineBuilder":
        """Pin the reference window size ``N`` instead of deriving it."""
        self._config.reference_size = size
        return self

    def queue_capacity(self, capacity: Optional[int]) -> "PipelineBuilder":
        """Bound the input queue; overflow is rejected at admission."""
        self._config.queue_capacity = capacity
        return self

    def batch(self, batch_size: int, linger: float = 0.0) -> "PipelineBuilder":
        """Micro-batch the hot event path (size-or-linger).

        ``run()``/``feed()`` then accumulate up to ``batch_size``
        events (shipping early once the oldest buffered event is
        ``linger`` event-time seconds old) and each stage processes the
        batch in one call, with the shedding decisions resolved by the
        vectorized kernel (:mod:`repro.core.kernel`).  Detections stay
        bit-identical and identically ordered; only constants drop.
        ``batch_size=1`` (the default) hands the same stages batches of
        one event, and a bounded :meth:`queue_capacity` forces that size.
        """
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        if linger < 0.0:
            raise ValueError("linger must be non-negative")
        self._config.batch_size = batch_size
        self._config.linger = linger
        return self

    def seed(self, seed: int) -> "PipelineBuilder":
        """RNG seed handed to sampling shedders."""
        self._config.seed = seed
        return self

    # ------------------------------------------------------------------
    # middleware extension points
    # ------------------------------------------------------------------
    def stage(self, stage: StageLike, where: str = "ingress") -> "PipelineBuilder":
        """Insert a custom middleware stage.

        ``where="ingress"`` places it between admission and window
        assignment (sees raw events, may veto them); ``"egress"``
        places it after the emit stage (sees processed items and their
        detections).  Pass a factory (``lambda: LoggingStage()``) when
        the pipeline fans out to several queries, so every chain gets
        its own stage instance.
        """
        if where not in ("ingress", "egress"):
            raise ValueError("where must be 'ingress' or 'egress'")
        (self._ingress if where == "ingress" else self._egress).append(stage)
        return self

    def sink(self, sink: EventSink) -> "PipelineBuilder":
        """Subscribe a callback to every emitted complex event."""
        self._sinks.append(sink)
        return self

    # ------------------------------------------------------------------
    # deployment shape
    # ------------------------------------------------------------------
    def distributed(
        self,
        shards: int,
        router: Any = "round-robin",
        batch_size: int = 32,
        linger: float = 0.0,
        fault_tolerant: bool = False,
        checkpoint_dir: Optional[str] = None,
        checkpoint_interval: int = 200,
        heartbeat_timeout: float = 30.0,
        autoscaler: Any = None,
    ) -> "PipelineBuilder":
        """Execute across ``shards`` real worker processes.

        ``build()`` then returns a
        :class:`repro.cluster.ShardedPipeline` -- still a ``Pipeline``,
        fed and run through the same methods: complete windows are
        routed to forked shard workers (``router`` names a
        :mod:`repro.cluster.routing` policy or is a ``Router``
        instance), events travel in batches of ``batch_size`` messages
        (shipped early once the oldest waits ``linger`` wall-clock
        seconds -- not the event-time ``linger`` of :meth:`batch`), and
        the coordinator merges detections back into sequential order.
        Train and deploy before iterating -- workers inherit the
        deployed state at fork.

        ``fault_tolerant=True`` makes the cluster crash-safe: dead
        workers are respawned and their unacked windows replayed
        (exactly-once detections).  ``checkpoint_dir`` additionally
        persists per-shard state every ``checkpoint_interval`` windows
        so a respawned worker resumes its counters and shedder state.
        ``heartbeat_timeout`` bounds how long a silent worker that owes
        results survives before it is declared failed.  ``autoscaler``
        takes a :class:`repro.cluster.Autoscaler` to drive
        scale-up/scale-down from live utilization and queue depth --
        pair it with ``router="consistent-hash"`` so membership changes
        rebalance only the moved key ranges.
        """
        if shards <= 0:
            raise ValueError("shard count must be positive")
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        self._distributed = {
            "shards": shards,
            "router": router,
            "batch_size": batch_size,
            "linger": linger,
            "fault_tolerant": fault_tolerant,
            "checkpoint_dir": checkpoint_dir,
            "checkpoint_interval": checkpoint_interval,
            "heartbeat_timeout": heartbeat_timeout,
            "autoscaler": autoscaler,
        }
        return self

    def observability(self, obs: Any = True, **options: Any) -> "PipelineBuilder":
        """Enable unified observability on the built pipeline.

        ``build()`` then calls ``enable_observability()`` on the result
        -- sequential or sharded alike -- so the pipeline starts with
        instrumented stage dispatch, the shared metrics
        :class:`~repro.obs.registry.Registry` and window tracing with
        shed explanations.  Pass a prebuilt
        :class:`~repro.obs.instrument.Observability` to share one
        registry across pipelines, or keyword options
        (``trace_capacity``, ``max_explanations``) to configure a fresh
        bundle; ``observability(False)`` cancels an earlier call.
        """
        if obs is False:
            self._observability = None
            if options:
                raise ValueError("options make no sense with observability(False)")
            return self
        self._observability = {"obs": None if obs is True else obs, **options}
        return self

    def adaptive(self, **options: Any) -> "PipelineBuilder":
        """Enable drift-driven automatic retraining (§3.6).

        Options are forwarded to
        :class:`repro.core.adaptive.AdaptiveController`
        (``check_every``, ``min_training_windows``, plus
        :class:`~repro.core.drift.DriftDetector` knobs).
        """
        self._adaptive = options
        return self

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def _materialise(self, stages: List[StageLike], multi: bool) -> List[Stage]:
        built: List[Stage] = []
        for stage in stages:
            if isinstance(stage, Stage):
                if multi:
                    raise ValueError(
                        "pass stage factories (callables) when the pipeline "
                        "has several queries; stage instances are stateful"
                    )
                built.append(stage)
            else:
                built.append(stage())
        return built

    def build(self) -> Pipeline:
        """Validate and assemble the pipeline.

        Returns a :class:`Pipeline`; after :meth:`distributed` it is a
        :class:`repro.cluster.ShardedPipeline` -- a ``Pipeline`` whose
        windows execute on forked shard workers, driven through the
        same methods.
        """
        if not self._queries:
            raise ValueError("a pipeline needs at least one query")
        multi = len(self._queries) > 1
        if multi and (
            self._shedder_instance is not None or self._detector_instance is not None
        ):
            raise ValueError(
                "shedder/detector injection only supports single-query "
                "pipelines; use a registry strategy name for fan-out"
            )
        chains = []
        for query in self._queries:
            chains.append(
                QueryChain(
                    query=query,
                    config=self._config,
                    strategy=self._strategy,
                    strategy_options=self._strategy_options,
                    shedder=self._shedder_instance,
                    detector=self._detector_instance,
                    ingress_stages=self._materialise(self._ingress, multi),
                    egress_stages=self._materialise(self._egress, multi),
                    adaptive_options=self._adaptive,
                    sinks=list(self._sinks),
                    model=self._model,
                )
            )
        pipeline = Pipeline(chains, self._config)
        if self._distributed is not None:
            from repro.cluster import ShardedPipeline

            pipeline = ShardedPipeline(pipeline, **self._distributed)
        if self._observability is not None:
            pipeline.enable_observability(
                self._observability["obs"],
                **{k: v for k, v in self._observability.items() if k != "obs"},
            )
        return pipeline
