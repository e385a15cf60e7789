"""Virtual-time simulation: the deterministic driver of a Pipeline.

Reproduces the paper's experimental setup deterministically: a stored
stream is replayed into each query chain's input queue at a configured
input rate ``R`` (events/second of virtual time) while the operator
drains it at throughput ``th``.  When ``R > th`` the queue grows, the
overload detector reacts (paper §3.4), the shedder drops events, and
per-event latencies are recorded -- all in virtual time, so runs are
exactly repeatable.

Since the pipeline API redesign this module no longer hand-assembles
operator + queue + detector: :func:`simulate_pipeline` steps the
middleware chains of a :class:`repro.pipeline.Pipeline` (ingress at
arrival, detector ticks on the check interval, egress when the
operator picks an item up), and :func:`simulate` is a thin
single-query wrapper that builds the pipeline from loose components
for backward compatibility.

Cost model
----------
Processing an event means processing it in all windows it belongs to
(paper §3.4 defines ``l(p)`` that way), so the cost of one queue item
is linear in the window memberships the shedder kept::

    cost(item) = idle + slope * kept
    slope      = (1/th - idle) / mean_memberships

where ``mean_memberships`` is the stream's average number of window
memberships per event (a property of the raw stream, measured by
:func:`measure_mean_memberships`).  An unshedded run therefore costs
exactly ``1/th`` per event on average -- matching the definition of
throughput ``th`` -- and dropping memberships frees capacity
proportionally, which is the behaviour the paper's dropping-amount
computation assumes.

Window assignment happens at arrival (before the queue), exactly like
the paper's architecture where *windows* of events are queued.
Time-based windows use event timestamps (event time); queueing and
latency use arrival/processing times (processing time).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Union

from repro.cep.events import ComplexEvent, EventStream
from repro.cep.operator.operator import OperatorStats
from repro.cep.patterns.query import Query
from repro.core.overload import OverloadDetector
from repro.runtime.latency import LatencyTracker
from repro.shedding.base import LoadShedder

if TYPE_CHECKING:  # pragma: no cover - cycle guard (pipeline calls back here)
    from repro.pipeline.pipeline import Pipeline

_INFINITY = math.inf


def measure_mean_memberships(query: Query, stream: EventStream) -> float:
    """Average window memberships per event of ``stream`` under ``query``.

    A pure property of the raw stream (shedding does not change window
    assignment); used to calibrate the simulation's cost model.
    """
    assigner = query.new_assigner()
    total = 0
    for event in stream:
        total += len(assigner.on_event(event).assignments)
    count = len(stream)
    return total / count if count else 1.0


@dataclass
class SimulationConfig:
    """Rates and bounds of one simulated run.

    Attributes
    ----------
    input_rate:
        ``R``: arrival rate into the queue (events/second).
    throughput:
        ``th``: operator capacity (events/second, unshedded); each
        query chain models its own operator instance of this capacity.
    latency_bound:
        ``LB`` used for latency accounting (the detector carries its
        own copy).
    check_interval:
        Detector period; ignored when no detector is given.
    idle_cost_fraction:
        Cost of an event with zero kept window memberships, as a
        fraction of the full per-event cost (queue management, window
        bookkeeping, the shedding decision itself).
    mean_memberships:
        Average window memberships per event of the raw stream; scales
        the per-membership cost so the unshedded per-event average is
        exactly ``1/th``.  Use :func:`measure_mean_memberships`.
    """

    input_rate: float
    throughput: float
    latency_bound: float = 1.0
    check_interval: float = 0.1
    idle_cost_fraction: float = 0.05
    mean_memberships: float = 1.0

    def __post_init__(self) -> None:
        if self.input_rate <= 0.0:
            raise ValueError("input rate must be positive")
        if self.throughput <= 0.0:
            raise ValueError("throughput must be positive")
        if self.latency_bound <= 0.0:
            raise ValueError("latency bound must be positive")
        if self.mean_memberships <= 0.0:
            raise ValueError("mean memberships must be positive")
        if not 0.0 <= self.idle_cost_fraction < 1.0:
            raise ValueError("idle cost fraction must lie in [0, 1)")

    @property
    def overload_factor(self) -> float:
        """``R / th`` -- 1.2 and 1.4 are the paper's R1 and R2."""
        return self.input_rate / self.throughput


@dataclass
class SimulationResult:
    """Everything a run produced."""

    complex_events: List[ComplexEvent]
    latency: LatencyTracker
    operator_stats: OperatorStats
    config: SimulationConfig
    detector: Optional[OverloadDetector] = None
    shedder: Optional[LoadShedder] = None
    events_arrived: int = 0
    virtual_duration: float = 0.0
    max_queue_size: int = 0

    @property
    def detections(self) -> int:
        """Number of complex events detected."""
        return len(self.complex_events)


def _validate_arrivals(
    arrival_times: Optional[List[float]], stream: EventStream
) -> None:
    if arrival_times is None:
        return
    if len(arrival_times) != len(stream):
        raise ValueError("need exactly one arrival time per event")
    if any(b < a for a, b in zip(arrival_times, arrival_times[1:])):
        raise ValueError("arrival times must be non-decreasing")


def simulate_pipeline(
    pipeline: "Pipeline",
    stream: EventStream,
    config: SimulationConfig,
    prime_window_size: Optional[float] = None,
    arrival_times: Optional[List[float]] = None,
    mean_memberships: Optional[Union[float, Mapping[str, float]]] = None,
) -> Dict[str, SimulationResult]:
    """Step ``pipeline`` through ``stream`` in virtual time.

    Every chain sees the same arrival process (one shared input
    stream); each chain drains its own queue with its own operator at
    ``config.throughput``.  The scheduling order per instant is
    detector check, then arrival, then processing -- identical to the
    historical single-operator simulation, which this function
    generalises.

    Parameters
    ----------
    pipeline:
        A built (and usually trained + deployed)
        :class:`repro.pipeline.Pipeline`.  Chains are stateful; use a
        fresh pipeline per run.
    prime_window_size:
        Seed for unprimed window-size predictors (e.g. the training
        phase's average window size); ``deploy()`` primes chains
        already, so this mainly serves undeployed pipelines.
    arrival_times:
        Explicit arrival times (see :mod:`repro.runtime.arrivals`),
        overriding the uniform spacing derived from
        ``config.input_rate``.  Must be non-decreasing and one per
        stream event.
    mean_memberships:
        Per-query override of ``config.mean_memberships`` -- a float
        for all chains or a mapping keyed by query name.

    Returns a :class:`SimulationResult` per query name.
    """
    # function-level import: repro.pipeline's package __init__ imports
    # this module, so a top-level import would be circular
    from repro.pipeline.batching import EventBatch

    _validate_arrivals(arrival_times, stream)
    chains = pipeline.chains
    k = len(chains)
    for chain in chains:
        if chain.operator is None:
            raise ValueError(
                "virtual-time simulation needs sequential chains: the "
                "per-membership cost model cannot price window-parallel "
                f"matching (query {chain.query.name!r} uses "
                f".parallel({chain.degree})); use run()/feed() for "
                "parallel pipelines"
            )
    if prime_window_size is not None:
        for chain in chains:
            chain._prime(prime_window_size)

    def _memberships_for(chain) -> float:
        if mean_memberships is None:
            return config.mean_memberships
        if isinstance(mean_memberships, Mapping):
            return mean_memberships.get(chain.query.name, config.mean_memberships)
        return mean_memberships

    full_cost = 1.0 / config.throughput
    idle_cost = config.idle_cost_fraction * full_cost
    membership_cost = [
        (full_cost - idle_cost) / _memberships_for(chain) for chain in chains
    ]

    latency = [LatencyTracker(bound=config.latency_bound) for _ in chains]
    complex_events: List[List[ComplexEvent]] = [[] for _ in chains]
    free_at = [0.0] * k
    max_queue = [0] * k
    next_check = [
        config.check_interval if chain.detector is not None else _INFINITY
        for chain in chains
    ]

    n = len(stream)
    arrival_interval = 1.0 / config.input_rate
    arrival_index = 0
    now = 0.0
    # a bounded queue admits by its depth between batches, so its
    # arrivals are ingested one per batch (rejections depend on the
    # interleaving of enqueue and drain)
    bounded = pipeline.config.queue_capacity is not None

    def _arrival_time(index: int) -> float:
        if arrival_times is not None:
            return arrival_times[index]
        return index * arrival_interval

    while arrival_index < n or any(chain.queue for chain in chains):
        if arrival_index >= n:
            next_arrival = _INFINITY
        else:
            next_arrival = _arrival_time(arrival_index)

        next_process = _INFINITY
        process_chain = -1
        for ci, chain in enumerate(chains):
            head = chain.queue.peek()
            if head is None:
                continue
            start = max(free_at[ci], head.enqueue_time)
            if start < next_process:
                next_process = start
                process_chain = ci

        check_time = min(next_check)
        now = min(next_arrival, next_process, check_time)

        if check_time <= next_arrival and check_time <= next_process:
            check_chain = next_check.index(check_time)
            chains[check_chain].on_tick(now)
            next_check[check_chain] += config.check_interval
            continue

        if next_arrival <= next_process:
            # a maximal run of arrivals nothing can interleave: under
            # overload the operator is busy (free_at ahead of the
            # arrival clock), so whole bursts of arrivals are due
            # before the next processing step or detector check --
            # ingest them as one batch instead of paying a full
            # scheduler round-trip per event.  The processing bound is
            # a lower bound on the earliest possible start (head
            # enqueue times only grow during the run), so batching is
            # conservative: any event that *could* tie with processing
            # still wins the tie, exactly like a one-event-per-step
            # schedule.
            bound = _INFINITY
            for ci, chain in enumerate(chains):
                head = chain.queue.peek()
                earliest = max(
                    free_at[ci],
                    head.enqueue_time if head is not None else next_arrival,
                )
                if earliest < bound:
                    bound = earliest
            run = EventBatch([stream[arrival_index]], [next_arrival])
            arrival_index += 1
            while arrival_index < n and not bounded:
                t = _arrival_time(arrival_index)
                if t > bound or t >= check_time:
                    break
                run.append(stream[arrival_index], t)
                arrival_index += 1
            now = run.nows[-1]
            for ci, chain in enumerate(chains):
                chain.ingest_batch(run)
                max_queue[ci] = max(max_queue[ci], chain.queue.size)
            continue

        # the chain's operator picks its head item
        chain = chains[process_chain]
        item = chain.queue.pop()
        start = max(free_at[process_chain], item.enqueue_time)
        result = chain.process_item(item, now=start)
        cost = idle_cost + membership_cost[process_chain] * result.memberships_kept
        free_at[process_chain] = start + cost
        latency[process_chain].record(
            free_at[process_chain], free_at[process_chain] - item.enqueue_time
        )
        complex_events[process_chain].extend(result.complex_events)

    # end of stream: flush still-open windows
    results: Dict[str, SimulationResult] = {}
    for ci, chain in enumerate(chains):
        complex_events[ci].extend(chain.flush(now=free_at[ci]))
        results[chain.query.name] = SimulationResult(
            complex_events=complex_events[ci],
            latency=latency[ci],
            operator_stats=chain.operator.stats,
            config=dataclasses.replace(
                config, mean_memberships=_memberships_for(chain)
            ),
            detector=chain.detector,
            shedder=chain.shedder,
            events_arrived=n,
            virtual_duration=max(free_at[ci], now),
            max_queue_size=max_queue[ci],
        )
    return results


def simulate_sharded(
    pipeline,
    stream: EventStream,
    shards: int = 2,
    router="round-robin",
    batch_size: int = 32,
    linger: float = 0.0,
    drop_command=None,
    **cluster_options,
):
    """Replay ``stream`` through a sharded multi-process execution of
    ``pipeline`` and return the merged, ordered results.

    The scale-out counterpart of :func:`simulate_pipeline`: the same
    built (and usually trained + deployed) pipeline is executed by a
    :class:`repro.cluster.ShardedPipeline` across ``shards`` real
    worker processes -- the router ships complete windows (the paper's
    unit of distribution) over batched IPC queues, shards shed + match
    them, and the coordinator merges detections back into sequential
    emission order.  Because shedding state is coordinator-owned and
    windows are decided whole, the per-query detections (contents and
    order) are identical for every shard count, and identical to a
    sequential :func:`simulate_pipeline` run of the same deployment --
    the paper's parallelism-degree-independence claim, tested across
    OS processes.

    Parameters
    ----------
    pipeline:
        A built :class:`repro.pipeline.Pipeline` (it is wrapped in a
        fresh ``ShardedPipeline`` and the workers are shut down before
        returning), or an already-started
        :class:`repro.cluster.ShardedPipeline` (then left running for
        the caller to reuse).
    drop_command:
        Optional static :class:`repro.shedding.base.DropCommand`
        applied to every chain's shedder -- and activated -- *before*
        the workers fork, giving a deterministic "under shedding" run
        (dynamic detector-driven shedding reacts to wall-clock
        backpressure and is therefore not replayable).

    Returns a :class:`repro.cluster.ShardedResult` (per-query ordered
    detections, throughput, and the cluster snapshot).  Extra keyword
    arguments (``fault_tolerant``, ``checkpoint_dir``, ``autoscaler``,
    ...) forward to the :class:`~repro.cluster.ShardedPipeline`
    constructor.
    """
    from repro.cluster import ShardedPipeline

    if isinstance(pipeline, ShardedPipeline):
        if drop_command is not None:
            raise ValueError(
                "pass drop_command only with a plain Pipeline: a started "
                "ShardedPipeline takes commands via broadcast_shedding()"
            )
        return pipeline.run(stream)

    if drop_command is not None:
        for chain in pipeline.chains:
            if chain.shedder is None:
                raise RuntimeError(
                    f"chain {chain.query.name!r} has no shedder for the "
                    "drop command; deploy() a shedding strategy first"
                )
            chain.shedder.on_drop_command(drop_command)
            chain.shedder.activate()
    sharded = ShardedPipeline(
        pipeline,
        shards=shards,
        router=router,
        batch_size=batch_size,
        linger=linger,
        **cluster_options,
    )
    with sharded:
        return sharded.run(stream)


def simulate(
    query: Query,
    stream: EventStream,
    config: SimulationConfig,
    shedder: Optional[LoadShedder] = None,
    detector: Optional[OverloadDetector] = None,
    prime_window_size: Optional[float] = None,
    arrival_times: Optional[List[float]] = None,
) -> SimulationResult:
    """Run ``stream`` through a single-query pipeline at the configured
    rates.

    Compatibility wrapper over :func:`simulate_pipeline`: assembles a
    one-chain pipeline around ``query``, injecting the prebuilt
    ``shedder``/``detector`` (the detector is expected to be wired to
    the shedder: ``detector.shedder is shedder``).
    ``prime_window_size`` seeds the operator's window-size predictor
    (e.g. the training phase's average window size) so relative
    positions are available from the first window.
    """
    from repro.pipeline import Pipeline

    builder = (
        Pipeline.builder()
        .query(query)
        .latency_bound(config.latency_bound)
        .check_interval(config.check_interval)
    )
    if shedder is not None:
        builder.shedder(shedder)
    if detector is not None:
        builder.detector(detector)
    results = simulate_pipeline(
        builder.build(),
        stream,
        config,
        prime_window_size=prime_window_size,
        arrival_times=arrival_times,
    )
    return results[query.name]
