"""Virtual-time simulation: the deterministic driver of a Pipeline.

Reproduces the paper's experimental setup deterministically: a stored
stream is replayed into each query chain's input queue at a configured
input rate ``R`` (events/second of virtual time) while the operator
drains it at throughput ``th``.  When ``R > th`` the queue grows, the
overload detector reacts (paper §3.4), the shedder drops events, and
per-event latencies are recorded -- all in virtual time, so runs are
exactly repeatable.

Since the pipeline API redesign this module no longer hand-assembles
operator + queue + detector: :func:`simulate_pipeline` drives the
middleware chains of a :class:`repro.pipeline.Pipeline`, and
:func:`simulate` is a thin single-query wrapper that builds the
pipeline from loose components for backward compatibility.

Scheduling
----------
The schedule is that of a per-event discrete-event loop: at every
instant the detector check comes first, then arrivals, then
processing, and the chain whose next start is earliest processes first
(the lower chain index wins ties).  The driver keeps that order exactly
but advances virtual time per batch boundary and per due tick, not per
event:

- *Ingress* takes every arrival strictly before the next tick as one
  batch per chain -- at most one check interval ahead when no chain has
  a detector, exactly one arrival when the queue is bounded (admission
  reads the depth between arrivals).  No ingress stage reads egress
  state, so ingesting ahead of processing changes nothing downstream.
- *Egress* takes a segment from the head of the earliest chain's
  queue.  While shedding is live the segment ends at the first
  window-closing item: completing a window moves the window-size
  predictor the next decisions read.  It also ends before any item
  whose worst-case start -- every earlier membership kept -- could
  reach the next tick, the next un-ingested arrival or another chain's
  next start.
- A segment runs as *decide, price, apply*: the shedding stage decides
  every membership (``QueryChain.decide``); the driver prices the items
  from the ``items`` and ``drops`` columns (``start = max(free_at,
  enqueue_time)``, ``free_at = start + cost``), makes the starts the
  segment's ``nows`` column and records latencies; then match, emit and
  the custom egress stages run on the priced clock
  (``QueryChain.apply``).
- The queue is not sampled while it runs ahead: ``max_queue_size`` and
  the window-assign stage's ``max_queue_depth`` are derived once every
  item that starts before a chunk's last arrival is priced.  The depth
  right after an arrival is what was queued before the chunk, plus the
  chunk's admissions so far, minus the items that started strictly
  before that arrival -- exactly what a per-event loop samples.

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
from repro.cep.windows import assign_chunks
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
    total = 0
    for _events, (refs, _closes, _closed) in assign_chunks(query.new_assigner(), stream):
        total += sum([len(r.ids) for r in refs])
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
        # the driver steps detector ticks by this much: zero would tick
        # forever at one instant
        if not (math.isfinite(self.check_interval) and self.check_interval > 0.0):
            raise ValueError("check interval must be positive and finite")
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
    """Drive ``pipeline`` through ``stream`` in virtual time.

    Every chain sees the same arrival process (one shared input
    stream); each chain drains its own queue with its own operator at
    ``config.throughput``.  The scheduling order per instant is
    detector check, then arrival, then processing -- identical to the
    historical per-event simulation, which this function generalises
    and batches (see the module docstring): ingress runs once per tick
    interval, egress once per segment, and each segment is decided,
    priced from its kept memberships, then applied on the priced clock.
    ``max_queue_size`` is derived from arrival and start times rather
    than sampled, and equals what the per-event loop sampled.

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
    from repro.pipeline.batching import EventBatch, StageBatch

    _validate_arrivals(arrival_times, stream)
    chains = pipeline.chains
    k = len(chains)
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
    queues = [chain.queue for chain in chains]
    free_at = [0.0] * k
    max_queue = [0] * k
    check_interval = config.check_interval
    next_check = [
        check_interval if chain.detector is not None else _INFINITY
        for chain in chains
    ]
    # the last ingested chunk, kept until its queue samples can be
    # derived: its arrival times, per chain the depth before it and
    # which arrivals were admitted, and the starts priced since
    chunk_nows: List[float] = []
    chunk_depth = [0] * k
    chunk_admitted: List[List[bool]] = [[] for _ in chains]
    chunk_starts: List[List[float]] = [[] for _ in chains]

    def _sample_chunk() -> None:
        for ci, chain in enumerate(chains):
            peak = _queue_peak(
                chunk_depth[ci], chunk_nows, chunk_admitted[ci], chunk_starts[ci]
            )
            chunk_starts[ci].clear()
            max_queue[ci] = max(max_queue[ci], peak)
            assign = chain.window_assign
            assign.max_queue_depth = max(assign.max_queue_depth, peak)

    n = len(stream)
    arrival_interval = 1.0 / config.input_rate
    arrival_index = 0
    # the latest instant any arrival or start happened at
    now = -_INFINITY if n else 0.0
    # a bounded queue admits by its depth between arrivals, so its
    # arrivals are ingested one per batch
    bounded = pipeline.config.queue_capacity is not None

    def _arrival_time(index: int) -> float:
        if arrival_times is not None:
            return arrival_times[index]
        return index * arrival_interval

    while arrival_index < n or any(queues):
        next_arrival = _arrival_time(arrival_index) if arrival_index < n else _INFINITY
        heads = [
            max(free_at[ci], queue.peek().enqueue_time) if queue else _INFINITY
            for ci, queue in enumerate(queues)
        ]
        next_process = min(heads)
        check_time = min(next_check)

        if check_time <= next_arrival and check_time <= next_process:
            check_chain = next_check.index(check_time)
            chains[check_chain].on_tick(check_time)
            next_check[check_chain] += check_interval
            continue

        if next_arrival <= next_process:
            # ingress: every arrival strictly before the next tick, at
            # most one check interval ahead (no chain may have a
            # detector), one arrival at a time into a bounded queue
            _sample_chunk()
            horizon = min(check_time, next_arrival + check_interval)
            run = EventBatch([stream[arrival_index]], [next_arrival])
            arrival_index += 1
            while arrival_index < n and not bounded:
                t = _arrival_time(arrival_index)
                if t >= horizon:
                    break
                run.append(stream[arrival_index], t)
                arrival_index += 1
            chunk_nows = run.nows
            now = max(now, chunk_nows[-1])
            for ci, chain in enumerate(chains):
                assign = chain.window_assign
                peak = assign.max_queue_depth
                chunk_depth[ci] = queues[ci].size
                stopped = chain.ingest_batch(run).stopped
                chunk_admitted[ci] = (
                    [True] * len(chunk_nows)
                    if stopped is None
                    else [not vetoed for vetoed in stopped]
                )
                assign.max_queue_depth = peak  # derived by _sample_chunk
            continue

        # egress: a segment of the earliest chain's queue.  An item
        # joins only if its worst-case start (every membership before
        # it kept) precedes the next tick, the next un-ingested arrival
        # and every other chain's next start -- a later chain's only on
        # a tie.  The head always joins: its start is exact.
        ci = heads.index(next_process)
        chain = chains[ci]
        queue = queues[ci]
        slope = membership_cost[ci]
        before = min(check_time, next_arrival, *heads[:ci])
        at_latest = min(heads[ci + 1 :], default=_INFINITY)
        live = chain.shedding_live
        worst_free = free_at[ci]
        count = 0
        closes: List[int] = []
        for item in queue:
            start = max(worst_free, item.enqueue_time)
            if count and (start >= before or start > at_latest):
                break
            count += 1
            if item.closed_windows:
                closes.append(count - 1)
                if live:
                    break  # the closed window moves the next decisions' predictor
            worst_free = start + (idle_cost + slope * len(item.refs.ids))
        items = queue.take(count)
        segment = StageBatch([item.event for item in items], [], items, closes)

        chain.decide(segment)
        drops = segment.drops
        at = free_at[ci]
        starts = segment.nows
        done: List[float] = []
        waited: List[float] = []
        for i, item in enumerate(items):
            enqueued = item.enqueue_time
            start = at if at > enqueued else enqueued
            kept = len(item.refs.ids)
            if drops is not None:
                kept -= drops[i].count(True)
            at = start + (idle_cost + slope * kept)
            starts.append(start)
            done.append(at)
            waited.append(at - enqueued)
        chunk_starts[ci] += starts
        free_at[ci] = at
        now = max(now, start)
        latency[ci].extend(done, waited)

        chain.apply(segment)
        complex_events[ci] += segment.complex_events

    _sample_chunk()
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


def _queue_peak(
    depth: int, nows: List[float], admitted: List[bool], starts: List[float]
) -> int:
    """Deepest one chain's queue was right after any of a chunk's arrivals.

    ``depth`` was queued before the chunk; ``admitted`` flags the
    arrivals (at ``nows``) that were enqueued; ``starts`` are the start
    times, in order, of the items processed since the chunk was
    ingested.  An item leaves before an arrival only if it starts
    strictly earlier (an arrival wins a tie).
    """
    peak = 0
    started = 0
    pending = len(starts)
    for t, queued in zip(nows, admitted):
        if queued:
            depth += 1
        while started < pending and starts[started] < t:
            started += 1
            depth -= 1
        if depth > peak:
            peak = depth
    return peak


def simulate_sharded(
    pipeline,
    stream: EventStream,
    shards: int = 2,
    drop_command=None,
    **cluster_options,
):
    """Replay ``stream`` through a sharded multi-process execution of
    ``pipeline`` and return the merged, ordered results.

    The scale-out counterpart of :func:`simulate_pipeline`: the same
    built (and usually trained + deployed) pipeline is executed by a
    :class:`repro.cluster.ShardedPipeline` -- a ``Pipeline`` whose
    windows run on ``shards`` real worker processes -- the router ships
    complete windows (the paper's unit of distribution) over batched
    IPC queues, shards shed + match them, and the coordinator merges
    detections back into sequential emission order.  Because shedding
    state is coordinator-owned and windows are decided whole, the
    per-query detections (contents and order) are identical for every
    shard count, and identical to a sequential
    :func:`simulate_pipeline` run of the same deployment -- the paper's
    parallelism-degree-independence claim, tested across OS processes.

    Parameters
    ----------
    pipeline:
        A built :class:`repro.pipeline.Pipeline`; its chains are run by
        a fresh ``ShardedPipeline`` whose workers are shut down before
        returning.  (A ``ShardedPipeline`` you keep running is replayed
        with its own ``run()``.)
    drop_command:
        Optional static :class:`repro.shedding.base.DropCommand`
        applied to every chain's shedder -- and activated -- through
        :meth:`~repro.pipeline.Pipeline.broadcast_shedding` *before* the
        workers fork, giving a deterministic "under shedding" run
        (dynamic detector-driven shedding reacts to wall-clock
        backpressure and is therefore not replayable).

    Returns a :class:`repro.cluster.ShardedResult` (per-query ordered
    detections, throughput, and the cluster snapshot).  Extra keyword
    arguments (``router``, ``batch_size``, ``linger``,
    ``fault_tolerant``, ...) forward to the
    :class:`~repro.cluster.ShardedPipeline` constructor, with its
    defaults.
    """
    from repro.cluster import ShardedPipeline

    if drop_command is not None:
        pipeline.broadcast_shedding(drop_command)
    sharded = ShardedPipeline(pipeline, shards=shards, **cluster_options)
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
