"""Oracle for the batched virtual-time driver.

:func:`reference_simulate_pipeline` is the scheduling loop that
``repro.runtime.simulation.simulate_pipeline`` ran before it advanced
virtual time per batch boundary, kept verbatim: one scheduler round per
detector check, per maximal run of arrivals nothing can interleave, and
per queue item -- the operator pops one item, runs the egress half over
a batch of one at the item's start time, and only then learns what it
cost (``QueryChain.process_item``, inlined below, was that one-item
egress).  Slow and obviously right -- ``test_simulation_equivalence.py``
holds the batched driver to it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Mapping, Optional, Union

from repro.cep.events import ComplexEvent, EventStream
from repro.pipeline.batching import EventBatch, StageBatch
from repro.runtime.latency import LatencyTracker
from repro.runtime.simulation import (
    SimulationConfig,
    SimulationResult,
    _validate_arrivals,
)

_INFINITY = math.inf


def reference_simulate_pipeline(
    pipeline,
    stream: EventStream,
    config: SimulationConfig,
    prime_window_size: Optional[float] = None,
    arrival_times: Optional[List[float]] = None,
    mean_memberships: Optional[Union[float, Mapping[str, float]]] = None,
) -> Dict[str, SimulationResult]:
    """Step ``pipeline`` through ``stream`` one scheduler round at a time."""
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
        # the one-item egress (formerly QueryChain.process_item)
        stage_batch = StageBatch(
            [item.event], [start], [item], [0] if item.closed_windows else []
        )
        chain.decide(stage_batch)
        chain.apply(stage_batch)
        drops = stage_batch.drops
        memberships_kept = len(item.refs) - (
            drops[0].count(True) if drops is not None else 0
        )
        cost = idle_cost + membership_cost[process_chain] * memberships_kept
        free_at[process_chain] = start + cost
        latency[process_chain].record(
            free_at[process_chain], free_at[process_chain] - item.enqueue_time
        )
        complex_events[process_chain].extend(stage_batch.complex_events)

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
