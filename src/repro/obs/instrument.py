"""Hot-path instrumentation: composites in place of stage dispatch.

A chain calls prebound ``process_batch`` methods instead of resolving
stage attributes per batch: the ingress tuple
(``QueryChain._ingress_batch_dispatch``) and the egress's two steps,
*decide* (``_decide_dispatch``, the shedding stage) and *apply*
(``_apply_dispatch``: match, emit, custom stages).  Observability
reuses that trick in reverse: *enabling* obs replaces each with one
timing/tracing composite closure, *disabling* it restores the plain
prebound methods.  When obs is off the dispatch is byte-identical to an
uninstrumented pipeline, so the disabled cost is structurally zero --
no flag checks, no no-op calls on the hot path.  Every driver (live
feed, replay, the virtual-time simulation, which prices a segment
between decide and apply) goes through those three, so the three
composites are the only instrumentation.

What the composites record (and what they deliberately do not):

- per-(query, stage) wall-time histograms around every stage call (one
  observation per batch, amortized over its events);
- micro-batch size and queue-wait histograms;
- window lifecycle traces, written only at window *close* (one record
  per window, backfilled from ``Window.open_time``) and at actual
  membership *drops* (overload-only by construction) -- never per kept
  event.  That asymmetry is what keeps the enabled overhead inside the
  ≤2% budget asserted by ``benchmarks/bench_obs.py``.

The registry side of pipeline observability is pull-based:
:func:`register_pipeline_collectors` copies the counters stages
already maintain into registry families at scrape time, costing the
event path nothing.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Optional

from repro.obs.registry import LATENCY_BUCKETS, Registry, SIZE_BUCKETS
from repro.obs.tracer import ShedExplanation, Tracer

__all__ = [
    "Observability",
    "instrument_chain",
    "deinstrument_chain",
    "register_pipeline_collectors",
]


class Observability:
    """One deployment's observability bundle: registry + tracer.

    Shared by every surface of a deployment: the pipeline's chains
    publish into :attr:`registry` and :attr:`tracer`, the server
    exposes both over HTTP, the cluster aggregates worker metrics into
    the same registry.
    """

    def __init__(
        self,
        registry: Optional[Registry] = None,
        tracer: Optional[Tracer] = None,
        trace_capacity: int = 512,
        max_explanations: int = 8,
    ) -> None:
        self.registry = registry if registry is not None else Registry()
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(capacity=trace_capacity, max_explanations=max_explanations)
        )
        # the histogram families hot-path wrappers observe into
        self.stage_seconds = self.registry.histogram(
            "repro_stage_seconds",
            "Wall time of one stage call (per batch on the batched path)",
            labels=("query", "stage"),
        )
        self.batch_size = self.registry.histogram(
            "repro_batch_size",
            "Events per micro-batch entering the ingress",
            labels=("query",),
            buckets=SIZE_BUCKETS,
        )
        self.queue_wait_seconds = self.registry.histogram(
            "repro_queue_wait_seconds",
            "Event-time wait between enqueue and the drain that closed windows",
            labels=("query",),
            buckets=LATENCY_BUCKETS,
        )
        self.window_size = self.registry.histogram(
            "repro_window_size",
            "Assigned memberships per closed window",
            labels=("query",),
            buckets=SIZE_BUCKETS,
        )

    def summary(self) -> Dict[str, object]:
        """Small health blurb for JSON surfaces (not the full snapshot)."""
        return {
            "enabled": True,
            "traces": len(self.tracer),
            "trace_capacity": self.tracer.capacity,
            "traces_evicted": self.tracer.evicted,
        }


# ----------------------------------------------------------------------
# chain instrumentation
# ----------------------------------------------------------------------
def instrument_chain(chain, obs: Observability) -> None:
    """Replace ``chain``'s dispatch tuples with instrumented composites."""
    query = chain.query.name
    tracer = obs.tracer
    stage_hist = {
        id(stage): obs.stage_seconds.labels(query=query, stage=stage.name)
        for stage in chain.stages
    }
    queue_wait_hist = obs.queue_wait_seconds.labels(query=query)
    window_size_hist = obs.window_size.labels(query=query)

    shed_stage = chain.shedding
    match_stage = chain.match_stage
    emit_stage = chain.emit
    operator = chain.operator

    def shed_after(item, drops, now) -> None:
        """Attach a shed explanation to every dropped membership of ``item``."""
        shedder = shed_stage.shedder
        detector = shed_stage.detector
        predicted = operator.predicted_window_size()
        overloaded = (
            detector.shedding
            if detector is not None
            else bool(shedder is not None and shedder.active)
        )
        qsize = None
        if detector is not None and detector.samples:
            qsize = detector.samples[-1].qsize
        event = item.event
        for ref, drop in zip(item.refs, drops):
            if not drop:
                continue
            info = (
                shedder.explain(event, ref.position, predicted)
                if shedder is not None
                else {"strategy": "unknown"}
            )
            tracer.on_shed(
                query,
                ref.window_id,
                ShedExplanation(
                    time=now,
                    event_type=event.event_type,
                    position=ref.position,
                    predicted_window_size=predicted,
                    overloaded=overloaded,
                    qsize=qsize,
                    **info,
                ),
            )

    def match_after(item, now, found) -> None:
        """Trace the windows a closing item completed."""
        queue_wait_hist.pending.append(now - item.enqueue_time)
        matched: Dict[int, int] = {}
        for complex_event in found:
            wid = complex_event.window_id
            matched[wid] = matched.get(wid, 0) + 1
        for window in item.closed_windows:
            window_size_hist.pending.append(window.size)
            tracer.on_window_closed(
                query, window, now, matches=matched.get(window.window_id, 0)
            )

    def emit_after(found, now) -> None:
        emitted: Dict[int, int] = {}
        for complex_event in found:
            wid = complex_event.window_id
            emitted[wid] = emitted.get(wid, 0) + 1
        for wid, count in emitted.items():
            tracer.on_emitted(query, wid, now, count)

    # Each dispatch step is instrumented as ONE composite closure
    # rather than one wrapper per stage.  Three reasons, all measured
    # against the ≤2% budget at batch=64:
    #
    # - nothing is scanned per event: drop explanations visit only the
    #   ``drops`` column of a batch the shedder dropped from (gated on
    #   the shedder's drop counter), and window/emit traces only the
    #   sparse ``closes`` index.  Both are read inside the egress
    #   composites: the queue may decouple ingress from egress (the
    #   simulation driver processes items long after their arrival),
    #   so nothing the ingress saw can stand in for them.
    # - consecutive stages share one ``perf_counter()`` timestamp (the
    #   end of stage N is the start of stage N+1), halving the clock
    #   reads and dropping four wrapper frames per batch.  After a rare
    #   gated scan the clock is re-read so scan/trace time never
    #   pollutes stage timings.
    # - stage times and batch sizes are not bucketed on the hot path at
    #   all: each observation is a prebound ``pending.append`` (several
    #   times cheaper than the bisect-and-bump), folded into the
    #   buckets by ``Histogram.flush_pending`` at scrape time.  One
    #   length check per batch bounds the buffers between scrapes.
    batch_size_hist = obs.batch_size.labels(query=query)

    ingress_steps = tuple(
        (s.process_batch, stage_hist[id(s)].pending.append)
        for s in chain.ingress
    )
    bs_pending = batch_size_hist.pending
    bs_append = bs_pending.append
    # every hot histogram appends at most a few values per batch, so
    # bounding one buffer (batch size: exactly one append per batch)
    # bounds them all within a small factor
    hot_hists = tuple(stage_hist[id(s)] for s in chain.stages) + (
        batch_size_hist,
        queue_wait_hist,
        window_size_hist,
    )

    def ingress_composite(batch, _steps=ingress_steps):
        bs_append(len(batch.events))
        if len(bs_pending) >= 4096:
            for h in hot_hists:
                h.flush_pending()
        t0 = perf_counter()
        for process, observe in _steps:
            process(batch)
            t1 = perf_counter()
            observe(t1 - t0)
            t0 = t1

    shed_process = shed_stage.process_batch
    shed_observe = stage_hist[id(shed_stage)].pending.append
    match_process = match_stage.process_batch
    match_observe = stage_hist[id(match_stage)].pending.append
    emit_process = emit_stage.process_batch
    emit_observe = stage_hist[id(emit_stage)].pending.append
    # custom egress stages appended after emit, if any
    tail_steps = tuple(
        (s.process_batch, stage_hist[id(s)].pending.append)
        for s in chain.egress
        if s is not shed_stage and s is not match_stage and s is not emit_stage
    )
    # whether the last decide dropped anything: the apply that follows
    # it explains the drops (the two halves always run as a pair)
    dropped = False

    def decide_composite(batch):
        nonlocal dropped
        shedder = shed_stage.shedder
        drops_before = shedder.drops if shedder is not None else 0
        t0 = perf_counter()
        shed_process(batch)
        shed_observe(perf_counter() - t0)
        dropped = shedder is not None and shedder.drops != drops_before

    def apply_composite(batch, _tail=tail_steps):
        nonlocal dropped
        items = batch.items
        nows = batch.nows
        # explanations are written here, not in decide, so they read the
        # clock the driver stamped between the halves
        if dropped:
            dropped = False
            drops = batch.drops
            if drops is not None:
                for i, mask in enumerate(drops):
                    if True in mask:
                        shed_after(items[i], mask, nows[i])
        t0 = perf_counter()
        match_process(batch)
        t1 = perf_counter()
        match_observe(t1 - t0)
        t0 = t1
        emit_process(batch)
        t1 = perf_counter()
        emit_observe(t1 - t0)
        closes = batch.closes
        if closes:
            for i, found in zip(closes, batch.detections):
                now = nows[i]
                match_after(items[i], now, found)
                if found:
                    emit_after(found, now)
            t1 = perf_counter()
        if _tail:
            t0 = t1
            for process, observe in _tail:
                process(batch)
                t1 = perf_counter()
                observe(t1 - t0)
                t0 = t1

    chain._ingress_batch_dispatch = (ingress_composite,)
    chain._decide_dispatch = decide_composite
    chain._apply_dispatch = (apply_composite,)


def deinstrument_chain(chain) -> None:
    """Restore the plain prebound dispatch (obs off)."""
    chain._ingress_batch_dispatch = tuple(
        s.process_batch for s in chain.ingress
    )
    chain._decide_dispatch = chain.shedding.process_batch
    chain._apply_dispatch = tuple(s.process_batch for s in chain.egress[1:])


# ----------------------------------------------------------------------
# pull collectors: stage counters -> registry families, at scrape time
# ----------------------------------------------------------------------
def register_pipeline_collectors(pipeline, registry: Registry) -> Callable[[], None]:
    """Mirror the pipeline's stage counters into registry families.

    Registered on the registry and run at every scrape; the returned
    callback is what ``Pipeline.disable_observability`` unregisters.
    The copied values are exactly the numbers ``Pipeline.metrics()``
    reports (both read the same stage attributes), which is the dedupe
    guarantee the serve regression test pins down.
    """
    events = registry.counter(
        "repro_events_total", "Events offered to each query chain", labels=("query",)
    )
    rejected = registry.counter(
        "repro_rejected_total",
        "Events rejected by admission or a full queue",
        labels=("query",),
    )
    memberships = registry.counter(
        "repro_memberships_total",
        "Window memberships assigned at ingress",
        labels=("query",),
    )
    windows_closed = registry.counter(
        "repro_windows_closed_total", "Windows closed by arrivals", labels=("query",)
    )
    queue_depth = registry.gauge(
        "repro_queue_depth", "Items currently queued", labels=("query",)
    )
    max_queue_depth = registry.gauge(
        "repro_max_queue_depth", "High-water queue depth", labels=("query",)
    )
    shed_decisions = registry.counter(
        "repro_shed_decisions_total",
        "Per-(event, window) shedding decisions taken",
        labels=("query",),
    )
    shed_drops = registry.counter(
        "repro_shed_drops_total", "Memberships dropped by shedding", labels=("query",)
    )
    shedding_active = registry.gauge(
        "repro_shedding_active", "Whether shedding is live (0/1)", labels=("query",)
    )
    drop_rate = registry.gauge(
        "repro_shed_drop_rate",
        "Observed fraction of decisions that dropped",
        labels=("query",),
    )
    windows_completed = registry.counter(
        "repro_windows_completed_total",
        "Windows fully matched by the operator",
        labels=("query",),
    )
    matches = registry.counter(
        "repro_matches_total", "Complex events detected", labels=("query",)
    )
    emitted = registry.counter(
        "repro_emitted_total", "Complex events emitted to sinks", labels=("query",)
    )

    def collect() -> None:
        for chain in pipeline.chains:
            name = chain.query.name
            admission = chain.admission
            assign = chain.window_assign
            events.labels(query=name).set_total(admission.arrivals)
            rejected.labels(query=name).set_total(
                admission.rejected + assign.rejected
            )
            memberships.labels(query=name).set_total(assign.assigned_memberships)
            windows_closed.labels(query=name).set_total(assign.windows_closed)
            queue_depth.labels(query=name).set(chain.queue.size)
            max_queue_depth.labels(query=name).set(assign.max_queue_depth)
            shedder = chain.shedder
            shed_decisions.labels(query=name).set_total(
                shedder.decisions if shedder is not None else 0
            )
            shed_drops.labels(query=name).set_total(
                shedder.drops if shedder is not None else 0
            )
            shedding_active.labels(query=name).set(
                1 if shedder is not None and shedder.active else 0
            )
            drop_rate.labels(query=name).set(
                shedder.observed_drop_rate() if shedder is not None else 0.0
            )
            match_metrics = chain.match_stage.metrics()
            windows_completed.labels(query=name).set_total(
                match_metrics.get("windows_completed", 0)
            )
            matches.labels(query=name).set_total(
                match_metrics.get("complex_events", 0)
            )
            emitted.labels(query=name).set_total(chain.emit.emitted)

    registry.register_collector(collect)
    return collect
