"""Middleware stages of the pipeline's event path.

A :class:`~repro.pipeline.pipeline.Pipeline` routes every input event
through an explicit chain of stages (the middleware idiom of web
frameworks, applied to a CEP operator)::

    AdmissionStage -> [custom ingress stages] -> WindowAssignStage
        ||  (input queue)
    SheddingStage -> MatchStage -> EmitStage -> [custom egress stages]

The queue splits the chain into an *ingress* half (runs at arrival
time: admission control, user middleware, window assignment, enqueue)
and an *egress* half (runs when the operator picks the items up:
shedding decisions, pattern matching, emission).  Live feeds drain the
queue synchronously; the virtual-time simulation driver
(:func:`repro.runtime.simulation.simulate_pipeline`) schedules the two
halves itself, which is how the same chain serves both push-based
ingestion and deterministic replay.

Every stage implements the common :class:`Stage` protocol --
``process_batch`` / ``on_tick`` / ``metrics`` -- so cross-cutting
concerns (rate limiting, sampling, logging, ...) drop into the chain
exactly like framework middleware.  ``process_batch`` is the one way an
event moves through a chain: every driver hands stages a
:class:`~repro.pipeline.batching.StageBatch` -- the micro-batch as
parallel columns (a batch of one *is* per-event execution) -- and the
core stages loop those columns: the window-assign stage assigns and
enqueues the batch in one step, the shedding stage flattens the
memberships of its items, the match and emit stages visit only the
items that closed windows.  No per-event object is built beyond the
queue entry and its memberships view.  A user-written stage may implement the simpler per-event
``on_event(ctx)`` instead: the base class builds a
:class:`StageContext` per live event for that stage alone and writes
its vetoes and replaced events back into the columns;
:class:`RateLimitStage`, :class:`SamplingStage` and
:class:`LoggingStage` are ready-made examples.
"""

from __future__ import annotations

import logging
import random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.cep.events import ComplexEvent, Event
from repro.cep.operator.operator import CEPOperator
from repro.cep.operator.queue import InputQueue, QueuedItem, queue_items
from repro.cep.windows import Window, WindowAssigner
from repro.core.overload import OverloadDetector
from repro.shedding.base import LoadShedder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.batching import StageBatch

#: Signature of a complex-event subscriber attached to the emit stage.
EventSink = Callable[[ComplexEvent], None]


class StageContext:
    """One event's view of a :class:`~repro.pipeline.batching.StageBatch`.

    Built from the batch's columns for user stages that think per event
    (``on_event``, or ``StageBatch.contexts``): :attr:`event` and
    :attr:`now`, the queue entry :attr:`item` once the window-assign
    stage ran, the drop mask :attr:`drops` once the shedding stage ran
    (``None``: nothing dropped) and the :attr:`complex_events` the item
    completed once the match stage ran.  :attr:`stopped` is the veto
    marker.  An ``on_event`` stage may replace :attr:`event` or return
    ``False``; both are written back into the columns.
    """

    __slots__ = ("event", "now", "item", "drops", "complex_events", "stopped")

    def __init__(
        self,
        event: Optional[Event] = None,
        now: float = 0.0,
        item: Optional[QueuedItem] = None,
    ) -> None:
        self.event = event
        self.now = now
        self.item = item
        self.drops: Optional[List[bool]] = None
        self.complex_events: Sequence[ComplexEvent] = ()
        self.stopped = False


class Stage:
    """Base middleware stage: ``process_batch`` / ``on_tick`` / ``metrics``.

    ``process_batch`` is the contract the chain calls.  Stages that
    think per event override ``on_event`` instead and return ``False``
    to stop the chain for this event (sampling drop, rate limit, ...);
    anything else continues.  ``on_tick`` receives the advancing
    (virtual or event) time so periodic work -- overload checks, token
    refills -- happens without piggybacking on event arrivals.
    ``metrics`` reports the stage's counters; the pipeline aggregates
    them per query chain, so backpressure and drop behaviour are
    observable per stage.
    """

    __slots__ = ()

    #: Stable name used as the metrics key; subclasses override.
    name: str = "stage"

    def on_event(self, ctx: StageContext) -> bool:
        return True

    def process_batch(self, batch: "StageBatch") -> None:
        """Process a micro-batch (see :mod:`.batching`).

        The default adapts :meth:`on_event`: it builds a context per
        live event, in stream order, and writes a veto (``False``) and a
        replaced ``ctx.event`` back into the batch's columns, so custom
        stages that never heard of columns keep their exact per-event
        semantics.  The core stages override this directly.
        """
        stopped = batch.stopped
        live: Sequence[int] = (
            range(len(batch.events))
            if stopped is None
            else [i for i, vetoed in enumerate(stopped) if not vetoed]
        )
        events = batch.events
        on_event = self.on_event
        for i, ctx in zip(live, batch.contexts_at(live)):
            if on_event(ctx) is False:
                batch.stop(i)
            elif ctx.event is not events[i]:
                events[i] = ctx.event

    def on_tick(self, now: float) -> None:
        pass

    def metrics(self) -> Dict[str, object]:
        return {}


# ----------------------------------------------------------------------
# the five core stages
# ----------------------------------------------------------------------
class AdmissionStage(Stage):
    """Entry of the chain: arrival accounting and admission control.

    Counts every offered event, feeds the overload detector's
    input-rate estimator, and -- when a queue capacity is configured --
    rejects events that would overflow the queue (reported as
    backpressure instead of unbounded latency growth).
    """

    name = "admission"

    __slots__ = ("queue", "capacity", "detector", "arrivals", "rejected")

    def __init__(
        self, queue: InputQueue, capacity: Optional[int] = None
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.queue = queue
        self.capacity = capacity
        self.detector: Optional[OverloadDetector] = None
        self.arrivals = 0
        self.rejected = 0

    def process_batch(self, batch: "StageBatch") -> None:
        nows = batch.nows
        self.arrivals += len(nows)
        capacity = self.capacity
        # the depth only moves between batches (enqueue is a later
        # stage), which is why drivers hand a bounded chain batches of
        # one
        if capacity is not None and self.queue.size >= capacity:
            self.rejected += len(nows)
            batch.stopped = [True] * len(nows)
        elif self.detector is not None:
            record = self.detector.record_arrival
            for now in nows:
                record(now)

    def metrics(self) -> Dict[str, object]:
        return {
            "arrivals": self.arrivals,
            "rejected": self.rejected,
            "queue_depth": self.queue.size,
        }


class WindowAssignStage(Stage):
    """Window assignment at arrival, then enqueue (paper §2).

    Window membership is a pure function of the raw stream and happens
    *before* the queue -- the shedder later drops an event from
    individual windows, not from the stream -- so this stage converts
    each event into a :class:`QueuedItem` carrying its memberships and
    any windows its arrival closed, and pushes the batch's items onto
    the input queue.
    """

    name = "window_assign"

    __slots__ = (
        "assigner",
        "queue",
        "operator",
        "assigned_memberships",
        "windows_closed",
        "rejected",
        "max_queue_depth",
    )

    def __init__(self, assigner: WindowAssigner, queue: InputQueue) -> None:
        self.assigner = assigner
        self.queue = queue
        # wired by the chain: an item whose enqueue fails is already in
        # the assigner's arrival log, so the operator that will complete
        # its windows must be told to leave it out
        self.operator: CEPOperator
        self.assigned_memberships = 0
        self.windows_closed = 0
        self.rejected = 0
        self.max_queue_depth = 0

    def process_batch(self, batch: "StageBatch") -> None:
        """Assign the batch's live events and enqueue their items in one step.

        Fills the ``items`` column with the enqueued events' queue
        entries and ``closes`` with the (sparse) indices of the items
        whose arrival closed windows.
        """
        events = batch.events
        nows = batch.nows
        stopped = batch.stopped
        live: Optional[List[int]] = None
        if stopped is not None:
            live = [i for i, vetoed in enumerate(stopped) if not vetoed]
            events = [events[i] for i in live]
            nows = [nows[i] for i in live]
        assignment = self.assigner.assign(events)
        items = queue_items(events, nows, assignment)
        refs, closes, closed = assignment
        self.assigned_memberships += sum([len(r.ids) for r in refs])
        self.windows_closed += sum(map(len, closed))
        accepted = self.queue.push_all(items)
        if accepted < len(items):
            # the full queue refused the suffix: those items are already
            # in the assigner's arrival log, so the operator that will
            # complete their windows is told to leave them out
            for k in range(accepted, len(items)):
                self.rejected += 1
                self.operator.discard(items[k])
                batch.stop(k if live is None else live[k])
            del items[accepted:]
            closes = [i for i in closes if i < accepted]
        batch.items = items
        batch.closes = closes
        # the queue only grows during ingress, so the depth after the
        # push is the batch's maximum
        depth = self.queue.size
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth

    def flush(self) -> List[Window]:
        """Close every still-open window (end of stream)."""
        return self.assigner.flush()

    def metrics(self) -> Dict[str, object]:
        return {
            "memberships": self.assigned_memberships,
            "windows_closed": self.windows_closed,
            "rejected": self.rejected,
            "max_queue_depth": self.max_queue_depth,
        }


class SheddingStage(Stage):
    """Per-membership drop decisions plus overload-detector duty.

    Owns the chain's load shedder and overload detector.  Per batch it
    asks the shedder, per (event, window) membership, whether to drop
    (an O(1) decision, paper §3.5) and stores the verdicts in the
    batch's ``drops`` column for the match stage to apply.  Per tick it
    runs the detector's periodic queue check (paper §3.4), which
    activates/deactivates the shedder and renews its drop command.
    """

    name = "shedding"

    __slots__ = ("shedder", "detector", "operator", "queue")

    def __init__(
        self,
        shedder: Optional[LoadShedder] = None,
        detector: Optional[OverloadDetector] = None,
    ) -> None:
        self.shedder = shedder
        self.detector = detector
        # wired by the chain before any batch: decisions scale positions
        # against the match operator's predicted window size, checks
        # read the queue
        self.operator: CEPOperator
        self.queue: Optional[InputQueue] = None

    def process_batch(self, batch: "StageBatch") -> None:
        """Resolve every (event, window) pair of the batch in one pass.

        The caller guarantees one shared predictor state for the batch
        (the chain cuts batches into segments at window completions), so
        a single window-size prediction covers every pair and the
        shedder's vectorized kernel resolves the whole drop mask at once.
        """
        shedder = self.shedder
        if shedder is None or not getattr(shedder, "active", True):
            return  # nothing is dropped: ``batch.drops`` stays None
        batch.drops = self.operator.decide_batch(batch.items, shedder=shedder)

    def on_tick(self, now: float) -> None:
        if self.detector is not None and self.queue is not None:
            self.detector.check(now, self.queue.size)

    def metrics(self) -> Dict[str, object]:
        if self.shedder is None:
            return {"active": False, "decisions": 0, "drops": 0}
        return {
            "active": self.shedder.active,
            "decisions": self.shedder.decisions,
            "drops": self.shedder.drops,
            "drop_rate": self.shedder.observed_drop_rate(),
        }


class MatchStage(Stage):
    """The CEP operator: drop records and pattern matching.

    Hands the shedding stage's decisions to the operator (which records
    the dropped positions per window) and, at the items that closed
    windows, runs the query's matcher over their kept contents; the
    complex events land in the batch's ``detections`` column.
    """

    name = "match"

    __slots__ = ("operator",)

    def __init__(self, operator: CEPOperator) -> None:
        self.operator = operator

    def process_batch(self, batch: "StageBatch") -> None:
        batch.detections = self.operator.apply_batch(
            batch.items, batch.drops, batch.closes, batch.nows
        )

    def flush(self, windows: List[Window], now: float) -> List[ComplexEvent]:
        """Complete still-open windows at end of stream."""
        return self.operator.flush(windows, now=now)

    def metrics(self) -> Dict[str, object]:
        stats = self.operator.stats
        return {
            "events_processed": stats.events_processed,
            "memberships_kept": stats.memberships_kept,
            "memberships_dropped": stats.memberships_dropped,
            "windows_completed": stats.windows_completed,
            "complex_events": stats.complex_events,
            "drop_ratio": stats.drop_ratio(),
        }


class EmitStage(Stage):
    """Exit of the chain: fan out complex events, optionally collect.

    Notifies subscribed sinks (callbacks) -- the hook a downstream
    operator, dashboard or alerting integration attaches to.  While
    :attr:`retain` is set (``Pipeline.run`` sets it for the duration of
    a batch replay) detections are also collected for the result
    object; push-based ``feed()`` and the simulation driver leave it
    off, so a long-running live deployment does not accumulate
    detections unboundedly.
    """

    name = "emit"

    __slots__ = ("sinks", "collected", "retain", "emitted")

    def __init__(self, sinks: Optional[List[EventSink]] = None) -> None:
        self.sinks: List[EventSink] = list(sinks or [])
        self.collected: List[ComplexEvent] = []
        self.retain = False
        self.emitted = 0

    def subscribe(self, sink: EventSink) -> None:
        self.sinks.append(sink)

    def process_batch(self, batch: "StageBatch") -> None:
        for found in batch.detections:
            if found:
                self.dispatch(found)

    def dispatch(self, complex_events: List[ComplexEvent]) -> None:
        """Record and fan out detections (also used by the flush path)."""
        if self.retain:
            self.collected.extend(complex_events)
        self.emitted += len(complex_events)
        for sink in self.sinks:
            for complex_event in complex_events:
                sink(complex_event)

    def drain_collected(self) -> List[ComplexEvent]:
        """Return and clear the collected detections."""
        collected = self.collected
        self.collected = []
        return collected

    def metrics(self) -> Dict[str, object]:
        return {"emitted": self.emitted, "sinks": len(self.sinks)}


# ----------------------------------------------------------------------
# ready-made custom stages (the middleware extension point)
# ----------------------------------------------------------------------
class LoggingStage(Stage):
    """Observability middleware: per-type counts plus optional logging."""

    # ``name`` is an instance slot here (configurable per stage); the
    # base class attribute still provides the "stage" fallback.
    __slots__ = ("name", "logger", "level", "seen", "by_type")

    def __init__(
        self,
        logger: Optional[logging.Logger] = None,
        level: int = logging.DEBUG,
        name: str = "logging",
    ) -> None:
        self.name = name
        self.logger = logger
        self.level = level
        self.seen = 0
        self.by_type: Dict[str, int] = {}

    def on_event(self, ctx: StageContext) -> bool:
        self.seen += 1
        event_type = ctx.event.event_type
        self.by_type[event_type] = self.by_type.get(event_type, 0) + 1
        if self.logger is not None:
            self.logger.log(
                self.level, "event %s seq=%d t=%.3f", event_type, ctx.event.seq, ctx.now
            )
        return True

    def metrics(self) -> Dict[str, object]:
        return {"seen": self.seen, "by_type": dict(self.by_type)}


class SamplingStage(Stage):
    """Input sampling middleware: keep each event with probability ``p``."""

    name = "sampling"

    __slots__ = ("keep_probability", "_rng", "kept", "dropped")

    def __init__(self, keep_probability: float, seed: int = 0) -> None:
        if not 0.0 <= keep_probability <= 1.0:
            raise ValueError("keep probability must lie in [0, 1]")
        self.keep_probability = keep_probability
        self._rng = random.Random(seed)
        self.kept = 0
        self.dropped = 0

    def on_event(self, ctx: StageContext) -> bool:
        if self._rng.random() < self.keep_probability:
            self.kept += 1
            return True
        self.dropped += 1
        return False

    def metrics(self) -> Dict[str, object]:
        return {"kept": self.kept, "dropped": self.dropped}


class RateLimitStage(Stage):
    """Token-bucket rate limiting middleware (events/second of stream time).

    A coarse admission guard upstream of the window assigner -- unlike
    load shedding it is utility-blind, which makes it the right tool
    only for abusive sources, not for overload quality control.
    """

    name = "rate_limit"

    __slots__ = ("rate", "burst", "_tokens", "_last_refill", "passed", "limited")

    def __init__(self, events_per_second: float, burst: Optional[float] = None) -> None:
        if events_per_second <= 0.0:
            raise ValueError("rate limit must be positive")
        self.rate = events_per_second
        self.burst = burst if burst is not None else events_per_second
        self._tokens = self.burst
        self._last_refill: Optional[float] = None
        self.passed = 0
        self.limited = 0

    def _refill(self, now: float) -> None:
        if self._last_refill is None:
            self._last_refill = now
            return
        elapsed = max(0.0, now - self._last_refill)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._last_refill = now

    def on_event(self, ctx: StageContext) -> bool:
        self._refill(ctx.now)
        # epsilon absorbs float drift from repeated elapsed-time sums
        if self._tokens >= 1.0 - 1e-9:
            self._tokens = max(0.0, self._tokens - 1.0)
            self.passed += 1
            return True
        self.limited += 1
        return False

    def on_tick(self, now: float) -> None:
        self._refill(now)

    def metrics(self) -> Dict[str, object]:
        return {"passed": self.passed, "limited": self.limited, "tokens": self._tokens}
