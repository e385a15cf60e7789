"""Micro-batching of the pipeline's event path, as parallel columns.

A stage chain pays interpreter constants -- stage dispatch, queue
round-trips -- once per batch it is handed.  Micro-batching amortises
them: events are accumulated into :class:`EventBatch` objects under the
classic *size-or-linger* rule (mirroring
:class:`repro.cluster.transport.BatchingSender`, but in event time so
replays stay deterministic) and each stage processes the whole batch in
one call (:meth:`repro.pipeline.stages.Stage.process_batch`).

What travels through the chain is a :class:`StageBatch`: parallel
columns (``events``, ``nows``, ``items``, ``drops``, ``stopped``) plus
the sparse ``closes`` index of the items whose arrival closed windows
and the detections per closing item.  The core stages loop columns;
per event the chain builds only the queue entry and its memberships
view.  A per-event :class:`~repro.pipeline.stages.StageContext` exists
only for a user stage that asks for one (``StageBatch.contexts``).

The batch is the only unit of execution: ``batch_size=1`` hands the
same stage bodies batches of one event -- there is no other path.
Batch size is semantically transparent: detections are bit-for-bit
identical, and identically ordered, at every size (property-tested
across sizes {1, 2, 7, 64, 1000}).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cep.events import ComplexEvent, Event
from repro.cep.operator.operator import Drops
from repro.cep.operator.queue import QueuedItem
from repro.pipeline.stages import StageContext


@dataclass(slots=True)
class EventBatch:
    """An ordered slice of the input stream plus per-event clocks.

    ``nows[i]`` is the time at which ``events[i]`` is (or was) fed --
    the event's own timestamp in replay mode, the explicit feed time in
    live mode.  Keeping the per-event clock is what lets a batch of any
    size stamp detections and enqueue times exactly like batches of one.
    """

    events: List[Event] = field(default_factory=list)
    nows: List[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def append(self, event: Event, now: float) -> None:
        self.events.append(event)
        self.nows.append(now)


class MicroBatcher:
    """Size-or-linger accumulator of :class:`EventBatch` objects.

    ``add`` buffers one event and returns the completed batch when the
    buffer reached ``batch_size`` or the oldest buffered event has
    waited ``linger`` (event-time) seconds; ``take`` flushes whatever
    is pending (tick boundaries, end of stream).  A feeder that is
    handed whole slices buffers a run the batch has room for with one
    ``extend`` and cuts the pending batch itself (``split``) where a
    tick or the linger bound falls inside the run.
    """

    __slots__ = ("batch_size", "linger", "pending")

    def __init__(self, batch_size: int, linger: float = 0.0) -> None:
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        if linger < 0.0:
            raise ValueError("linger must be non-negative")
        self.batch_size = batch_size
        self.linger = linger
        #: the batch being filled; ``pending.nows[0]`` is the clock of
        #: the oldest buffered event, which the linger bound counts from
        self.pending = EventBatch()

    def __len__(self) -> int:
        return len(self.pending)

    def __bool__(self) -> bool:
        return bool(self.pending)

    def add(self, event: Event, now: float) -> Optional[EventBatch]:
        """Buffer one event; return the batch if it is due for flush."""
        batch = self.pending
        batch.append(event, now)
        if len(batch.events) >= self.batch_size:
            return self.take()
        if self.linger > 0.0 and now - batch.nows[0] >= self.linger:
            return self.take()
        return None

    def extend(self, events: List[Event], nows: List[float]) -> None:
        """Buffer a run, with its clocks, that the pending batch has room for."""
        self.pending.events.extend(events)
        self.pending.nows.extend(nows)

    def take(self) -> Optional[EventBatch]:
        """Flush and return the pending batch (``None`` when empty)."""
        if not self.pending.events:
            return None
        batch = self.pending
        self.pending = EventBatch()
        return batch

    def split(self, count: int) -> EventBatch:
        """Flush the ``count`` oldest buffered events; the rest stay pending."""
        batch = self.pending
        self.pending = EventBatch(batch.events[count:], batch.nows[count:])
        del batch.events[count:], batch.nows[count:]
        return batch


class StageBatch:
    """One micro-batch threaded through a stage chain, as parallel columns.

    Aligned with the batch's events, in stream order:

    - ``events`` / ``nows``: each event and its clock (arrival time at
      ingress, start time once the virtual-time driver priced it);
    - ``stopped``: the veto marks, ``None`` while no stage vetoed
      anything (:meth:`stop` creates them).

    Filled by the window-assign stage and read by the egress:

    - ``items``: the queue entries of the enqueued events, in order --
      aligned with ``events`` unless an event was vetoed, so always on
      an egress batch (:meth:`admitted`);
    - ``closes``: the sparse indices of the items whose arrival closed
      windows;
    - ``drops``: the shedding stage's masks, one per item
      (:data:`~repro.cep.operator.operator.Drops`: ``None`` when nothing
      was dropped);
    - ``detections``: the complex events per closing item, aligned with
      ``closes`` (filled by the match stage).
    """

    __slots__ = ("events", "nows", "stopped", "items", "drops", "closes", "detections")

    def __init__(
        self,
        events: List[Event],
        nows: List[float],
        items: Optional[List[QueuedItem]] = None,
        closes: Optional[List[int]] = None,
    ) -> None:
        self.events = events
        self.nows = nows
        self.stopped: Optional[List[bool]] = None
        self.items: List[QueuedItem] = items if items is not None else []
        self.closes: List[int] = closes if closes is not None else []
        self.drops: Drops = None
        self.detections: List[List[ComplexEvent]] = []

    @classmethod
    def from_events(cls, batch: EventBatch) -> "StageBatch":
        # the events column is the chain's own: an ingress stage may
        # replace an event, and every chain of a fan-out reads ``batch``
        return cls(list(batch.events), batch.nows)

    def __len__(self) -> int:
        return len(self.events)

    def stop(self, index: int) -> None:
        """Veto event ``index``: every later stage skips it."""
        stopped = self.stopped
        if stopped is None:
            stopped = self.stopped = [False] * len(self.events)
        stopped[index] = True

    def admitted(self) -> "StageBatch":
        """The egress batch: the enqueued items, without the vetoed events."""
        if self.stopped is None:
            return self
        items = self.items
        return StageBatch(
            [item.event for item in items],
            [item.enqueue_time for item in items],
            items,
            self.closes,
        )

    @property
    def complex_events(self) -> List[ComplexEvent]:
        """Every detection of the batch, in order."""
        detections = self.detections
        if len(detections) == 1:
            return detections[0]
        return [complex_event for found in detections for complex_event in found]

    @property
    def contexts(self) -> List[StageContext]:
        """One :class:`StageContext` per event, built from the columns.

        For user stages that override ``process_batch`` and think per
        event; the view is read-only (veto with :meth:`stop`).
        """
        return self.contexts_at(range(len(self.events)))

    def contexts_at(self, indices: Sequence[int]) -> List[StageContext]:
        """Contexts for the events at ``indices`` (in the given order)."""
        events, nows, drops, stopped = self.events, self.nows, self.drops, self.stopped
        items = self.items if len(self.items) == len(events) else None
        found: Dict[int, List[ComplexEvent]] = dict(zip(self.closes, self.detections))
        contexts: List[StageContext] = []
        for i in indices:
            ctx = StageContext(events[i], nows[i], items[i] if items else None)
            if drops is not None:
                ctx.drops = drops[i]
            if stopped is not None:
                ctx.stopped = stopped[i]
            if i in found:
                ctx.complex_events = found[i]
            contexts.append(ctx)
        return contexts
