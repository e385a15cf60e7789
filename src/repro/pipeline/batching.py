"""Micro-batching of the pipeline's event path.

A stage chain pays interpreter constants -- stage dispatch, context
allocation, queue round-trips -- once per batch it is handed.
Micro-batching amortises them: events are accumulated into
:class:`EventBatch` objects under the classic *size-or-linger* rule
(mirroring :class:`repro.cluster.transport.BatchingSender`, but in
event time so replays stay deterministic) and each stage processes the
whole batch in one call (:meth:`repro.pipeline.stages.Stage.process_batch`).

The batch is the only unit of execution: ``batch_size=1`` hands the
same stage bodies batches of one event -- there is no other path.
Batch size is semantically transparent: detections are bit-for-bit
identical, and identically ordered, at every size (property-tested
across sizes {1, 2, 7, 64, 1000}).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional

from repro.cep.events import Event
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


def iter_batches(
    stream: Iterable[Event], batch_size: int, linger: float = 0.0
) -> Iterator[EventBatch]:
    """Chop ``stream`` into :class:`EventBatch` objects (replay clocks).

    Each event's clock is its own timestamp -- the convention of
    ``Pipeline.run``.  Used by batch replays that need no tick
    interleaving (e.g. the sharded router).
    """
    batcher = MicroBatcher(batch_size, linger)
    for event in stream:
        batch = batcher.add(event, event.timestamp)
        if batch is not None:
            yield batch
    tail = batcher.take()
    if tail is not None:
        yield tail


class StageBatch:
    """One :class:`EventBatch` threaded through a stage chain.

    Wraps the per-event :class:`StageContext` objects so a stage
    processes them in one call: a stage vetoing an event marks its
    context ``stopped`` and every later stage skips it (what the base
    class makes of a custom stage's ``on_event`` returning ``False``).
    """

    __slots__ = ("contexts",)

    def __init__(self, contexts: List[StageContext]) -> None:
        self.contexts = contexts

    @classmethod
    def from_events(cls, batch: EventBatch) -> "StageBatch":
        return cls(
            [
                StageContext(event, now)
                for event, now in zip(batch.events, batch.nows)
            ]
        )

    @classmethod
    def from_items(cls, items: Iterable[QueuedItem]) -> "StageBatch":
        """Contexts for dequeued items, for an egress driver to run.

        Each clock starts at 0.0: the driver stamps ``ctx.now`` with the
        item's start once it knows it.
        """
        return cls([StageContext(item.event, 0.0, item) for item in items])

    def __len__(self) -> int:
        return len(self.contexts)

    def live(self) -> Iterator[StageContext]:
        """The contexts no stage has vetoed yet, in stream order."""
        return (ctx for ctx in self.contexts if not ctx.stopped)
