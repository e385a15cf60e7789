"""The operator's input queue.

Entries carry the event together with its window memberships (computed
by the window assigner upstream, see :mod:`repro.cep.windows`) and the
windows whose close was triggered by this event's arrival -- processing
an entry therefore also completes those windows (after applying the
entry's own memberships; a count-based window closes *with* its final
event).

The queue tracks enqueue timestamps so the runtime can measure queuing
latency ``l(q)`` and the overload detector can read the current queue
size ``qsize`` (paper §3.4).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Deque, Iterator, List, Optional, Sequence

from repro.cep.events import Event
from repro.cep.windows import NO_MEMBERSHIPS, Assignment, Memberships, Window


@dataclass(slots=True)
class QueuedItem:
    """One input-queue entry: an event plus its window bookkeeping.

    Slotted: one instance exists per event on the hot path -- with its
    ``refs`` view, the only per-event object the stage chain builds.
    ``refs`` is the assigner's :class:`~repro.cep.windows.Memberships`
    view, so an item's size does not grow with the number of windows its
    event belongs to; ``closed_windows`` is the shared empty tuple for
    the (overwhelmingly common) item whose arrival closed nothing.
    """

    event: Event
    refs: Memberships = NO_MEMBERSHIPS
    closed_windows: Sequence[Window] = ()
    enqueue_time: float = 0.0


def queue_items(
    events: Sequence[Event], nows: Sequence[float], assignment: Assignment
) -> List[QueuedItem]:
    """The queue entries of an assigned batch, one per event.

    ``assignment`` is :meth:`~repro.cep.windows.WindowAssigner.assign`'s
    result for ``events``; ``nows`` are their enqueue times.  Only the
    closing items get a list of closed windows.
    """
    refs, closes, closed = assignment
    items = list(map(QueuedItem, events, refs, repeat(()), nows))
    for i, windows in zip(closes, closed):
        items[i].closed_windows = windows
    return items


class InputQueue:
    """FIFO input queue with size/latency accounting."""

    __slots__ = (
        "_items",
        "capacity",
        "total_enqueued",
        "total_dequeued",
        "total_rejected",
    )

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._items: Deque[QueuedItem] = deque()
        self.capacity = capacity
        self.total_enqueued = 0
        self.total_dequeued = 0
        self.total_rejected = 0

    def push(self, item: QueuedItem) -> bool:
        """Enqueue ``item``; returns False if the queue is at capacity.

        A bounded queue models a system that would crash/backpressure
        without shedding; the default is unbounded (latency grows
        instead, which is what the paper's latency-bound machinery
        reacts to).
        """
        return self.push_all([item]) == 1

    def push_all(self, items: List[QueuedItem]) -> int:
        """Enqueue ``items`` in order, in one step; returns how many fit.

        Nothing drains in between, so once the queue is full every later
        item is rejected too: the rejected ones are the suffix
        ``items[accepted:]``.
        """
        accepted = len(items)
        if self.capacity is not None:
            accepted = max(0, min(accepted, self.capacity - len(self._items)))
            self.total_rejected += len(items) - accepted
            items = items[:accepted]
        self._items.extend(items)
        self.total_enqueued += accepted
        return accepted

    def pop(self) -> QueuedItem:
        """Dequeue the oldest item (raises ``IndexError`` when empty)."""
        item = self._items.popleft()
        self.total_dequeued += 1
        return item

    def take(self, count: int) -> List[QueuedItem]:
        """Dequeue the ``count`` oldest items at once (a drained segment)."""
        popleft = self._items.popleft
        items = [popleft() for _ in range(count)]
        self.total_dequeued += count
        return items

    def consume_all(self) -> int:
        """Dequeue everything without materialising the items.

        For batched callers that already hold the items (they travel in
        the stage batch's ``items`` column); returns how many were
        consumed.
        """
        count = len(self._items)
        self._items.clear()
        self.total_dequeued += count
        return count

    def peek(self) -> Optional[QueuedItem]:
        """The oldest item without removing it, or ``None``."""
        return self._items[0] if self._items else None

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[QueuedItem]:
        """The queued items, oldest first (do not mutate while iterating)."""
        return iter(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    @property
    def size(self) -> int:
        """Current queue size ``qsize`` (paper §3.4)."""
        return len(self._items)

    def clear(self) -> None:
        """Drop every queued item (used between experiment runs)."""
        self._items.clear()
