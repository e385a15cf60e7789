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
from dataclasses import dataclass, field
from typing import Deque, Iterator, List, Optional

from repro.cep.events import Event
from repro.cep.windows import NO_MEMBERSHIPS, Memberships, Window


@dataclass(slots=True)
class QueuedItem:
    """One input-queue entry: an event plus its window bookkeeping.

    Slotted: one instance exists per event on the hot path, and slots
    cut both the allocation cost and the attribute-access cost of the
    stage chain that threads it through.  ``refs`` is the assigner's
    :class:`~repro.cep.windows.Memberships` view, so an item's size does
    not grow with the number of windows its event belongs to.
    """

    event: Event
    refs: Memberships = NO_MEMBERSHIPS
    closed_windows: List[Window] = field(default_factory=list)
    enqueue_time: float = 0.0


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
        if self.capacity is not None and len(self._items) >= self.capacity:
            self.total_rejected += 1
            return False
        self._items.append(item)
        self.total_enqueued += 1
        return True

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

    def pop_all(self) -> List[QueuedItem]:
        """Dequeue every item at once (the batched path's single drain).

        One bulk operation instead of a pop-per-item loop; dequeue
        accounting matches popping each item individually.
        """
        items = list(self._items)
        self._items.clear()
        self.total_dequeued += len(items)
        return items

    def consume_all(self) -> int:
        """Dequeue everything without materialising the items.

        For batched callers that already hold the items (they travel on
        the stage contexts); returns how many were consumed.
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
