"""Primitive events, complex events and ordered event streams.

The event model follows Section 2 of the eSPICE paper: a primitive event
carries *meta-data* (event type, sequence number, timestamp) and
*attribute-value pairs* (the payload, e.g. a stock quote or a player
position).  Events in a stream have a global order, established by the
sequence number (with the timestamp available as a secondary notion of
time for time-based windows).

A *complex event* represents a detected situation: it references the
primitive events that were correlated to produce it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class EventType:
    """Interned, hashable event type.

    Event types are compared by name.  An :class:`EventTypeRegistry`
    assigns each type a dense integer id so that utility tables can be
    indexed by integers rather than strings.
    """

    __slots__ = ("name", "type_id")

    def __init__(self, name: str, type_id: int = -1) -> None:
        self.name = name
        self.type_id = type_id

    def __repr__(self) -> str:
        return f"EventType({self.name!r}, id={self.type_id})"

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventType):
            return self.name == other.name
        if isinstance(other, str):
            return self.name == other
        return NotImplemented


class EventTypeRegistry:
    """Assigns dense integer ids to event type names.

    eSPICE's utility table is an ``M x N`` matrix where ``M`` is the
    number of distinct event types.  The registry provides the mapping
    between type names and the row indices of that matrix.
    """

    __slots__ = ("_by_name", "_by_id")

    def __init__(self) -> None:
        self._by_name: Dict[str, EventType] = {}
        self._by_id: List[EventType] = []

    def intern(self, name: str) -> EventType:
        """Return the registered type for ``name``, creating it if new."""
        etype = self._by_name.get(name)
        if etype is None:
            etype = EventType(name, type_id=len(self._by_id))
            self._by_name[name] = etype
            self._by_id.append(etype)
        return etype

    def get(self, name: str) -> Optional[EventType]:
        """Return the registered type for ``name`` or ``None``."""
        return self._by_name.get(name)

    def id_of(self, name: str) -> int:
        """Return the dense id for ``name`` (interning it if needed)."""
        return self.intern(name).type_id

    def name_of(self, type_id: int) -> str:
        """Return the name registered under ``type_id``."""
        return self._by_id[type_id].name

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[EventType]:
        return iter(self._by_id)


@dataclass(frozen=True, slots=True)
class Event:
    """A primitive event.

    Attributes
    ----------
    event_type:
        The type name, e.g. a stock symbol or ``"STR"``/``"DF3"`` in the
        soccer workload.
    seq:
        Global sequence number; establishes the total order of the
        stream (ties broken by the source).
    timestamp:
        Event time in (virtual) seconds.
    attrs:
        The attribute-value payload.
    """

    event_type: str
    seq: int
    timestamp: float
    attrs: Dict[str, Any] = field(default_factory=dict, compare=False, hash=False)

    def attr(self, key: str, default: Any = None) -> Any:
        """Return attribute ``key`` or ``default``."""
        return self.attrs.get(key, default)

    def __reduce__(self):
        # (cls, fields): the frozen+slots dataclass default goes through
        # copyreg plus a state dict per object -- 4x dearer on the IPC hop
        return (Event, (self.event_type, self.seq, self.timestamp, self.attrs))

    def __lt__(self, other: "Event") -> bool:
        return (self.seq, self.timestamp) < (other.seq, other.timestamp)

    def __repr__(self) -> str:  # compact, used heavily in test output
        return f"{self.event_type}@{self.seq}"


@dataclass(frozen=True, slots=True)
class ComplexEvent:
    """A detected situation: an ordered tuple of contributing events.

    Complex events are identified (for quality accounting) by the window
    they were detected in plus the sequence numbers of their constituent
    primitive events; two detections of the same constituent set in the
    same window are the same complex event.
    """

    pattern_name: str
    window_id: int
    events: Tuple[Event, ...]
    detection_time: float = 0.0

    @property
    def key(self) -> Tuple[str, int, Tuple[int, ...]]:
        """Identity used when comparing against a ground-truth run."""
        return (self.pattern_name, self.window_id, tuple(e.seq for e in self.events))

    @property
    def positions(self) -> Tuple[int, ...]:
        """Sequence numbers of the constituent primitive events."""
        return tuple(e.seq for e in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __reduce__(self):
        # see Event.__reduce__
        return (
            ComplexEvent,
            (self.pattern_name, self.window_id, self.events, self.detection_time),
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(e) for e in self.events)
        return f"Complex[{self.pattern_name}|w{self.window_id}]({inner})"


class EventStream:
    """An ordered, replayable stream of primitive events.

    The stream is backed by a list so that ground-truth and shedding
    runs can replay exactly the same input.  Events must be appended in
    global order (non-decreasing sequence number).
    """

    __slots__ = ("_events", "_types")

    def __init__(self, events: Optional[Iterable[Event]] = None) -> None:
        self._events: List[Event] = []
        self._types = EventTypeRegistry()
        if events is not None:
            for event in events:
                self.append(event)

    @property
    def types(self) -> EventTypeRegistry:
        """Registry of every event type seen on this stream."""
        return self._types

    def append(self, event: Event) -> None:
        """Append ``event``; raises ``ValueError`` on order violation."""
        if self._events and event.seq < self._events[-1].seq:
            raise ValueError(
                f"stream order violated: seq {event.seq} after {self._events[-1].seq}"
            )
        self._types.intern(event.event_type)
        self._events.append(event)

    def extend(self, events: Iterable[Event]) -> None:
        """Append every event of ``events`` in order."""
        for event in events:
            self.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def slice(self, start: int, stop: int) -> List[Event]:
        """Events with list positions in ``[start, stop)``."""
        return self._events[start:stop]

    def duration(self) -> float:
        """Timestamp span of the stream in seconds (0 for empty)."""
        if not self._events:
            return 0.0
        return self._events[-1].timestamp - self._events[0].timestamp

    def rate(self) -> float:
        """Average event rate (events/second) over the stream."""
        span = self.duration()
        if span <= 0.0:
            return float(len(self._events))
        return len(self._events) / span

    def type_names(self) -> List[str]:
        """Distinct event type names, in first-seen order."""
        return [t.name for t in self._types]


class StreamBuilder:
    """Convenience builder that assigns sequence numbers automatically.

    Useful in tests and synthetic dataset generators::

        sb = StreamBuilder(rate=10.0)
        sb.emit("A", price=3.0)
        sb.emit("B")
        stream = sb.stream
    """

    __slots__ = ("_interval", "_time", "_seq", "stream")

    def __init__(self, rate: float = 1.0, start_time: float = 0.0) -> None:
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        self._interval = 1.0 / rate
        self._time = start_time
        self._seq = itertools.count()
        self.stream = EventStream()

    def emit(self, event_type: str, at: Optional[float] = None, **attrs: Any) -> Event:
        """Append one event of ``event_type`` and return it."""
        if at is not None:
            self._time = at
        event = Event(event_type, next(self._seq), self._time, dict(attrs))
        self.stream.append(event)
        self._time += self._interval
        return event

    def emit_many(self, event_types: Iterable[str]) -> List[Event]:
        """Append one event per name in ``event_types``."""
        return [self.emit(name) for name in event_types]


def merge_streams(*streams: EventStream) -> EventStream:
    """Merge streams by timestamp (stable on ties), re-assigning seq numbers.

    Models the global ordering performed upstream of the operator when
    several sources feed it (paper §2: "events in the input event
    streams have global order").
    """
    merged = sorted(
        (event for stream in streams for event in stream),
        key=lambda e: (e.timestamp, e.seq),
    )
    out = EventStream()
    for new_seq, event in enumerate(merged):
        out.append(Event(event.event_type, new_seq, event.timestamp, event.attrs))
    return out


def filter_stream(stream: EventStream, predicate: Callable[[Event], bool]) -> EventStream:
    """Return a new stream with only the events satisfying ``predicate``.

    Sequence numbers are preserved (gaps are fine: windows and the
    matcher only rely on relative order).
    """
    return EventStream(event for event in stream if predicate(event))
