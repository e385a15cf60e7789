"""Oracle for the span-model windows and the drop-only operator.

The window assigners below are the per-membership implementation that
``repro.cep.windows`` shipped before windows became spans of one
arrival log, kept verbatim: every open window owns an ``events`` list,
every membership is one ``append`` and one ``WindowRef``, the open set
is re-sorted per event.  :class:`BufferedOperator` is the matching
half of the old ``CEPOperator``: it copies every kept membership into a
per-window buffer and matches the buffer.  Slow and obviously right --
``test_window_spans.py`` holds the fast implementations to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.cep.events import ComplexEvent, Event, EventStream
from repro.cep.operator.operator import OperatorStats
from repro.cep.patterns.query import Query


@dataclass(slots=True)
class WindowRef:
    """An event's membership in one window.

    Slotted: windows overlap, so several refs exist per event on the
    hot path.
    """

    window_id: int
    position: int  # 0-based arrival index of the event within the window


@dataclass(slots=True)
class AssignResult:
    """Result of feeding one event to a :class:`WindowAssigner`.

    Slotted: one instance per event (per chain) on the hot path.
    """

    assignments: List[WindowRef] = field(default_factory=list)
    closed: List["Window"] = field(default_factory=list)


@dataclass(slots=True)
class Window:
    """A closed (complete) window of events.

    ``events`` holds every event assigned to the window in arrival
    order, i.e. the *unshedded* content; position ``i`` in this list is
    the ``P`` used by the utility table.  ``truncated`` marks windows
    force-closed at end of stream (or by the open-window cap): they are
    still matched, but model training skips them so partial windows do
    not skew the reference window size.
    """

    window_id: int
    events: List[Event] = field(default_factory=list)
    open_time: float = 0.0
    close_time: float = 0.0
    truncated: bool = False

    @property
    def size(self) -> int:
        """Number of events assigned to this window."""
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __repr__(self) -> str:
        return f"Window(id={self.window_id}, size={self.size})"


class WindowAssigner:
    """Base class for streaming window assigners."""

    def __init__(self) -> None:
        self._next_id = 0
        self._open: Dict[int, Window] = {}

    def _new_window(self, open_time: float) -> Window:
        window = Window(self._next_id, open_time=open_time)
        self._next_id += 1
        self._open[window.window_id] = window
        return window

    def _close(self, window: Window, close_time: float) -> Window:
        window.close_time = close_time
        del self._open[window.window_id]
        return window

    @property
    def open_windows(self) -> List[Window]:
        """Currently open windows, oldest first."""
        return [self._open[wid] for wid in sorted(self._open)]

    def on_event(self, event: Event) -> AssignResult:
        """Assign ``event``; report memberships and windows closed before it."""
        raise NotImplementedError

    def on_events(self, events: Iterable[Event]) -> List[AssignResult]:
        """Assign a micro-batch of events in arrival order.

        Window membership is a pure streaming function, so the base
        implementation is a loop with the dispatch hoisted; assigners
        with cheaper bulk bookkeeping may override.  Results align with
        ``events`` one-to-one -- batched callers
        (:meth:`repro.pipeline.stages.WindowAssignStage.process_batch`)
        rely on that.
        """
        on_event = self.on_event
        return [on_event(event) for event in events]

    def flush(self) -> List[Window]:
        """Close and return every still-open window (end of stream).

        Flushed windows are marked ``truncated``.
        """
        remaining = self.open_windows
        for window in remaining:
            last = window.events[-1].timestamp if window.events else window.open_time
            window.truncated = True
            self._close(window, last)
        return remaining

    def expected_window_size(self, stream_rate: float) -> float:
        """Best-effort estimate of the window size in *events*.

        Used to size the utility table's reference dimension ``N`` and
        by the overload detector's partitioning.  Time-extent assigners
        need the stream rate to convert seconds to events.
        """
        raise NotImplementedError


class CountSlidingWindows(WindowAssigner):
    """Count-based sliding windows: open every ``slide`` events, span ``size``.

    With ``slide == size`` the windows are tumbling.  Q4 in the paper
    uses ``slide = 100`` events with various window sizes.
    """

    def __init__(self, size: int, slide: Optional[int] = None) -> None:
        super().__init__()
        if size <= 0:
            raise ValueError("window size must be positive")
        self.size = size
        self.slide = slide if slide is not None else size
        if self.slide <= 0:
            raise ValueError("slide must be positive")
        self._arrivals = 0

    def on_event(self, event: Event) -> AssignResult:
        result = AssignResult()
        if self._arrivals % self.slide == 0:
            self._new_window(event.timestamp)
        self._arrivals += 1
        for window in self.open_windows:
            window.events.append(event)
            result.assignments.append(WindowRef(window.window_id, window.size - 1))
            if window.size == self.size:
                result.closed.append(self._close(window, event.timestamp))
        return result

    def expected_window_size(self, stream_rate: float) -> float:
        return float(self.size)


class TimeSlidingWindows(WindowAssigner):
    """Time-based sliding windows: open every ``slide`` s, span ``duration`` s.

    A window covers timestamps in ``[open, open + duration)``.  Windows
    close lazily when an event at or past their end arrives (or on
    :meth:`flush`).
    """

    def __init__(self, duration: float, slide: Optional[float] = None) -> None:
        super().__init__()
        if duration <= 0.0:
            raise ValueError("window duration must be positive")
        self.duration = duration
        self.slide = slide if slide is not None else duration
        if self.slide <= 0.0:
            raise ValueError("slide must be positive")
        self._origin: Optional[float] = None
        self._opened_upto: int = 0  # number of slide multiples already opened

    def _open_due_windows(self, now: float) -> None:
        if self._origin is None:
            self._origin = now
        while self._origin + self._opened_upto * self.slide <= now:
            open_time = self._origin + self._opened_upto * self.slide
            self._new_window(open_time)
            self._opened_upto += 1

    def on_event(self, event: Event) -> AssignResult:
        result = AssignResult()
        self._open_due_windows(event.timestamp)
        for window in self.open_windows:
            if event.timestamp >= window.open_time + self.duration:
                result.closed.append(self._close(window, event.timestamp))
            else:
                window.events.append(event)
                result.assignments.append(WindowRef(window.window_id, window.size - 1))
        return result

    def expected_window_size(self, stream_rate: float) -> float:
        return self.duration * stream_rate


class PredicateWindows(WindowAssigner):
    """Pattern-based windows: open on a predicate, span a count or time extent.

    Exactly the strategy of Q1--Q3 in the paper: a new window is opened
    for each event satisfying ``open_predicate`` (e.g. each striker
    event for Q1, each leading-stock event for Q2/Q3) and spans either
    ``extent_seconds`` of event time or ``extent_events`` events,
    *starting with the opening event itself*.

    Parameters
    ----------
    open_predicate:
        Called on every event; a truthy return opens a new window.
    extent_seconds / extent_events:
        Exactly one must be given.
    include_opener:
        Whether the opening event is part of the window (default True).
    max_open:
        Safety cap on simultaneously open windows; the oldest window is
        force-closed when exceeded (high-rate predicate protection).
    """

    def __init__(
        self,
        open_predicate: Callable[[Event], bool],
        extent_seconds: Optional[float] = None,
        extent_events: Optional[int] = None,
        include_opener: bool = True,
        max_open: int = 1024,
    ) -> None:
        super().__init__()
        if (extent_seconds is None) == (extent_events is None):
            raise ValueError("give exactly one of extent_seconds / extent_events")
        if extent_seconds is not None and extent_seconds <= 0.0:
            raise ValueError("extent_seconds must be positive")
        if extent_events is not None and extent_events <= 0:
            raise ValueError("extent_events must be positive")
        self.open_predicate = open_predicate
        self.extent_seconds = extent_seconds
        self.extent_events = extent_events
        self.include_opener = include_opener
        self.max_open = max_open

    def _window_expired(self, window: Window, event: Event) -> bool:
        if self.extent_seconds is not None:
            return event.timestamp >= window.open_time + self.extent_seconds
        assert self.extent_events is not None
        return window.size >= self.extent_events

    def on_event(self, event: Event) -> AssignResult:
        result = AssignResult()
        for window in self.open_windows:
            if self._window_expired(window, event):
                result.closed.append(self._close(window, event.timestamp))
        opened: Optional[Window] = None
        if self.open_predicate(event):
            if len(self._open) >= self.max_open:
                oldest = self.open_windows[0]
                oldest.truncated = True
                result.closed.append(self._close(oldest, event.timestamp))
            opened = self._new_window(event.timestamp)
        for window in self.open_windows:
            if window is opened and not self.include_opener:
                continue
            window.events.append(event)
            result.assignments.append(WindowRef(window.window_id, window.size - 1))
        return result

    def expected_window_size(self, stream_rate: float) -> float:
        if self.extent_events is not None:
            return float(self.extent_events)
        assert self.extent_seconds is not None
        return self.extent_seconds * stream_rate


class BufferedOperator:
    """The old ``CEPOperator`` event path: per-window kept buffers."""

    def __init__(self, query: Query) -> None:
        self.query = query
        self.stats = OperatorStats()
        self._matcher = query.new_matcher()
        self._buffers: Dict[int, List[Tuple[int, Event]]] = {}
        self.size_sum = 0
        self.size_count = 0

    def apply(
        self,
        event: Event,
        refs: List[WindowRef],
        closed_windows: List[Window],
        drops: Optional[List[bool]],
        now: float = 0.0,
    ) -> List[ComplexEvent]:
        for index, ref in enumerate(refs):
            buffer = self._buffers.setdefault(ref.window_id, [])
            if drops is not None and drops[index]:
                self.stats.memberships_dropped += 1
            else:
                buffer.append((ref.position, event))
                self.stats.memberships_kept += 1
        self.stats.events_processed += 1
        return self.flush(closed_windows, now)

    def flush(self, windows: Iterable[Window], now: float = 0.0) -> List[ComplexEvent]:
        complex_events: List[ComplexEvent] = []
        for window in windows:
            kept = self._buffers.pop(window.window_id, [])
            if not window.truncated:
                self.size_sum += window.size
                self.size_count += 1
            matches = self._matcher.match_window(
                [e for _pos, e in kept], [pos for pos, _e in kept]
            )
            complex_events.extend(
                ComplexEvent(
                    pattern_name=self.query.name,
                    window_id=window.window_id,
                    events=tuple(e for _pos, e in match),
                    detection_time=now,
                )
                for match in matches
            )
            self.stats.windows_completed += 1
        self.stats.complex_events += len(complex_events)
        return complex_events
