"""Window operators: count-, time- and pattern-based sliding windows.

The eSPICE paper assumes a window-based CEP system where the input
stream is partitioned into (possibly overlapping) windows by predicates
(paper §2): *count-based* windows open every ``slide`` events and span
``size`` events; *time-based* windows open every ``slide`` seconds and
span ``duration`` seconds; *pattern-based* windows open whenever an
event satisfies a logical predicate (e.g. Q1 opens a window on every
striker event) and span a count or time extent from the opening event.

Window assignment is a pure function of the raw input stream, and is
performed *before* load shedding: the shedder drops an event from
individual windows, so an event's *position within each window* (the
``P`` of ``UT(T, P)``) is its arrival index in that window regardless of
whether other events were shed.

The span model
--------------
Every event that arrives while a window is open joins it, so a window
*is* a contiguous slice of the arrival stream.  An assigner therefore
keeps **one** arrival log and, per open window, only
``(start, open_time, expiry)`` -- ``start`` being the arrival ordinal
of the window's first event.  Per event the work is O(1), however many
windows overlap:

- the event is appended to the log once (not once per window);
- its memberships are one :class:`Memberships` object -- "the currently
  open ids, position = arrival ordinal - start" -- sharing its id/start
  tuples with the previous event's (they are rebuilt only when a window
  opens or closes) and yielding :class:`WindowRef` objects lazily;
- expiry is one comparison against the cached minimum expiry of the
  open set; only when an event reaches it are the open windows scanned
  (all of them, in id order: timestamps need not be monotonic, so a
  younger window can expire before an older one).

A :class:`Window` with its ``events`` list is materialised once, by one
slice of the log, when it closes or is flushed.  The log is trimmed as
its oldest open window closes, so it holds O(longest open span) events,
not O(stream).

Assigners are streaming objects with one assignment body each,
:meth:`WindowAssigner.assign`: it takes a micro-batch of events in
arrival order and reports, per event, its memberships, plus -- sparsely,
for the few events whose arrival closed windows -- the windows that
closed strictly before the event (a count-based window closes *with*
its last event).  :meth:`~WindowAssigner.on_event` and
:meth:`~WindowAssigner.on_events` are per-event adapters over that
body.  :func:`iter_windows` is a batch convenience used by ground-truth
computation and model training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cep.events import Event, EventStream

_NEVER = math.inf
#: Events :func:`assign_chunks` assigns per batch.
_CHUNK = 256


@dataclass(slots=True)
class WindowRef:
    """An event's membership in one window."""

    window_id: int
    position: int  # 0-based arrival index of the event within the window


class Memberships:
    """One event's window memberships: a view on the open-window set.

    ``ids`` and ``starts`` are the open windows (id order) and the
    arrival ordinal each started at; ``index`` is this event's arrival
    ordinal, so its position in window ``ids[i]`` is
    ``index - starts[i]``.  Consecutive events share the two tuples
    until a window opens or closes, which is what makes an event's
    bookkeeping independent of how many windows it belongs to.

    Behaves as an immutable sequence of :class:`WindowRef` (``len``,
    iteration, indexing, ``==`` against any sequence of refs); refs are
    built on demand.  Slotted: one instance per event on the hot path.
    """

    __slots__ = ("ids", "starts", "index")

    def __init__(
        self, ids: Tuple[int, ...] = (), starts: Tuple[int, ...] = (), index: int = 0
    ) -> None:
        self.ids = ids
        self.starts = starts
        self.index = index

    def positions(self) -> List[int]:
        """The event's position in each window, aligned with ``ids``."""
        index = self.index
        return [index - start for start in self.starts]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[WindowRef]:
        index = self.index
        for window_id, start in zip(self.ids, self.starts):
            yield WindowRef(window_id, index - start)

    def __getitem__(self, i: int) -> WindowRef:
        return WindowRef(self.ids[i], self.index - self.starts[i])

    def __eq__(self, other: object) -> bool:
        try:
            return list(self) == list(other)  # type: ignore[call-overload]
        except TypeError:
            return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ids, tuple(self.positions())))

    def __repr__(self) -> str:
        return f"Memberships({list(self)!r})"


#: The memberships of an event that belongs to no window (immutable,
#: so one instance serves as everybody's default).
NO_MEMBERSHIPS = Memberships()


@dataclass(slots=True)
class AssignResult:
    """One event's share of :meth:`WindowAssigner.assign`: its memberships
    and the windows its arrival closed.

    Built only by the per-event adapters (:meth:`WindowAssigner.on_event`,
    :meth:`WindowAssigner.on_events`); the stage chain reads the batched
    body's columns directly.
    """

    assignments: Memberships
    closed: List["Window"]


#: What :meth:`WindowAssigner.assign` returns: the memberships of every
#: event (aligned with the batch), the indices of the events whose
#: arrival closed windows, and those windows per closing event (aligned
#: with the indices).
Assignment = Tuple[List[Memberships], List[int], List[List["Window"]]]


@dataclass(slots=True)
class Window:
    """A closed (complete) window of events.

    ``events`` holds every event assigned to the window in arrival
    order, i.e. the *unshedded* content; position ``i`` in this list is
    the ``P`` used by the utility table.  ``truncated`` marks windows
    force-closed at end of stream (or by the open-window cap): they are
    still matched, but model training skips them so partial windows do
    not skew the reference window size.  ``start`` is the arrival
    ordinal of ``events[0]`` in the assigner's log (see the span
    model): the window is arrivals ``[start, start + size)``.
    """

    window_id: int
    events: List[Event] = field(default_factory=list)
    open_time: float = 0.0
    close_time: float = 0.0
    truncated: bool = False
    start: int = 0

    @property
    def size(self) -> int:
        """Number of events assigned to this window."""
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __repr__(self) -> str:
        return f"Window(id={self.window_id}, size={self.size})"


def trim_log(log: List[Event], base: int, keep_from: int) -> int:
    """Cut the dead prefix of an arrival log; returns the new base.

    ``log[i]`` is arrival ``base + i`` and nothing below ``keep_from``
    can be reached any more.  The prefix is cut once it is at least
    half the log, which keeps the cost amortised O(1) per event and
    the log within twice the longest open span.
    """
    dead = min(keep_from - base, len(log))
    if dead > 0 and 2 * dead >= len(log):
        del log[:dead]
        return base + dead
    return base


# repro-lint: disable=R006 one assigner per query chain, not per event
class WindowAssigner:
    """Base class for streaming window assigners (see the span model).

    State shared by the three assigners: the arrival log (``_log[i]``
    is the event with arrival ordinal ``_base + i``), the open windows
    as ``id -> (start, open_time, expiry)`` in id order (ids only grow
    and dicts keep insertion order), the cached minimum expiry of the
    open set, and the ``(ids, starts)`` tuples the next event's
    :class:`Memberships` will share (``_ids`` is ``None`` after the
    open set changed).  What ``expiry`` is compared against -- a timestamp or an
    arrival ordinal -- is the subclass's business.
    """

    def __init__(self) -> None:
        self._next_id = 0
        self._log: List[Event] = []
        self._base = 0
        self._open: Dict[int, Tuple[int, float, float]] = {}
        self._min_expiry = _NEVER
        self._ids: Optional[Tuple[int, ...]] = ()
        self._starts: Tuple[int, ...] = ()

    def _open_window(self, start: int, open_time: float, expiry: float) -> None:
        self._open[self._next_id] = (start, open_time, expiry)
        self._next_id += 1
        if expiry < self._min_expiry:
            self._min_expiry = expiry
        self._ids = None

    def _close(
        self, window_id: int, end: int, close_time: float, truncated: bool = False
    ) -> Window:
        """Materialise window ``window_id`` as arrivals ``[start, end)``."""
        start, open_time, _expiry = self._open.pop(window_id)
        self._ids = None
        base = self._base
        return Window(
            window_id,
            self._log[start - base : end - base],
            open_time,
            close_time,
            truncated,
            start,
        )

    def _close_expired(self, now: float, end: int, close_time: float) -> List[Window]:
        """Close every open window with ``expiry <= now``, in id order.

        A full scan, because expiry order need not follow id order; it
        runs only when ``now`` reaches the cached minimum expiry (which
        may be stale-low after a forced close: the scan then closes
        nothing and refreshes it).
        """
        closed: List[Window] = []
        min_expiry = _NEVER
        for window_id, (_start, _open_time, expiry) in list(self._open.items()):
            if now >= expiry:
                closed.append(self._close(window_id, end, close_time))
            elif expiry < min_expiry:
                min_expiry = expiry
        self._min_expiry = min_expiry
        if closed:
            self._trim()
        return closed

    def _trim(self) -> None:
        """Drop log entries no open window can still reach (after closes)."""
        self._base = trim_log(self._log, self._base, self.oldest_open_start)

    @property
    def oldest_open_start(self) -> int:
        """Arrival ordinal below which no open or future window reaches.

        The oldest open window's start (starts never decrease in id
        order); with nothing open, the next arrival's ordinal -- the
        whole log is dead.  Whoever mirrors the log (the cluster's
        shard workers) trims by this bound, like :meth:`_trim`.
        """
        if self._open:
            return next(iter(self._open.values()))[0]
        return self._base + len(self._log)

    def _join(self, event: Event, index: int) -> Memberships:
        """Log arrival ``index`` and return its memberships in the open set.

        An event no window is open for is not logged (the log is empty
        then, see :meth:`_trim`); its ordinal is skipped instead.
        """
        if not self._open:
            self._base += 1
            return NO_MEMBERSHIPS
        self._log.append(event)
        if self._ids is None:
            self._ids = tuple(self._open)
            self._starts = tuple([window[0] for window in self._open.values()])
        return Memberships(self._ids, self._starts, index)

    @property
    def open_windows(self) -> List[Window]:
        """Currently open windows, oldest first (materialised copies).

        A debugging/inspection aid -- nothing on the event path reads it.
        """
        log = self._log
        base = self._base
        return [
            Window(window_id, log[start - base :], open_time, start=start)
            for window_id, (start, open_time, _expiry) in self._open.items()
        ]

    def assign(self, events: Sequence[Event]) -> Assignment:
        """Assign a micro-batch of events in arrival order: the one body.

        Window membership is a pure streaming function, so a batch is a
        loop with the state hoisted.  Closes are sparse: nothing is
        built for an event whose arrival closed no window.
        """
        raise NotImplementedError

    def on_event(self, event: Event) -> AssignResult:
        """Assign ``event``; report memberships and windows closed before it."""
        refs, closes, closed = self.assign((event,))
        return AssignResult(refs[0], closed[0] if closes else [])

    def on_events(self, events: Iterable[Event]) -> List[AssignResult]:
        """Assign a micro-batch of events; one result per event, in order."""
        refs, closes, closed = self.assign(list(events))
        results = [AssignResult(r, []) for r in refs]
        for index, windows in zip(closes, closed):
            results[index].closed = windows
        return results

    def flush(self) -> List[Window]:
        """Close and return every still-open window (end of stream).

        Flushed windows are marked ``truncated``; the arrival log is
        emptied.
        """
        log = self._log
        end = self._base + len(log)
        remaining = []
        for window_id, (start, open_time, _expiry) in list(self._open.items()):
            last = log[-1].timestamp if start < end else open_time
            remaining.append(self._close(window_id, end, last, truncated=True))
        self._min_expiry = _NEVER
        self._trim()
        return remaining

    def expected_window_size(self, stream_rate: float) -> float:
        """Best-effort estimate of the window size in *events*.

        Used to size the utility table's reference dimension ``N`` and
        by the overload detector's partitioning.  Time-extent assigners
        need the stream rate to convert seconds to events.
        """
        raise NotImplementedError


# repro-lint: disable=R006 one assigner per query chain, not per event
class CountSlidingWindows(WindowAssigner):
    """Count-based sliding windows: open every ``slide`` events, span ``size``.

    With ``slide == size`` the windows are tumbling.  Q4 in the paper
    uses ``slide = 100`` events with various window sizes.  A window's
    ``expiry`` is the arrival ordinal of its last event: it closes
    *with* that event, after the event joined it.
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

    def assign(self, events: Sequence[Event]) -> Assignment:
        refs: List[Memberships] = []
        closes: List[int] = []
        closed: List[List[Window]] = []
        join = self._join
        log = self._log
        size, slide = self.size, self.slide
        for i, event in enumerate(events):
            index = self._base + len(log)
            if self._arrivals % slide == 0:
                self._open_window(index, event.timestamp, index + size - 1)
            self._arrivals += 1
            # slide > size leaves gaps in which no window is open
            refs.append(join(event, index))
            if index >= self._min_expiry:
                windows = self._close_expired(index, index + 1, event.timestamp)
                if windows:
                    closes.append(i)
                    closed.append(windows)
        return refs, closes, closed

    def expected_window_size(self, stream_rate: float) -> float:
        return float(self.size)


# repro-lint: disable=R006 one assigner per query chain, not per event
class TimeSlidingWindows(WindowAssigner):
    """Time-based sliding windows: open every ``slide`` s, span ``duration`` s.

    A window covers timestamps in ``[open, open + duration)``.  Windows
    close lazily when an event at or past their end arrives (or on
    :meth:`flush`); after a gap longer than ``duration`` the backlog
    windows open already expired and close empty.
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

    def _open_due_windows(self, now: float, index: int) -> None:
        if self._origin is None:
            self._origin = now
        while self._origin + self._opened_upto * self.slide <= now:
            open_time = self._origin + self._opened_upto * self.slide
            self._open_window(index, open_time, open_time + self.duration)
            self._opened_upto += 1

    def assign(self, events: Sequence[Event]) -> Assignment:
        refs: List[Memberships] = []
        closes: List[int] = []
        closed: List[List[Window]] = []
        join = self._join
        log = self._log
        for i, event in enumerate(events):
            now = event.timestamp
            index = self._base + len(log)
            self._open_due_windows(now, index)
            if now >= self._min_expiry:
                windows = self._close_expired(now, index, now)
                if windows:
                    closes.append(i)
                    closed.append(windows)
            refs.append(join(event, index))
        return refs, closes, closed

    def expected_window_size(self, stream_rate: float) -> float:
        return self.duration * stream_rate


# repro-lint: disable=R006 one assigner per query chain, not per event
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

    def _open_from(self, start: int, timestamp: float) -> None:
        # a window expires at a timestamp (time extent) or once it holds
        # ``extent_events`` arrivals, i.e. at an arrival ordinal
        if self.extent_seconds is not None:
            self._open_window(start, timestamp, timestamp + self.extent_seconds)
        elif self.extent_events is not None:
            self._open_window(start, timestamp, start + self.extent_events)

    def assign(self, events: Sequence[Event]) -> Assignment:
        refs: List[Memberships] = []
        closes: List[int] = []
        closed: List[List[Window]] = []
        join = self._join
        log = self._log
        open_set = self._open
        by_time = self.extent_seconds is not None
        opens = self.open_predicate
        for i, event in enumerate(events):
            timestamp = event.timestamp
            index = self._base + len(log)
            now = timestamp if by_time else index
            windows: Optional[List[Window]] = None
            if now >= self._min_expiry:
                windows = self._close_expired(now, index, timestamp)
            if not opens(event):
                refs.append(join(event, index))
            else:
                if len(open_set) >= self.max_open:
                    oldest = next(iter(open_set))
                    forced = self._close(oldest, index, timestamp, truncated=True)
                    windows = (windows or []) + [forced]
                    self._trim()
                if self.include_opener:
                    self._open_from(index, timestamp)
                    refs.append(join(event, index))
                else:
                    # the new window starts at the next arrival: this
                    # event's memberships are taken before it opens
                    refs.append(join(event, index))
                    self._open_from(index + 1, timestamp)
            if windows:
                closes.append(i)
                closed.append(windows)
        return refs, closes, closed

    def expected_window_size(self, stream_rate: float) -> float:
        if self.extent_events is not None:
            return float(self.extent_events)
        assert self.extent_seconds is not None
        return self.extent_seconds * stream_rate


def assign_chunks(
    assigner: WindowAssigner, stream: Iterable[Event]
) -> Iterator[Tuple[List[Event], Assignment]]:
    """Drive ``assigner`` over ``stream`` in batches of ``_CHUNK`` events.

    Yields each batch with its :meth:`WindowAssigner.assign` result, so
    a whole-stream pass holds one batch's columns at a time.
    """
    events = iter(stream)
    while True:
        batch = list(islice(events, _CHUNK))
        if not batch:
            return
        yield batch, assigner.assign(batch)


def iter_windows(
    stream: Iterable[Event], assigner: WindowAssigner
) -> Iterator[Window]:
    """Drive ``assigner`` over ``stream`` and yield closed windows in order.

    The assigner must be fresh (no events fed yet).  Windows still open
    at end of stream are flushed and yielded last.
    """
    for _events, (_refs, _closes, closed) in assign_chunks(assigner, stream):
        for windows in closed:
            yield from windows
    yield from assigner.flush()


def collect_windows(stream: EventStream, assigner: WindowAssigner) -> List[Window]:
    """Materialise :func:`iter_windows` into a list."""
    return list(iter_windows(stream, assigner))


def average_window_size(windows: Iterable[Window]) -> float:
    """Mean number of events per window (0.0 for no windows).

    This is the paper's ``N`` -- "the average seen window size" -- used
    as the fixed position dimension of the utility table when window
    sizes vary (§3.6).
    """
    sizes = [w.size for w in windows]
    if not sizes:
        return 0.0
    return sum(sizes) / len(sizes)
