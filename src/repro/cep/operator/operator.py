"""The single CEP operator eSPICE attaches to.

The operator consumes :class:`~repro.cep.operator.queue.QueuedItem`
entries (event + window memberships) and, when a window closes, runs
the query's pattern matcher over the window's *kept* events to emit
complex events.

It stores only what the load shedder took away.  A closed
:class:`~repro.cep.windows.Window` already carries its full content in
arrival order (the assigner slices it out of its arrival log, see
:mod:`repro.cep.windows`), so the operator keeps no per-window copy of
the events: it records the *dropped positions* per window id; at
completion a window nothing was dropped from is matched as is, any
other is filtered by its recorded positions first.  An unshedded event
costs the operator O(1), however many windows it belongs to.

The operator works on *segments* -- runs of queue items no window
completion interrupts -- as parallel columns: :meth:`decide_batch`
takes every drop decision of a segment in one pass, and
:meth:`apply_batch`, the one processing body, records the drops,
completes the windows at the closing items and bumps the counters once.
The stage chain, the virtual-time driver (:mod:`repro.runtime.simulation`)
and the untimed :meth:`CEPOperator.detect_all` (ground truth, model
training) all drive that body.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.cep.events import ComplexEvent, Event
from repro.cep.operator.queue import QueuedItem, queue_items
from repro.cep.patterns.matcher import Match
from repro.cep.patterns.query import Query
from repro.cep.windows import Window, assign_chunks

# Listener signatures: (window with full unshedded content, matches found).
WindowListener = Callable[[Window, List[Match]], None]


@dataclass
class OperatorStats:
    """Counters exposed for experiments and tests."""

    events_processed: int = 0
    memberships_kept: int = 0
    memberships_dropped: int = 0
    windows_completed: int = 0
    complex_events: int = 0

    def drop_ratio(self) -> float:
        """Fraction of (event, window) memberships dropped."""
        total = self.memberships_kept + self.memberships_dropped
        return self.memberships_dropped / total if total else 0.0


#: Drop decisions of a segment: per item a mask aligned with its refs
#: (True = drop), or ``None`` when the segment dropped nothing at all.
Drops = Optional[List[List[bool]]]

def segments(closes: Sequence[int], count: int) -> Iterator[Tuple[int, int, List[int]]]:
    """Cut ``count`` items after every closing one, without scanning them.

    Yields ``(start, end, closes)`` per segment, ``closes`` rebased to
    the segment (``[end - 1 - start]``, or empty for an unclosed tail).
    Completing a window moves the window-size predictor, so the drop
    decisions of later items must not be taken before it completes.
    """
    start = 0
    for close in closes:
        yield start, close + 1, [close - start]
        start = close + 1
    if start < count:
        yield start, count, []


class CEPOperator:
    """Pattern-matching CEP operator over (shedded) windows.

    Parameters
    ----------
    query:
        The deployed :class:`~repro.cep.patterns.query.Query`.
    shedder:
        Optional load shedder implementing
        :class:`repro.shedding.base.LoadShedder`.  ``None`` (or an
        inactive shedder) keeps every event.
    """

    def __init__(self, query: Query, shedder: Optional[object] = None) -> None:
        self.query = query
        self.shedder = shedder
        self.stats = OperatorStats()
        self._matcher = query.new_matcher()
        # window id -> positions the matcher must not see (in arrival
        # order); windows nothing was dropped from have no entry
        self._excluded: Dict[int, List[int]] = {}
        self._window_listeners: List[WindowListener] = []
        self._size_sum = 0
        self._size_count = 0

    # ------------------------------------------------------------------
    # listeners (used by the eSPICE model builder)
    # ------------------------------------------------------------------
    def add_window_listener(self, listener: WindowListener) -> None:
        """Subscribe to (completed window, matches) notifications."""
        self._window_listeners.append(listener)

    def remove_window_listener(self, listener: WindowListener) -> None:
        """Unsubscribe a listener; unknown listeners are ignored."""
        try:
            self._window_listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # window size prediction (needed for relative positions, §3.6)
    # ------------------------------------------------------------------
    def predicted_window_size(self) -> float:
        """Running average size of completed windows (their full content).

        Paper §3.6: the incoming window size must be predicted to map an
        event's relative position onto the utility table.  The running
        average of seen window sizes is the predictor; the runtime may
        refine it via :meth:`prime_window_size`.
        """
        if self._size_count == 0:
            return 0.0
        return self._size_sum / self._size_count

    def prime_window_size(self, size: float, weight: int = 1) -> None:
        """Seed the window-size predictor (e.g. from the training phase)."""
        self._size_sum += size * weight
        self._size_count += weight

    @property
    def predictor_state(self) -> Tuple[float, int]:
        """``(size_sum, size_count)`` of the running-average predictor.

        The sharded runtime seeds its coordinator-owned predictor from
        this so a cluster predicts window sizes exactly like the
        (possibly primed) sequential operator would.
        """
        return float(self._size_sum), self._size_count

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------
    def decide_batch(
        self, items: Sequence[QueuedItem], shedder: Optional[object] = None
    ) -> Drops:
        """Drop decisions (True = drop) for a segment's items in one pass.

        All memberships of ``items`` are flattened into one
        (event, position) batch and resolved by the shedder's
        :meth:`~repro.shedding.base.LoadShedder.should_drop_batch`
        (vectorized for eSPICE, a faithful per-pair loop otherwise),
        then sliced back per item.  The caller must guarantee the
        predictor state is constant across ``items`` -- i.e. no window
        completes between them -- which is exactly the segment contract
        (see :func:`segments`).

        ``shedder`` overrides the operator's own shedder -- the
        pipeline's shedding stage owns the shedder and calls this
        against an operator built without one.  Returns ``None`` when
        no shedding applies or nothing was dropped, so
        :meth:`apply_batch` skips the masks entirely.
        """
        shedder = shedder if shedder is not None else self.shedder
        if shedder is None or not getattr(shedder, "active", True):
            return None
        events: List[Event] = []
        positions: List[int] = []
        for item in items:
            refs = item.refs
            events += repeat(item.event, len(refs.ids))
            positions += refs.positions()
        mask = shedder.should_drop_batch(events, positions, self.predicted_window_size())
        if True not in mask:
            return None
        out: List[List[bool]] = []
        start = 0
        for item in items:
            end = start + len(item.refs.ids)
            out.append(mask[start:end])
            start = end
        return out

    def apply_batch(
        self,
        items: Sequence[QueuedItem],
        drops: Drops,
        closes: Sequence[int],
        nows: Sequence[float],
    ) -> List[List[ComplexEvent]]:
        """Apply a segment's drop decisions, then complete its closed windows.

        The one processing body.  ``drops`` is :meth:`decide_batch`'s
        result for ``items``; ``closes`` indexes the items whose arrival
        closed windows and ``nows`` is the items' clocks (a detection is
        stamped with its closing item's).  Only dropped memberships are
        recorded (their positions, per window id); kept ones are implied
        by the window's content.  Every drop lands before any window
        completes: a count-based window closes *with* its final event,
        so that event's decision must count, and no item joins a window
        an earlier item closed, so recording a later item's drops early
        changes nothing.  Returns the detections per closing item,
        aligned with ``closes``.
        """
        memberships = sum([len(item.refs.ids) for item in items])
        dropped = 0
        if drops is not None:
            excluded = self._excluded
            for item, mask in zip(items, drops):
                if True in mask:
                    refs = item.refs
                    index = refs.index
                    for window_id, start in compress(zip(refs.ids, refs.starts), mask):
                        excluded.setdefault(window_id, []).append(index - start)
                        dropped += 1
        complete = self._complete_window
        detections: List[List[ComplexEvent]] = []
        for i in closes:
            now = nows[i]
            found: List[ComplexEvent] = []
            for window in items[i].closed_windows:
                found += complete(window, now)
            detections.append(found)
        stats = self.stats
        stats.events_processed += len(items)
        stats.memberships_kept += memberships - dropped
        stats.memberships_dropped += dropped
        return detections

    def discard(self, item: QueuedItem) -> None:
        """Exclude an item that was assigned windows but never enqueued.

        The assigner logged its event before the enqueue failed, so the
        windows it joined will contain it; the operator never decided
        on it, so the matcher must not see it.
        """
        refs = item.refs
        excluded = self._excluded
        for window_id, position in zip(refs.ids, refs.positions()):
            excluded.setdefault(window_id, []).append(position)
        for window in item.closed_windows:  # lost with the item
            excluded.pop(window.window_id, None)

    def flush(self, windows: Iterable[Window], now: float = 0.0) -> List[ComplexEvent]:
        """Complete the given still-open windows at end of stream."""
        complex_events: List[ComplexEvent] = []
        for window in windows:
            complex_events.extend(self._complete_window(window, now))
        return complex_events

    def _complete_window(self, window: Window, now: float) -> List[ComplexEvent]:
        excluded = self._excluded.pop(window.window_id, None)
        if not window.truncated:
            # truncated windows would skew the window-size predictor
            self._size_sum += window.size
            self._size_count += 1
        events = window.events
        if excluded is None:
            matches = self._matcher.match_window(events)
        else:
            gone = set(excluded)
            positions = [p for p in range(len(events)) if p not in gone]
            matches = self._matcher.match_window(
                [events[p] for p in positions], positions
            )
        complex_events = [
            ComplexEvent(
                pattern_name=self.query.name,
                window_id=window.window_id,
                events=tuple(e for _pos, e in match),
                detection_time=now,
            )
            for match in matches
        ]
        self.stats.windows_completed += 1
        self.stats.complex_events += len(complex_events)
        for listener in self._window_listeners:
            listener(window, matches)
        return complex_events

    # ------------------------------------------------------------------
    # batch (no queue, no timing) -- ground truth & model training
    # ------------------------------------------------------------------
    def detect_all(self, stream: Iterable[Event]) -> List[ComplexEvent]:
        """Run the full operator over ``stream`` without timing.

        Assign, segment, decide, apply -- the pipeline's egress over the
        same bodies, with each event's timestamp as its clock: shedding
        happens if a shedder is installed and active.  Used for
        ground-truth computation (without a shedder) and for model
        training.
        """
        assigner = self.query.new_assigner()
        out: List[ComplexEvent] = []
        for events, assignment in assign_chunks(assigner, stream):
            nows = [event.timestamp for event in events]
            items = queue_items(events, nows, assignment)
            for start, end, part_closes in segments(assignment[1], len(items)):
                part = items[start:end]
                drops = self.decide_batch(part)
                for found in self.apply_batch(part, drops, part_closes, nows[start:end]):
                    out += found
        out.extend(self.flush(assigner.flush()))
        return out
