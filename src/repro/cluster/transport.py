"""Batched event transport over the cluster's IPC queues.

Every message crossing a process boundary pays a pickle plus a queue
lock round-trip; at tens of thousands of windows per second that
per-message cost dominates.  :class:`BatchingSender` amortises it by
accumulating messages and shipping them as one list -- one pickle, one
lock -- flushed when the batch reaches ``batch_size`` or when the
oldest buffered message has waited ``linger`` seconds (the classic
size-or-time rule of batched messaging systems).

``batch_size=1`` degenerates to unbatched sends; ``linger=0`` flushes
purely by size (plus the explicit :meth:`flush` barriers the sharded
pipeline inserts at sync points), which keeps replay runs
deterministic.

The span link
-------------
A closed window is arrivals ``[start, stop)`` of its assigner's log
and overlapping windows share most of their events, so windows do not
cross the coordinator->worker hop: the log does, once per shard.
:class:`SpanLink` (coordinator end) remembers which stretch of each
chain's log its worker holds and sends only the events above it;
:class:`SpanReceiver` (worker end) keeps that replica, rebuilds each
:class:`~repro.cep.windows.Window` by one slice and trims what no open
window can reach.  One data message::

    ("winbatch", seq, chain, seg_lo, packed_segment, keep_from,
     [(dispatch_idx, window_id, start, stop, open_time, close_time,
       truncated, predicted_ws), ...])

``packed_segment`` is :func:`pack` of arrivals ``[seg_lo, seg_lo + n)``.
Where ``seg_lo`` is the replica's end the segment extends it; anywhere
else it *rebases* the replica (new link, a gap of events routed
elsewhere, a span reaching below what the replica keeps) and the
message is self-contained.  ``keep_from`` is the assigner's
:attr:`~repro.cep.windows.WindowAssigner.oldest_open_start`; the
replica is trimmed by it once the message's windows are rebuilt.  A
message depends on its predecessors, so the link is ordered and
exactly-once: the receiver applies messages in ``seq`` order, holds an
early one until its predecessor arrives, drops and counts a repeat.
"""

from __future__ import annotations

import queue as queue_module
import time
from itertools import chain as chain_iterables
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.cep.events import Event
from repro.cep.windows import Window, trim_log


class BatchingSender:
    """Size-or-linger batching wrapper around a ``put()``-style queue."""

    __slots__ = (
        "queue",
        "batch_size",
        "linger",
        "_clock",
        "_buffer",
        "_oldest",
        "messages_sent",
        "batches_sent",
        "max_batch",
    )

    def __init__(
        self,
        queue,
        batch_size: int = 32,
        linger: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        if linger < 0.0:
            raise ValueError("linger must be non-negative")
        self.queue = queue
        self.batch_size = batch_size
        self.linger = linger
        self._clock = clock
        self._buffer: List[object] = []
        self._oldest: float = 0.0
        self.messages_sent = 0
        self.batches_sent = 0
        self.max_batch = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def send(self, message: object) -> None:
        """Buffer one message; flush if the batch is full or lingered."""
        if not self._buffer:
            self._oldest = self._clock()
        self._buffer.append(message)
        if len(self._buffer) >= self.batch_size:
            self.flush()
        elif self.linger > 0.0 and self._clock() - self._oldest >= self.linger:
            self.flush()

    def send_now(self, message: object) -> None:
        """Ship ``message`` immediately (after anything already buffered).

        For messages that are themselves batches -- e.g. a router's
        ``winbatch`` carrying every window an :class:`EventBatch`
        closed -- re-buffering would only delay work that is already
        amortized; queue order relative to buffered messages is
        preserved.
        """
        self._buffer.append(message)
        self.flush()

    def maybe_flush(self) -> None:
        """Flush if the oldest buffered message outwaited ``linger``."""
        if (
            self._buffer
            and self.linger > 0.0
            and self._clock() - self._oldest >= self.linger
        ):
            self.flush()

    def flush(self) -> None:
        """Ship the buffered messages as one batch (no-op when empty)."""
        if not self._buffer:
            return
        batch = self._buffer
        self._buffer = []
        self.queue.put(batch)
        self.messages_sent += len(batch)
        self.batches_sent += 1
        if len(batch) > self.max_batch:
            self.max_batch = len(batch)

    def average_batch_size(self) -> float:
        """Mean messages per shipped batch (0.0 before any flush)."""
        if self.batches_sent == 0:
            return 0.0
        return self.messages_sent / self.batches_sent

    def metrics(self) -> dict:
        """Transport counters for the cluster snapshot."""
        return {
            "messages": self.messages_sent,
            "batches": self.batches_sent,
            "avg_batch": round(self.average_batch_size(), 2),
            "max_batch": self.max_batch,
            "buffered": len(self._buffer),
        }


def pack(events: Sequence[Event]) -> tuple:
    """``events`` as parallel columns: one pickle op per field, not per event.

    ``(types, seqs, timestamps, keys, values)``: when every event's
    attrs have the same (non-empty) keys in the same order -- one
    schema per stream is the rule -- ``keys`` is that tuple and
    ``values`` the attr values of all events, flat; otherwise ``keys``
    is ``None`` and ``values`` the attrs dicts themselves.  Plain lists,
    so pickling keeps every value's exact type.
    """
    types = [event.event_type for event in events]
    seqs = [event.seq for event in events]
    timestamps = [event.timestamp for event in events]
    attrs = [event.attrs for event in events]
    keys = tuple(attrs[0]) if attrs else None
    if keys and all(map(keys.__eq__, map(tuple, attrs))):
        values = list(chain_iterables.from_iterable(map(dict.values, attrs)))
        return types, seqs, timestamps, keys, values
    return types, seqs, timestamps, None, attrs


def unpack(packed: tuple) -> List[Event]:
    """The events :func:`pack` was given (equal field by field)."""
    types, seqs, timestamps, keys, values = packed
    if keys is not None:
        rows = zip(*[iter(values)] * len(keys))
        values = [dict(zip(keys, row)) for row in rows]
    return list(map(Event, types, seqs, timestamps, values))


class SpanLink(BatchingSender):
    """Coordinator end of the ordered link to one shard worker.

    A :class:`BatchingSender` that also numbers its data messages and
    remembers, per chain, the stretch ``[lo, hi)`` of the arrival log
    the worker is known to still hold.
    """

    __slots__ = ("_seq", "_held", "events_shipped")

    def __init__(self, queue, batch_size: int = 32, linger: float = 0.0) -> None:
        super().__init__(queue, batch_size, linger)
        self._seq = 0
        self._held: Dict[str, Tuple[int, int]] = {}
        self.events_shipped = 0

    def ship(self, chain: str, entries: Sequence[tuple], keep_from: int) -> None:
        """Send ``[(dispatch_idx, window, predicted_ws), ...]`` of ``chain``:
        one message -- the events above the high-water mark, the spans --
        plus one per window the replica cannot be extended to cover."""
        lo, hi = self._held.get(chain, (0, 0))
        seg_lo, segment, spans = hi, [], []
        for dispatch_idx, window, predicted in entries:
            events = window.events
            start = window.start
            stop = start + len(events)
            if events:  # an empty window needs nothing from the log
                if not lo <= start <= hi:
                    if spans:
                        self._send(chain, seg_lo, segment, keep_from, spans)
                        segment, spans = [], []
                    lo = hi = seg_lo = start
                if stop > hi:
                    segment += events[hi - start :]
                    hi = stop
            times = (window.open_time, window.close_time, window.truncated)
            span = (dispatch_idx, window.window_id, start, stop, *times, predicted)
            spans.append(span)
        self._send(chain, seg_lo, segment, keep_from, spans)
        # the worker trims below keep_from after rebuilding the windows
        self._held[chain] = (max(lo, keep_from), hi)

    def _send(self, chain, seg_lo, segment, keep_from, spans) -> None:
        self.events_shipped += len(segment)
        self.send_now(
            ("winbatch", self._seq, chain, seg_lo, pack(segment), keep_from, spans)
        )
        self._seq += 1


class SpanReceiver:
    """Worker end of a :class:`SpanLink`: log replicas, in-order delivery."""

    __slots__ = ("_next", "early", "logs", "repeats")

    def __init__(self) -> None:
        self._next = 0
        #: seq -> message held back until its predecessor arrives
        self.early: Dict[int, tuple] = {}
        #: chain -> [base, log]: ``log[i]`` is arrival ``base + i``
        self.logs: Dict[str, list] = {}
        self.repeats = 0

    def receive(self, message: tuple) -> List[Tuple[str, List[tuple]]]:
        """Take one data message; return what is now due, in ``seq`` order:
        ``[(chain, [(dispatch_idx, window, predicted_ws), ...]), ...]`` --
        nothing for an early message (held) or a repeat (counted)."""
        seq = message[1]
        if seq < self._next or seq in self.early:
            self.repeats += 1
            return []
        self.early[seq] = message
        due = []
        while self._next in self.early:
            due.append(self._apply(self.early.pop(self._next)))
            self._next += 1
        return due

    def _apply(self, message: tuple) -> Tuple[str, List[tuple]]:
        _tag, _seq, chain, seg_lo, packed, keep_from, spans = message
        replica = self.logs.setdefault(chain, [0, []])
        base, log = replica
        if seg_lo == base + len(log):
            log += unpack(packed)
        else:
            base = seg_lo
            log[:] = unpack(packed)
        entries = []
        for dispatch_idx, window_id, start, stop, *times, predicted in spans:
            events = log[start - base : stop - base]
            window = Window(window_id, events, *times, start)
            entries.append((dispatch_idx, window, predicted))
        replica[0] = trim_log(log, base, keep_from)
        return chain, entries


class FailureDetector:
    """Heartbeat/timeout failure suspicion for the worker IPC channel.

    The parent records an arrival time for every message a shard sends
    (results, syncs, explicit ``hb`` heartbeats all count -- any
    traffic proves liveness).  A shard becomes *suspect* when it has
    been silent for longer than ``timeout`` seconds of wall clock.

    Suspicion is advisory: the sharded pipeline combines it with the
    authoritative ``Process.is_alive()`` check, using the heartbeat
    only to bound how long a wedged-but-alive worker can stall a run.
    A shard with no pending work is never suspected by callers (idle
    workers still heartbeat, but slowly) -- that policy lives in the
    pipeline, this class only keeps the clocks.
    """

    __slots__ = ("timeout", "_clock", "_last_seen")

    def __init__(
        self,
        timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if timeout <= 0.0:
            raise ValueError("timeout must be positive")
        self.timeout = timeout
        self._clock = clock
        self._last_seen: dict = {}

    def register(self, shard: int) -> None:
        """Start tracking ``shard``, counting from now."""
        self._last_seen[shard] = self._clock()

    def forget(self, shard: int) -> None:
        """Stop tracking ``shard`` (scale-down or permanent removal)."""
        self._last_seen.pop(shard, None)

    def observe(self, shard: int) -> None:
        """Any message from ``shard`` arrived; reset its clock."""
        if shard in self._last_seen:
            self._last_seen[shard] = self._clock()

    def silence(self, shard: int) -> float:
        """Seconds since ``shard`` was last heard from (0.0 if unknown)."""
        last = self._last_seen.get(shard)
        return 0.0 if last is None else max(0.0, self._clock() - last)

    def suspects(self) -> List[int]:
        """Tracked shards silent for longer than ``timeout``."""
        now = self._clock()
        return sorted(
            shard
            for shard, last in self._last_seen.items()
            if now - last > self.timeout
        )


def drain(mp_queue, max_batches: int = 1000) -> Iterator[object]:
    """Yield every message currently available on ``mp_queue``.

    Non-blocking: stops at the first ``Empty`` (or after
    ``max_batches`` batches, so a fast producer cannot starve the
    caller's own loop).  Each queue entry is a batch (a list) produced
    by a :class:`BatchingSender`; messages are yielded individually.
    """
    for _ in range(max_batches):
        try:
            batch = mp_queue.get_nowait()
        except queue_module.Empty:
            return
        for message in batch:
            yield message


def drain_for(mp_queue, timeout: float) -> Iterator[object]:
    """Yield messages from one blocking ``get`` bounded by ``timeout``.

    Returns without yielding when nothing arrives in time -- the
    caller's wait loop decides whether to keep waiting or give up.
    """
    try:
        batch = mp_queue.get(timeout=timeout)
    except queue_module.Empty:
        return
    for message in batch:
        yield message
