"""The shard worker process: shed + match windows shipped by the router.

Each worker runs :func:`shard_main` in its own OS process.  It owns a
matcher per query chain and (a process-local copy of) the chain's load
shedder; the window-size prediction it needs for position scaling is
*not* local state -- the router computes it from the global window
sequence and attaches it to every shipped window, so every shard
decides exactly as a sequential operator would, regardless of how many
shards exist or which windows each one saw.

Protocol (all messages travel in :class:`~repro.cluster.transport`
batches)::

    coordinator -> worker
        ("winbatch", seq, chain, seg_lo, packed_segment, keep_from, spans)
        ("model", chain, payload, version)      # hot model swap
        ("cmd",   chain, drop_command | None, active)  # coordinated shedding
        ("sync",  token)                        # flush + report metrics
        ("stop",)

    worker -> coordinator
        ("resbatch", shard_id, chain, [(dispatch_idx, [ComplexEvent, ...]), ...])
        ("sync", shard_id, token, metrics)
        ("hb",   shard_id)                      # idle heartbeat
        ("err",  shard_id, traceback_text)

``winbatch`` carries every window one router-side
:class:`~repro.pipeline.batching.EventBatch` closed for one shard --
the micro-batch formed at ingress travels end-to-end instead of being
re-wrapped into per-window messages -- as spans of the arrival log
plus the log segment this worker has not seen yet.  The layout and
the ordered exactly-once link it needs are
:mod:`repro.cluster.transport`'s business: its ``SpanReceiver`` holds
this worker's replica of each chain's arrival log and turns a message
back into ``(dispatch_idx, window, predicted_ws)`` entries.

Workers are forked from the parent after ``train()``/``deploy()``, so
they inherit the trained model, the shedder's drop command and its
activation state -- a worker never makes a decision the parent has not
configured.

Fault tolerance (opt-in via ``checkpoint_path``): the worker
periodically checkpoints each chain's replayable state -- counters and
shedder state; the matcher evaluates each window whole and has none --
to a virtual-clock-stamped JSON file via atomic rename.  A respawned
worker restores that file at boot; the coordinator replays the windows
the dead worker never acked (its replay cursor) and deduplicates by
dispatch index, so the pair gives exactly-once *detections* even
though individual shed decisions on replayed windows are re-made (they
are deterministic, so re-making them yields bit-identical results).
The worker also heartbeats on idle, bounding how long a wedged worker
can stall failure detection.
"""

from __future__ import annotations

import queue
import signal
import time
import traceback
from typing import Any, Dict, List, Optional

from repro.cep.events import ComplexEvent
from repro.cep.patterns.query import Query
from repro.cep.windows import Window
from repro.core.persistence import (
    STATE_FORMAT_VERSION,
    apply_shedder_state,
    model_from_dict,
    read_json_checkpoint,
    shedder_state_to_dict,
    write_json_atomic,
)
from repro.shedding.base import LoadShedder

#: Seconds of idle-loop silence before a worker volunteers a heartbeat.
#: Must be well under the coordinator's suspicion timeout.
HEARTBEAT_IDLE_SECONDS = 2.0


class ShardChain:
    """Worker-side state of one query chain: matcher + shedder + counters.

    With ``observe=True`` (set at fork time by
    :meth:`repro.cluster.sharded.ShardedPipeline.enable_observability`)
    the chain also records a per-window processing-time histogram whose
    raw bucket state ships to the coordinator in every sync reply,
    where it merges into the deployment's shared registry.
    """

    def __init__(
        self,
        query: Query,
        shedder: Optional[LoadShedder],
        observe: bool = False,
        model_version: int = 1,
    ) -> None:
        self.query = query
        self.shedder = shedder
        self.matcher = query.new_matcher()
        self.model_version = model_version
        self.windows = 0
        self.memberships_kept = 0
        self.memberships_dropped = 0
        self.complex_events = 0
        self.window_seconds = None
        if observe:
            from repro.obs.registry import Histogram

            self.window_seconds = Histogram()

    def process_window(
        self, window: Window, predicted_ws: float
    ) -> List[ComplexEvent]:
        """Shed and match one complete window.

        The one shed-whole-window-then-match body of the codebase: the
        shedder resolves every position of the window in one pass under
        ``predicted_ws`` (the coordinator's prediction, not local
        state), and the matcher sees only the kept positions.
        """
        if self.window_seconds is not None:
            return self._process_window_timed(window, predicted_ws)
        return self._process_window(window, predicted_ws)

    def _process_window_timed(
        self, window: Window, predicted_ws: float
    ) -> List[ComplexEvent]:
        started = time.perf_counter()
        complex_events = self._process_window(window, predicted_ws)
        self.window_seconds.observe(time.perf_counter() - started)
        return complex_events

    def _process_window(
        self, window: Window, predicted_ws: float
    ) -> List[ComplexEvent]:
        self.windows += 1
        shedder = self.shedder
        events = window.events
        if shedder is not None and shedder.active:
            # a complete window is a natural micro-batch: one kernel
            # pass resolves every (event, position) of the window
            mask = shedder.should_drop_batch(
                events, range(len(events)), predicted_ws
            )
            kept_positions = [p for p, drop in enumerate(mask) if not drop]
            kept_events = [events[p] for p in kept_positions]
            self.memberships_dropped += len(events) - len(kept_events)
            self.memberships_kept += len(kept_events)
        else:
            kept_positions = list(range(len(events)))
            kept_events = list(events)
            self.memberships_kept += len(kept_events)
        matches = self.matcher.match_window(kept_events, kept_positions)
        # detection_time is the window's close time (stream time): the
        # shard's local processing clock is meaningless cluster-wide.
        # ComplexEvent identity (pattern, window, constituents) is what
        # the sequential-equality guarantee covers.
        complex_events = [
            ComplexEvent(
                pattern_name=self.query.name,
                window_id=window.window_id,
                events=tuple(e for _pos, e in match),
                detection_time=window.close_time,
            )
            for match in matches
        ]
        self.complex_events += len(complex_events)
        return complex_events

    def swap_model(self, payload: dict, version: int) -> None:
        """Hot-swap the broadcast model into the local shedder."""
        model = model_from_dict(payload)
        if self.shedder is not None and hasattr(self.shedder, "rebind_model"):
            self.shedder.rebind_model(model)
        self.model_version = version

    def apply_command(self, command, active: bool) -> None:
        """Apply a coordinated shedding state change."""
        if self.shedder is None:
            return
        if command is not None:
            self.shedder.on_drop_command(command)
        if active:
            self.shedder.activate()
        else:
            self.shedder.deactivate()

    def metrics(self) -> Dict[str, object]:
        total = self.memberships_kept + self.memberships_dropped
        report: Dict[str, object] = {
            "windows": self.windows,
            "memberships_kept": self.memberships_kept,
            "memberships_dropped": self.memberships_dropped,
            "drop_rate": self.memberships_dropped / total if total else 0.0,
            "complex_events": self.complex_events,
            "model_version": self.model_version,
            "shedding_active": (
                self.shedder.active if self.shedder is not None else False
            ),
        }
        if self.shedder is not None:
            report["shed_decisions"] = self.shedder.decisions
            report["shed_drops"] = self.shedder.drops
        if self.window_seconds is not None:
            # raw bucket state: the coordinator merges it into the
            # registry's histogram family (bucket layouts match)
            report["window_seconds"] = self.window_seconds.state()
        if self.shedder is not None and hasattr(self.shedder, "model"):
            model = self.shedder.model
            if hasattr(model, "fingerprint"):
                report["model_fingerprint"] = model.fingerprint()
        return report

    # -- checkpointing -------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The chain's replayable state for a shard checkpoint.

        Captures everything a respawned worker cannot reconstruct from
        the fork image plus coordinator broadcasts: cumulative
        counters and the shedder's counters/command/activation.  The
        matcher evaluates each window whole, so it carries nothing
        between windows.  The model is deliberately absent
        (coordinator-owned, re-broadcast on recovery), keeping
        checkpoints small.
        """
        state: Dict[str, object] = {
            "model_version": self.model_version,
            "windows": self.windows,
            "memberships_kept": self.memberships_kept,
            "memberships_dropped": self.memberships_dropped,
            "complex_events": self.complex_events,
        }
        if self.shedder is not None:
            state["shedder"] = shedder_state_to_dict(self.shedder)
        return state

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Resume from :meth:`state_dict` output (respawn-from-checkpoint)."""
        self.model_version = int(state["model_version"])
        self.windows = int(state["windows"])
        self.memberships_kept = int(state["memberships_kept"])
        self.memberships_dropped = int(state["memberships_dropped"])
        self.complex_events = int(state["complex_events"])
        shedder_state = state.get("shedder")
        if shedder_state is not None and self.shedder is not None:
            apply_shedder_state(self.shedder, shedder_state)


class CheckpointWriter:
    """Periodic, atomic, virtual-clock-stamped shard checkpoints.

    ``interval`` counts *windows processed*: after every ``interval``
    windows the full chain state is written via temp-file +
    ``os.replace`` (see :func:`repro.core.persistence.write_json_atomic`),
    so a crash at any instant leaves either the previous or the new
    complete checkpoint on disk, never a torn one.  The stamp is the
    latest window close time seen -- *stream* (virtual) time, the only
    clock that means the same thing across processes and replays.
    """

    __slots__ = (
        "path",
        "interval",
        "chains",
        "stamp",
        "_since_last",
        "checkpoints_written",
        "bytes_written",
        "last_stamp",
        "restored",
    )

    def __init__(
        self,
        path: str,
        chains: Dict[str, ShardChain],
        interval: int = 200,
    ) -> None:
        if interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.path = path
        self.interval = interval
        self.chains = chains
        self.stamp = 0.0
        self._since_last = 0
        self.checkpoints_written = 0
        self.bytes_written = 0
        self.last_stamp = 0.0
        self.restored = False

    def restore(self) -> bool:
        """Resume chain state from the last checkpoint, if one exists."""
        payload = read_json_checkpoint(self.path, "shard")
        if payload is None:
            return False
        for name, state in payload["chains"].items():
            if name in self.chains:
                self.chains[name].restore_state(state)
        self.stamp = float(payload["stamp"])
        self.last_stamp = self.stamp
        self.restored = True
        return True

    def observe_window(self, close_time: float) -> None:
        """One window was processed; checkpoint if the interval elapsed."""
        if close_time > self.stamp:
            self.stamp = close_time
        self._since_last += 1
        if self._since_last >= self.interval:
            self.write()

    def write(self) -> None:
        """Write a checkpoint now (atomic rename)."""
        payload = {
            "format_version": STATE_FORMAT_VERSION,
            "kind": "shard",
            "stamp": self.stamp,
            "chains": {
                name: chain.state_dict() for name, chain in self.chains.items()
            },
        }
        self.bytes_written += write_json_atomic(payload, self.path)
        self.checkpoints_written += 1
        self.last_stamp = self.stamp
        self._since_last = 0

    def metrics(self) -> Dict[str, object]:
        """Checkpoint counters for the shard's sync report."""
        return {
            "checkpoints": self.checkpoints_written,
            "checkpoint_bytes": self.bytes_written,
            "checkpoint_stamp": self.last_stamp,
            "stamp": self.stamp,
            "restored": self.restored,
        }


class _GracefulShutdown(BaseException):
    """Raised by the SIGTERM handler to unwind the worker loop.

    Deliberately a ``BaseException`` (like ``KeyboardInterrupt``): the
    worker's ``except Exception`` error reporting must not swallow it.
    """


def _request_shutdown(signum, frame):  # pragma: no cover - signal context
    raise _GracefulShutdown()


def shard_main(
    shard_id: int,
    chains: Dict[str, ShardChain],
    in_queue,
    out_queue,
    batch_size: int,
    linger: float,
    checkpoint_path: Optional[str] = None,
    checkpoint_interval: int = 200,
) -> None:
    """Worker process entry point (runs until a ``stop`` message).

    SIGTERM and SIGINT (``KeyboardInterrupt``) are graceful-shutdown
    requests, not crashes: the worker flushes any results it already
    computed to the coordinator and returns cleanly (exit code 0) --
    the same drain path a ``stop`` message takes.  Network front doors
    and process supervisors deliver exactly these signals on shutdown,
    and a worker traceback would misreport an orderly drain as a
    failure.
    """
    from repro.cluster.transport import BatchingSender, SpanReceiver

    # the handler must be installed in the child's main thread; fork
    # inherits the parent's disposition, which for a driver under
    # SIGTERM-based supervision would be to die mid-batch
    signal.signal(signal.SIGTERM, _request_shutdown)
    sender = None
    try:
        sender = BatchingSender(out_queue, batch_size=batch_size, linger=linger)
        receiver = SpanReceiver()
        writer = None
        if checkpoint_path is not None:
            writer = CheckpointWriter(
                checkpoint_path, chains, interval=checkpoint_interval
            )
            # a respawned worker finds its predecessor's checkpoint here
            # and resumes counters/shedder state from it; a
            # first boot finds nothing and starts fresh
            writer.restore()
        started = time.perf_counter()
        last_heard = started
        busy = 0.0
        batches_in = 0
        messages_in = 0
        running = True
        while running:
            # bounded wait, not a bare get(): the kernel may deliver a
            # process-directed signal to the queue feeder thread, where
            # CPython only sets a pending flag -- the Python-level
            # handler runs once the main thread executes bytecode
            # again, which a blocking get() would never do.  The
            # timeout bounds shutdown latency without busy-waiting.
            try:
                batch = in_queue.get(timeout=0.5)
            except queue.Empty:
                # idle heartbeat: any traffic resets the parent's
                # failure-detector clock, so an idle-but-healthy worker
                # is never suspected.  Best-effort -- a full result
                # queue means the parent has plenty of fresher evidence
                # of liveness, so dropping the beat is safe.
                now = time.perf_counter()
                if now - last_heard >= HEARTBEAT_IDLE_SECONDS:
                    try:
                        out_queue.put_nowait([("hb", shard_id)])
                        last_heard = now
                    except queue.Full:  # pragma: no cover - parent lagging
                        pass
                continue
            last_heard = time.perf_counter()
            batches_in += 1
            for message in batch:
                messages_in += 1
                tag = message[0]
                if tag == "winbatch":
                    # one message per (EventBatch, shard): shed + match
                    # every window, reply with one result batch.  An
                    # early message yields nothing until its predecessor
                    # arrives, then both; a repeat yields nothing
                    for chain_name, entries in receiver.receive(message):
                        chain = chains[chain_name]
                        work_start = time.perf_counter()
                        results = [
                            (dispatch_idx, chain.process_window(window, predicted))
                            for dispatch_idx, window, predicted in entries
                        ]
                        busy += time.perf_counter() - work_start
                        sender.send_now(("resbatch", shard_id, chain_name, results))
                        if writer is not None:
                            # checkpoint cadence ticks *after* the results
                            # ship: the checkpointed state never claims
                            # windows whose results could still be lost
                            # with this process
                            for _dispatch_idx, window, _predicted in entries:
                                writer.observe_window(window.close_time)
                elif tag == "model":
                    _tag, chain_name, payload, version = message
                    chains[chain_name].swap_model(payload, version)
                elif tag == "cmd":
                    _tag, chain_name, command, active = message
                    chains[chain_name].apply_command(command, active)
                elif tag == "sync":
                    if receiver.early:
                        # barriers are never reordered: a predecessor
                        # still missing now is lost, its windows with it
                        raise RuntimeError("span link lost a data message")
                    sender.flush()
                    wall = time.perf_counter() - started
                    repeats, receiver.repeats = receiver.repeats, 0
                    metrics = {
                        "busy_seconds": busy,
                        "wall_seconds": wall,
                        "utilization": busy / wall if wall > 0 else 0.0,
                        "batches_received": batches_in,
                        "messages_received": messages_in,
                        "repeats_dropped": repeats,
                        "chains": {
                            name: chain.metrics() for name, chain in chains.items()
                        },
                    }
                    if writer is not None:
                        metrics.update(writer.metrics())
                    out_queue.put([("sync", shard_id, message[1], metrics)])
                elif tag == "stop":
                    if writer is not None:
                        # make the final counters durable: a later run
                        # resuming from this directory starts from the
                        # end state, not the last periodic interval
                        writer.write()
                    running = False
                    break
            sender.flush()
    except (KeyboardInterrupt, _GracefulShutdown):
        # graceful drain: ship whatever results are already buffered,
        # then exit 0 -- the coordinator treats this like a ``stop``
        try:
            if sender is not None:
                sender.flush()
        except Exception:  # pragma: no cover - queue already torn down
            pass
        return
    except Exception:  # pragma: no cover - exercised via crash tests only
        out_queue.put([("err", shard_id, traceback.format_exc())])
        raise
