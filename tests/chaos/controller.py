"""Reusable fault-injection controller for cluster chaos tests.

The controller wraps the replay stream: actions are scheduled at exact
*event indices* and fire synchronously from the router's own thread as
the stream is consumed -- the only deterministic place to inject a
fault into a virtual-time replay (wall-clock timers would race the run
and flake on 1-core CI).  Because actions run on the coordinator
thread, they may safely call any ``ShardedPipeline`` method
(``scale_up``, ``scale_down``) or signal worker processes.

IPC-level faults (duplicated or reordered batches) are injected by
swapping a :class:`~repro.cluster.transport.BatchingSender`'s queue for
a :class:`FaultyQueue` proxy -- the sender's ``queue`` attribute is
deliberately reassignable for exactly this kind of testing.
"""

import os
import signal
import time


def wait_until(predicate, timeout=10.0, interval=0.01):
    """Poll ``predicate`` until it is truthy; raise on timeout.

    The condition-wait primitive for everything process-related in
    these tests: no fixed sleeps, so a loaded 1-core runner waits
    exactly as long as it must and a fast machine barely waits at all.
    """
    deadline = time.monotonic() + timeout
    while True:
        result = predicate()
        if result:
            return result
        if time.monotonic() > deadline:
            raise TimeoutError(f"condition not met within {timeout:.1f}s")
        time.sleep(interval)


class FaultyQueue:
    """``put()``-proxy injecting duplicate or reordered IPC batches.

    ``duplicate_every=N`` ships every Nth window batch twice;
    ``delay_every=N`` holds every Nth window batch back one slot, so
    adjacent batches arrive swapped (the mildest reordering a real
    transport can produce).  Batches carrying control messages
    (``sync``/``stop``/``model``/``cmd``) are barriers: anything held
    is flushed first and the control batch is never tampered with --
    faults target the data plane, not the protocol.
    """

    CONTROL_TAGS = frozenset({"sync", "stop", "model", "cmd"})

    def __init__(self, inner, duplicate_every=0, delay_every=0):
        self.inner = inner
        self.duplicate_every = duplicate_every
        self.delay_every = delay_every
        self.batches = 0
        self.duplicated = 0
        self.delayed = 0
        self._held = None

    def _is_control(self, batch):
        return any(
            isinstance(message, tuple) and message[0] in self.CONTROL_TAGS
            for message in batch
        )

    def _flush_held(self):
        if self._held is not None:
            self.inner.put(self._held)
            self._held = None

    def put(self, batch):
        if self._is_control(batch):
            self._flush_held()
            self.inner.put(batch)
            return
        self.batches += 1
        if (
            self.delay_every
            and self._held is None
            and self.batches % self.delay_every == 0
        ):
            # hold this batch; the next data batch overtakes it
            self._held = batch
            self.delayed += 1
            return
        self.inner.put(batch)
        self._flush_held()
        if self.duplicate_every and self.batches % self.duplicate_every == 0:
            self.inner.put(batch)
            self.duplicated += 1


class ChaosController:
    """Schedules fault injections at exact event indices of a replay."""

    def __init__(self, sharded):
        self.sharded = sharded
        self._actions = []
        self.log = []
        #: shard_id -> the FaultyQueue installed on that shard's sender
        #: (kept here because shutdown() discards the senders)
        self.faulty_queues = {}

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at_event(self, index, action, *args, **kwargs):
        """Run ``action(*args, **kwargs)`` just before event ``index``."""
        self._actions.append((index, action, args, kwargs))
        self._actions.sort(key=lambda entry: entry[0])
        return self

    def wrap(self, stream):
        """The replay stream with scheduled actions fired in-line."""
        due = list(self._actions)
        for position, event in enumerate(stream):
            while due and due[0][0] <= position:
                _index, action, args, kwargs = due.pop(0)
                self.log.append((position, getattr(action, "__name__", str(action))))
                action(*args, **kwargs)
            yield event
        # anything scheduled past the stream end fires at exhaustion
        for _index, action, args, kwargs in due:
            self.log.append(("end", getattr(action, "__name__", str(action))))
            action(*args, **kwargs)

    # ------------------------------------------------------------------
    # fault actions
    # ------------------------------------------------------------------
    def kill_worker(self, shard_id):
        """kill -9 one worker and wait until the OS confirms the death."""
        process = self.sharded._workers[shard_id]
        os.kill(process.pid, signal.SIGKILL)
        wait_until(lambda: not process.is_alive())

    def stop_worker(self, shard_id):
        """SIGSTOP one worker: alive but silent (a wedged process)."""
        os.kill(self.sharded._workers[shard_id].pid, signal.SIGSTOP)

    def resume_worker(self, shard_id):
        """SIGCONT a worker stopped by :meth:`stop_worker`."""
        os.kill(self.sharded._workers[shard_id].pid, signal.SIGCONT)

    def add_shard(self):
        """Grow the membership by one worker mid-run."""
        self.sharded.scale_up()

    def remove_shard(self):
        """Retire the highest-id worker mid-run (drains it first)."""
        self.sharded.scale_down()

    def duplicate_ipc(self, shard_id, every=2):
        """Duplicate every ``every``-th window batch to ``shard_id``."""
        sender = self.sharded._senders[shard_id]
        sender.queue = FaultyQueue(sender.queue, duplicate_every=every)
        self.faulty_queues[shard_id] = sender.queue

    def delay_ipc(self, shard_id, every=2):
        """Swap every ``every``-th window batch with its successor."""
        sender = self.sharded._senders[shard_id]
        sender.queue = FaultyQueue(sender.queue, delay_every=every)
        self.faulty_queues[shard_id] = sender.queue
