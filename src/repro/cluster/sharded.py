"""`ShardedPipeline`: a Pipeline whose windows execute on worker processes.

A :class:`ShardedPipeline` *is* a :class:`repro.pipeline.Pipeline`
(``run``, ``feed``, ``feed_many``, ``flush_pending``, ``finish`` and
their one batching loop are inherited); it overrides only where a
batch executes, and splits into the three roles of a window-parallel
CEP deployment (paper §5, RIP/SPECTRE shape):

- the **router** (parent process) runs every chain's ingress half --
  admission, custom middleware, window assignment -- and routes each
  *complete window* to a shard chosen by the routing policy; what
  travels is the arrival-log segment that shard has not seen yet plus
  window spans (:class:`~repro.cluster.transport.SpanLink`);
- **N shard workers** (forked processes) run the egress half -- the
  shedding decision per (event, position) and the pattern matcher --
  over their share of windows;
- the **coordinator** (parent process) owns the trained model,
  broadcasts hot model swaps and coordinated shedding state to every
  shard, and merges shard results back into exact sequential emission
  order.

State ownership is strict: workers hold only replaceable copies
(matcher, shedder, a replica of the arrival log); the model, the
window-size predictor, the overload detector, every link's high-water
mark and all routing/merge state live in the parent.  Workers are
forked *after* ``train()``/``deploy()``, so they inherit exactly the
configured shedder; later changes reach them only through coordinator
broadcasts -- which is what makes detections independent of the shard
count.

Typical use::

    sharded = (
        Pipeline.builder()
        .query(query)
        .shedder("espice", f=0.8)
        .distributed(shards=4, router="round-robin", batch_size=32)
        .build()
    )
    sharded.train(train_stream).deploy(...)
    with sharded:
        result = sharded.run(live_stream)
        sharded.retrain(fresh_stream)      # hot swap on every shard
        print(sharded.snapshot())
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.cep.clock import TickSchedule
from repro.cep.events import ComplexEvent, Event
from repro.cluster.coordinator import ClusterCoordinator, ClusterSnapshot
from repro.cluster.elastic import Autoscaler
from repro.cluster.routing import Router, create_router
from repro.cluster.transport import (
    FailureDetector,
    SpanLink,
    drain,
    drain_for,
)
from repro.cluster.worker import ShardChain, shard_main
from repro.core.persistence import (
    STATE_FORMAT_VERSION,
    model_to_dict,
    window_to_dict,
    write_json_atomic,
)
from repro.pipeline.batching import EventBatch
from repro.pipeline.pipeline import Pipeline, PipelineResult
from repro.shedding.base import DropCommand

#: Capacity (in batches) of each worker's worker->coordinator result
#: queue.  Generous -- the merge loop drains every queue inside every
#: feed and sync wait -- but finite, so a stalled coordinator exerts
#: backpressure on the shards instead of buffering their results in
#: unbounded parent-process memory.  Per-worker (not shared): a worker
#: killed mid-``put`` can leave a shared queue's write lock held and
#: its stream corrupt, which would poison every surviving shard;
#: per-worker queues confine that damage to the dead shard, whose
#: queue the recovery path discards wholesale.
RESULT_QUEUE_BATCHES = 4096


@dataclass
class ShardedResult(PipelineResult):
    """A :class:`~repro.pipeline.PipelineResult` of a cluster ``run``,
    plus its wall time and the cluster snapshot taken at its end."""

    wall_seconds: float
    snapshot: ClusterSnapshot

    @property
    def events_per_second(self) -> float:
        """Ingested events per wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_fed / self.wall_seconds


class _ChainState:
    """Router-side state of one chain: predictor, dispatch bookkeeping."""

    def __init__(self, chain) -> None:
        self.chain = chain
        self.name = chain.query.name
        # the window-size predictor is coordinator-owned shared state:
        # seeded from the chain's (possibly primed) operator so a
        # sharded run predicts exactly like the sequential run would
        self.size_sum, self.size_count = chain.operator.predictor_state
        self.pending_events = 0  # this chain's in-flight backpressure

    def predict(self, window) -> float:
        """Update-then-predict for a complete window about to be routed.

        Folds ``window`` into the running average (truncated windows
        excluded, as in ``CEPOperator``) and returns the prediction the
        shard sheds the whole window under.
        """
        if not window.truncated:
            self.size_sum += window.size
            self.size_count += 1
        if self.size_count == 0:
            return 0.0
        return self.size_sum / self.size_count


class ShardedPipeline(Pipeline):
    """A :class:`~repro.pipeline.Pipeline` whose windows run on forked shards.

    Two ``linger`` bounds apply: the wrapped pipeline's
    ``PipelineConfig.linger`` cuts the router's micro-batches in event
    time, as it does in-process; ``linger`` here is the wall-clock bound
    after which each shard's :class:`~repro.cluster.transport.SpanLink`
    flushes a partly filled IPC batch.  ``batch_size`` sizes both the
    router's micro-batches and the IPC batches.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        shards: int,
        router: Union[str, Router, None] = None,
        batch_size: int = 32,
        linger: float = 0.0,
        sync_timeout: float = 120.0,
        fault_tolerant: bool = False,
        checkpoint_dir: Optional[str] = None,
        checkpoint_interval: int = 200,
        heartbeat_timeout: float = 30.0,
        autoscaler: Optional[Autoscaler] = None,
    ) -> None:
        if shards <= 0:
            raise ValueError("shard count must be positive")
        if checkpoint_interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        for chain in pipeline.chains:
            if chain.adaptive_options is not None:
                raise ValueError(
                    "adaptive retraining is coordinator work in a cluster: "
                    "drop .adaptive() and call retrain() on the "
                    "ShardedPipeline (drift signals appear in snapshot())"
                )
            # egress = [shedding, match, emit, *custom]; shed+match run
            # on the shards and emission happens at merge time, so a
            # custom egress stage would silently never execute
            if len(chain.egress) > 3:
                raise ValueError(
                    "custom egress stages do not run in sharded mode "
                    "(shedding/matching happen on the shard workers); "
                    "use ingress stages (they run on the router) or a "
                    ".sink() (fires on the merged, ordered detections)"
                )
        # the router cuts its micro-batches at the cluster's batch size
        super().__init__(
            pipeline.chains, replace(pipeline.config, batch_size=batch_size)
        )
        self.shards = shards
        self.router = create_router(router, shards)
        self.batch_size = batch_size
        self.linger = linger
        self.sync_timeout = sync_timeout
        # fault tolerance: with fault_tolerant=True a dead worker is
        # respawned (resuming from its checkpoint when checkpoint_dir
        # is set) and its unacked windows are replayed; without it a
        # worker death fails the run, exactly as before
        self.fault_tolerant = fault_tolerant
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = checkpoint_interval
        self.autoscaler = autoscaler
        self.started = False
        self._ctx = multiprocessing.get_context("fork")
        self._workers: List[multiprocessing.Process] = []
        self._senders: List[SpanLink] = []
        self._in_queues: list = []
        self._out_queues: list = []
        self._chain_states: List[_ChainState] = []
        #: (chain, dispatch index) -> (shard, cost, replay entry); the
        #: entry -- (index, window, predicted_ws), what a link ships --
        #: is retained only in fault-tolerant mode, where it is the
        #: replay buffer for windows a dead worker never acked
        self._in_flight: Dict[Tuple[str, int], Tuple[int, int, Optional[tuple]]] = {}
        self._sync_seen: set = set()
        self._detector_shedding: Dict[str, bool] = {}
        #: last coordinated-shedding broadcast per chain, re-sent to
        #: respawned and scaled-up workers (detector-driven commands
        #: exist only as broadcasts, so a fresh fork would miss them)
        self._last_command: Dict[str, Tuple[Optional[DropCommand], bool]] = {}
        self._sync_token = 0
        #: wall-clock overload checks: anchored by start(), re-anchored
        #: at every check, so at most one check runs per interval
        self._checks = TickSchedule(self.config.check_interval)
        self._failure_detector = FailureDetector(timeout=heartbeat_timeout)
        self._windows_since_checkpoint = 0
        self.coordinator: Optional[ClusterCoordinator] = None
        self._cluster_collector = None

    # ------------------------------------------------------------------
    # pipeline lifecycle (all before start())
    # ------------------------------------------------------------------
    def train(self, stream: Iterable[Event]) -> "ShardedPipeline":
        """Fit every chain's model (coordinator-side; before start)."""
        self._require_not_started("train")
        super().train(stream)
        return self

    def warm(self, stream: Iterable[Event]) -> "ShardedPipeline":
        """Warm online shedder statistics (before start)."""
        self._require_not_started("warm")
        super().warm(stream)
        return self

    def deploy(self, *args: Any, **kwargs: Any) -> "ShardedPipeline":
        """Build shedders/detectors on the chains (before start)."""
        self._require_not_started("deploy")
        super().deploy(*args, **kwargs)
        return self

    def _require_not_started(self, what: str) -> None:
        if self.started:
            raise RuntimeError(
                f"{what}() must happen before start(): workers inherit the "
                "configured pipeline at fork (use retrain() for live model "
                "updates)"
            )

    def simulate(self, *args: Any, **kwargs: Any) -> Any:
        """Not on a cluster: virtual time is an in-process replay."""
        raise TypeError(
            "a ShardedPipeline cannot simulate(); replay across shards with "
            "repro.runtime.simulation.simulate_sharded(pipeline, stream, ...)"
        )

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedPipeline":
        """Fork the shard workers (idempotent)."""
        if self.started:
            return self
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "sharded execution requires the 'fork' start method: "
                "queries carry predicates (closures) that cannot cross a "
                "spawn boundary"
            )
        chains = self.chains
        self._chain_states = [_ChainState(chain) for chain in chains]
        trained_rates = {}
        for chain in chains:
            model = chain.model
            if model is not None and model.windows_trained > 0:
                trained_rates[chain.query.name] = (
                    model.matches_trained / model.windows_trained
                )
        self.coordinator = ClusterCoordinator(
            [chain.query.name for chain in chains],
            shards=self.shards,
            trained_match_rates=trained_rates,
        )
        for chain in chains:
            self.coordinator.shedding[chain.query.name] = bool(
                chain.shedder is not None and chain.shedder.active
            )
        self._detector_shedding = {
            chain.query.name: False for chain in chains
        }
        self._workers = []
        self._senders = []
        self._in_queues = []
        self._out_queues = []
        self._in_flight = {}
        if self.checkpoint_dir is not None:
            os.makedirs(self.checkpoint_dir, exist_ok=True)
        for shard_id in range(self.shards):
            self._spawn_shard(shard_id)
        self._checks.start(time.monotonic())
        self.started = True
        return self

    def _checkpoint_path(self, shard_id: int) -> Optional[str]:
        """Stable per-shard checkpoint file (survives respawns)."""
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir, f"shard-{shard_id}.json")

    def _spawn_shard(self, shard_id: int) -> None:
        """Fork one worker and wire its queues/sender at ``shard_id``.

        Used by :meth:`start` for the initial membership and by the
        recovery and scale-up paths for later joins: the worker forks
        from the *current* parent, so it inherits the latest trained
        model and parent-side shedder state; broadcast-only state (the
        detector's drop commands) is re-sent by the caller.
        """
        chains = self.chains
        coordinator = self.coordinator
        # the per-shard feed stays unbounded by design: the router
        # must never block on a slow or *dead* shard (worker death
        # is property-tested), so bounded-ness is enforced upstream
        # by BatchingSender flow control plus the coordinator's
        # queue-depth checks, not by a blocking put
        in_queue = self._ctx.Queue()  # repro-lint: disable=R004 router must not block on a dead shard; see comment
        # result path: this worker blocks (finite flow control) once
        # the merge loop falls RESULT_QUEUE_BATCHES batches behind --
        # the parent drains every out-queue inside feed/sync waits, so
        # the bound is backpressure, not a deadlock risk
        out_queue = self._ctx.Queue(maxsize=RESULT_QUEUE_BATCHES)
        # per-shard chain state is built pre-fork so each worker
        # owns a private matcher but inherits the shared shedder
        shard_chains = {
            chain.query.name: ShardChain(
                chain.query,
                chain.shedder,
                observe=self.observability is not None,
                model_version=(
                    coordinator.model_versions[chain.query.name]
                    if coordinator is not None
                    else 1
                ),
            )
            for chain in chains
        }
        process = self._ctx.Process(
            target=shard_main,
            args=(
                shard_id,
                shard_chains,
                in_queue,
                out_queue,
                self.batch_size,
                self.linger,
            ),
            kwargs={
                "checkpoint_path": self._checkpoint_path(shard_id),
                "checkpoint_interval": self.checkpoint_interval,
            },
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        process.start()
        # a fresh worker holds no log replica: it gets a fresh link
        sender = SpanLink(in_queue, self.batch_size, self.linger)
        if shard_id == len(self._workers):
            self._workers.append(process)
            self._in_queues.append(in_queue)
            self._out_queues.append(out_queue)
            self._senders.append(sender)
        else:
            self._workers[shard_id] = process
            self._in_queues[shard_id] = in_queue
            self._out_queues[shard_id] = out_queue
            self._senders[shard_id] = sender
        self._failure_detector.register(shard_id)

    def _resend_broadcast_state(self, shard_id: int) -> None:
        """Replay broadcast-only chain state to a freshly forked worker."""
        sender = self._senders[shard_id]
        for name, (command, active) in self._last_command.items():
            sender.send(("cmd", name, command, active))
        sender.flush()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every worker (idempotent; terminates stragglers)."""
        if not self.started:
            return
        self._stop_workers(list(range(len(self._workers))), timeout)
        self._workers = []
        self._senders = []
        self._in_queues = []
        self._out_queues = []
        self.started = False

    def _stop_workers(self, shard_ids: List[int], timeout: float) -> None:
        """Stop, join (or terminate) workers; release their queues."""
        for shard_id in shard_ids:
            try:
                self._senders[shard_id].send(("stop",))
                self._senders[shard_id].flush()
            except (OSError, ValueError):  # queue already gone
                pass
        for shard_id in shard_ids:
            process = self._workers[shard_id]
            process.join(timeout=timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            # release the queues without joining their feeder threads:
            # a dead worker's in-queue may hold undeliverable windows,
            # and flushing them would hang interpreter exit
            for q in (self._in_queues[shard_id], self._out_queues[shard_id]):
                q.cancel_join_thread()
                q.close()

    def __enter__(self) -> "ShardedPipeline":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.shutdown(timeout=0.5)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # where a batch executes: the Pipeline hooks
    # ------------------------------------------------------------------
    def run(
        self, stream: Iterable[Event], batch_size: Optional[int] = None
    ) -> ShardedResult:
        """``Pipeline.run``, timed, with the cluster snapshot attached.

        Detections equal a sequential ``Pipeline.run``'s (contents and
        order); sinks fire as the coordinator releases merged results.
        """
        self.start()
        started = time.perf_counter()
        result = super().run(stream, batch_size)
        return ShardedResult(
            matches=result.matches,
            metrics=result.metrics,
            events_fed=result.events_fed,
            wall_seconds=time.perf_counter() - started,
            snapshot=self.snapshot(),
        )

    def _collect_batch(
        self,
        batch: Optional[EventBatch],
        out: Optional[Dict[str, List[ComplexEvent]]],
    ) -> None:
        """The per-batch step: ingress on the router, then ship the
        batch's complete windows (one ``winbatch`` per shard), drain
        results, check health and overload, and release what has merged.
        A replay (``out`` is ``None``) skips the overload detector."""
        if batch:
            self.start()
            for state in self._chain_states:
                chain = state.chain
                # synchronous drain, like QueryChain.run_batch: the
                # staging depth of the batch is not backlog
                assign_stage = chain.window_assign
                depth_before = assign_stage.max_queue_depth
                ingested = chain.ingest_batch(batch)
                queued = chain.queue.consume_all()
                assign_stage.max_queue_depth = max(depth_before, 1 if queued else 0)
                items = ingested.items
                closed = [w for i in ingested.closes for w in items[i].closed_windows]
                self._dispatch(state, closed)
            self.coordinator.events_ingested += len(batch.events)
            self._events_fed += len(batch.events)
            if self._in_flight:
                # nothing owed, nothing to poll for (heartbeats can wait:
                # a shard is only suspected while it owes results)
                self._drain_results()
            if self.fault_tolerant:
                self._check_health()
            self._check_overload(live=out is not None)
        if self.started:
            self._release(out)

    def _flush_windows(
        self, now: float, out: Optional[Dict[str, List[ComplexEvent]]]
    ) -> None:
        """End of stream: ship still-open windows (truncated), wait for
        every shard to catch up and release the remaining detections."""
        if not self.started:
            return  # nothing was ever fed
        for state in self._chain_states:
            self._dispatch(state, state.chain.window_assign.flush())
        self._sync()
        self._release(out)

    def _ticks_observable(self) -> bool:
        """No tick duty on the router (no batch cut, no ``on_tick``): the
        coordinator checks overload per shipped batch instead."""
        return False

    def _release(self, out: Optional[Dict[str, List[ComplexEvent]]]) -> None:
        """Dispatch everything the merge buffer has released, in order."""
        for state in self._chain_states:
            ready = self.coordinator.take_ordered(state.name)
            if ready:
                state.chain.emit.dispatch(ready)
                if out is not None:
                    out[state.name].extend(ready)

    def backpressure(self) -> Dict[str, Dict[str, object]]:
        """Per-chain queue/rejection counters plus cluster backpressure."""
        report = super().backpressure()
        pending = {state.name: state.pending_events for state in self._chain_states}
        for name, entry in report.items():
            entry["cluster_pending_events"] = pending.get(name, 0)
        return report

    def _dispatch(self, state: _ChainState, windows: List) -> None:
        """Stamp and route ``windows``; ship each shard its share."""
        per_shard: Dict[int, List[tuple]] = {}
        for window in windows:
            shard, entry = self._stamp(state, window)
            per_shard.setdefault(shard, []).append(entry)
        self._ship(state, per_shard)

    def _stamp(self, state: _ChainState, window) -> Tuple[int, tuple]:
        """Route + stamp one window; returns its shard and link entry."""
        predicted = state.predict(window)
        shard = self.router.route(window, state.name)
        cost = window.size
        self.router.on_dispatch(shard, cost)
        index = self.coordinator.stamp_dispatch(state.name, shard, cost)
        entry = (index, window, predicted)
        # fault tolerance keeps the link entry until the result merges:
        # it is the replay buffer for a dead worker's unacked windows
        self._in_flight[(state.name, index)] = (
            shard,
            cost,
            entry if self.fault_tolerant else None,
        )
        state.pending_events += cost
        if self.checkpoint_dir is not None:
            self._windows_since_checkpoint += 1
            if self._windows_since_checkpoint >= self.checkpoint_interval:
                self.checkpoint_coordinator()
        return shard, entry

    def _ship(self, state: _ChainState, per_shard: Dict[int, List[tuple]]) -> None:
        """Send each shard its share of a batch as one ``winbatch``: the
        log segment above its link's high-water mark plus window spans."""
        keep_from = state.chain.window_assign.assigner.oldest_open_start
        for shard, entries in per_shard.items():
            self._senders[shard].ship(state.name, entries, keep_from)

    def _drain_results(self, block_timeout: Optional[float] = None) -> None:
        if block_timeout is not None:
            # split the blocking budget across the per-worker queues so
            # the wait loop's cadence is independent of the shard count
            per_queue = max(0.005, block_timeout / max(1, len(self._out_queues)))
            for out_queue in list(self._out_queues):
                self._consume(drain_for(out_queue, per_queue))
        for out_queue in list(self._out_queues):
            self._consume(drain(out_queue))

    def _consume(self, messages) -> None:
        coordinator = self.coordinator
        for message in messages:
            tag = message[0]
            if tag == "resbatch":
                _tag, shard, chain_name, results = message
                self._failure_detector.observe(shard)
                state = self._chain_state(chain_name)
                for index, events in results:
                    info = self._in_flight.pop((chain_name, index), None)
                    if info is None:
                        # already merged: a duplicated IPC batch, or a
                        # replayed window whose original result also
                        # survived.  Exactly-once: ignore, count.
                        coordinator.duplicates_ignored += 1
                        continue
                    _shard, cost, _entry = info
                    self.router.on_complete(shard, cost)
                    state.pending_events -= cost
                    coordinator.on_result(chain_name, shard, index, cost, events)
            elif tag == "sync":
                _tag, shard, token, metrics = message
                self._failure_detector.observe(shard)
                coordinator.on_shard_metrics(shard, metrics)
                self._sync_seen.add((shard, token))
            elif tag == "hb":
                # idle heartbeat: pure liveness evidence
                self._failure_detector.observe(message[1])
            elif tag == "err":
                _tag, shard, trace = message
                raise RuntimeError(
                    f"shard worker {shard} failed:\n{trace}"
                )

    def _chain_state(self, name: str) -> _ChainState:
        for state in self._chain_states:
            if state.name == name:
                return state
        raise KeyError(name)

    # ------------------------------------------------------------------
    # sync barrier
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Flush all transport, wait until every shard caught up."""
        self._sync_token += 1
        token = self._sync_token
        self._sync_seen = set()
        for sender in self._senders:
            sender.send(("sync", token))
            sender.flush()
        expected = {(shard, token) for shard in range(self.shards)}
        self._wait(
            lambda: expected.issubset(self._sync_seen),
            lambda: (
                f"cluster sync timed out after {self.sync_timeout:.0f}s "
                f"(missing shards: "
                f"{sorted(s for s, t in expected - self._sync_seen)})"
            ),
            resync_token=token,
        )

    def _wait(
        self,
        done: Callable[[], bool],
        timed_out: Callable[[], str],
        resync_token: Optional[int] = None,
    ) -> None:
        """Drain results until ``done()``; recover or fail dead workers."""
        deadline = time.monotonic() + self.sync_timeout
        while not done():
            self._drain_results(block_timeout=0.05)
            if time.monotonic() > deadline:
                raise RuntimeError(timed_out())
            if self.fault_tolerant:
                # a shard that died holding a sync token must get the
                # token again after recovery, or the barrier would wait
                # out the full timeout for nothing
                self._check_health(resync_token=resync_token)
            else:
                self._raise_on_dead_workers()

    def _raise_on_dead_workers(self) -> None:
        dead = [
            process.name
            for process in self._workers
            if not process.is_alive()
        ]
        if dead:
            raise RuntimeError(
                f"shard worker(s) died: {', '.join(dead)} -- "
                "results for their in-flight windows are lost; "
                "restart the ShardedPipeline"
            )

    # ------------------------------------------------------------------
    # fault detection and recovery
    # ------------------------------------------------------------------
    def _check_health(self, resync_token: Optional[int] = None) -> None:
        """Detect dead or wedged workers and recover them in place.

        ``Process.is_alive()`` is the authoritative death signal; the
        heartbeat failure detector additionally catches a worker that
        is alive but silent while owing results (wedged in a syscall,
        stopped by an operator) -- such a worker is killed and then
        recovered through the same path, bounding the stall at the
        heartbeat timeout instead of the sync timeout.
        """
        suspects = set(self._failure_detector.suspects())
        for shard_id in range(self.shards):
            process = self._workers[shard_id]
            if process.is_alive():
                if shard_id in suspects and self._shard_pending(shard_id) > 0:
                    # silent while owing results: treat as failed.  The
                    # kill is safe because recovery discards both of
                    # the worker's queues wholesale.
                    process.kill()
                    process.join(timeout=5.0)
                else:
                    continue
            self._recover_shard(shard_id, resync_token)

    def _shard_pending(self, shard_id: int) -> int:
        """Windows dispatched to ``shard_id`` whose results are owed."""
        return sum(
            1
            for (_chain, _index), (shard, _cost, _entry) in self._in_flight.items()
            if shard == shard_id
        )

    def _recover_shard(self, shard_id: int, resync_token: Optional[int]) -> None:
        """Respawn a dead worker and replay its unacked windows.

        Recovery protocol (exactly-once):

        1. salvage -- drain whatever results the dead worker got out
           before dying (each one retires its window from the replay
           set);
        2. discard both of its queues (a kill -9 mid-``put`` can leave
           them corrupt; they are private to this shard, so nothing
           else is lost);
        3. respawn at the same shard id, on a fresh link -- the fork
           restores the shard checkpoint at boot (when checkpointing is
           on); the parent re-sends broadcast-only state (drop commands);
        4. replay the windows still in flight to this shard, in
           dispatch order, from the coordinator's replay buffer (one
           self-contained rebase message per chain, overlapping windows
           sharing their events); the merge buffer's duplicate guard
           makes a salvaged-and-replayed result merge exactly once;
        5. re-send the in-progress sync token, if the death happened
           inside a barrier.
        """
        old_out = self._out_queues[shard_id]
        try:
            # salvage: anything the worker shipped completely is real
            self._consume(drain(old_out, max_batches=RESULT_QUEUE_BATCHES))
        except RuntimeError:
            # the worker reported an application error before dying --
            # respawning would only crash-loop on the same windows
            raise
        except Exception:  # pragma: no cover - queue corrupted mid-put
            pass
        for old_queue in (self._in_queues[shard_id], old_out):
            try:
                old_queue.cancel_join_thread()
                old_queue.close()
            except Exception:  # pragma: no cover - already torn down
                pass
        self._spawn_shard(shard_id)
        self._resend_broadcast_state(shard_id)
        replay: Dict[str, List[tuple]] = {}
        for (chain_name, index), (shard, _cost, entry) in sorted(
            self._in_flight.items(), key=lambda item: item[0][1]
        ):
            if shard == shard_id and entry is not None:
                replay.setdefault(chain_name, []).append(entry)
        for chain_name, entries in replay.items():
            self._ship(self._chain_state(chain_name), {shard_id: entries})
        if resync_token is not None:
            sender = self._senders[shard_id]
            sender.send(("sync", resync_token))
            sender.flush()
        self.coordinator.record_restart(
            shard_id, sum(map(len, replay.values()))
        )

    def ping(self) -> ClusterSnapshot:
        """Round-trip a sync barrier and return a fresh snapshot."""
        self.start()
        self._sync()
        return self.snapshot()

    # ------------------------------------------------------------------
    # elasticity
    # ------------------------------------------------------------------
    def scale_up(self) -> int:
        """Add one shard worker; returns its id.

        The new worker forks from the current parent (so it carries the
        latest model and shedder state), joins the routing membership,
        and -- under the consistent-hash policy -- takes over only its
        own key ranges: windows already dispatched elsewhere are
        unaffected, and the merge buffer keeps releasing detections in
        dispatch order, so the output stream is oblivious to the join.
        """
        if not self.started:
            raise RuntimeError("scale_up() needs start() first")
        shard_id = self.router.add_shard()
        self.coordinator.add_shard()
        self.shards += 1
        self._spawn_shard(shard_id)
        self._resend_broadcast_state(shard_id)
        self.coordinator.record_rebalance()
        return shard_id

    def scale_down(self) -> int:
        """Retire the highest-id shard worker; returns the retired id.

        Leave protocol: the shard exits the routing membership first
        (no new windows can reach it), then the coordinator waits for
        every window it still owes -- so nothing is lost -- takes a
        final metrics sync (its counters retire into the cluster
        totals), and only then stops the worker and discards its
        queues.
        """
        if not self.started:
            raise RuntimeError("scale_down() needs start() first")
        if self.shards <= 1:
            raise ValueError("cannot scale below one shard")
        retiring = self.router.remove_shard()
        # drain: the retiring shard still owes results for windows
        # routed before the membership change
        self._wait(
            lambda: self._shard_pending(retiring) == 0,
            lambda: f"scale_down timed out draining shard {retiring}",
        )
        # final metrics sync so the retiring shard's counters fold into
        # the coordinator's retirement accumulator, keeping cluster
        # totals monotonic across the membership change
        self._sync()
        self._stop_workers([retiring], timeout=10.0)
        self._workers.pop()
        self._senders.pop()
        self._in_queues.pop()
        self._out_queues.pop()
        self._failure_detector.forget(retiring)
        self.coordinator.remove_shard()
        self.shards -= 1
        self.coordinator.record_rebalance()
        return retiring

    def scale_to(self, target: int) -> None:
        """Grow or shrink the membership to ``target`` shards."""
        if target <= 0:
            raise ValueError("target shard count must be positive")
        while self.shards < target:
            self.scale_up()
        while self.shards > target:
            self.scale_down()

    # ------------------------------------------------------------------
    # coordinator checkpoint (replay cursor + in-flight window buffers)
    # ------------------------------------------------------------------
    def checkpoint_coordinator(self) -> Optional[str]:
        """Write the coordinator's recovery state to ``checkpoint_dir``.

        The file carries, per chain, the replay cursor (first dispatch
        index not yet merged) and the serialized in-flight window
        buffers per shard -- together with the per-shard worker
        checkpoints this is the cluster's full crash-recovery state.
        Written automatically every ``checkpoint_interval`` dispatched
        windows; callable directly for an on-demand snapshot.  Returns
        the path (``None`` when no ``checkpoint_dir`` is configured).
        """
        if self.checkpoint_dir is None:
            return None
        coordinator = self.coordinator
        in_flight: Dict[str, List[dict]] = {}
        for (chain_name, index), (shard, _cost, entry) in sorted(
            self._in_flight.items(), key=lambda item: item[0][1]
        ):
            record: Dict[str, object] = {"index": index, "shard": shard}
            if entry is not None:
                _index, window, predicted = entry
                record["window"] = window_to_dict(window)
                record["predicted_ws"] = predicted
            in_flight.setdefault(chain_name, []).append(record)
        payload = {
            "format_version": STATE_FORMAT_VERSION,
            "kind": "coordinator",
            "shards": self.shards,
            "replay_cursors": {
                state.name: coordinator.replay_cursor(state.name)
                for state in self._chain_states
            },
            "windows_dispatched": dict(coordinator.windows_dispatched),
            "in_flight": in_flight,
        }
        path = os.path.join(self.checkpoint_dir, "coordinator.json")
        write_json_atomic(payload, path)
        self._windows_since_checkpoint = 0
        return path

    # ------------------------------------------------------------------
    # coordinated shedding
    # ------------------------------------------------------------------
    def broadcast_shedding(
        self, command: DropCommand, chain: Optional[str] = None
    ) -> None:
        """Activate shedding with ``command`` on every shard at once.

        Applies the same command to the coordinator-side shedder (so a
        later fork or ``retrain()`` replays consistent state) and
        broadcasts it to all workers.  ``chain`` limits the change to
        one query.
        """
        super().broadcast_shedding(command, chain)
        self._command_shards(chain, command, True)

    def stop_shedding(self, chain: Optional[str] = None) -> None:
        """Deactivate shedding on every shard at once."""
        super().stop_shedding(chain)
        self._command_shards(chain, None, False)

    def _command_shards(
        self, chain: Optional[str], command: Optional[DropCommand], active: bool
    ) -> None:
        """Broadcast a shedding state change to every shard, all chains
        or ``chain``, and record it coordinator-side."""
        self.start()
        states = self._chain_states if chain is None else [self._chain_state(chain)]
        for state in states:
            self._broadcast(("cmd", state.name, command, active))
            self.coordinator.shedding[state.name] = active

    def _broadcast(self, message) -> None:
        if message[0] == "cmd":
            # remember the latest coordinated-shedding state per chain:
            # broadcasts reach only the workers alive at send time, so
            # respawned and scaled-up workers need a replay of this
            self._last_command[message[1]] = (message[2], message[3])
        for sender in self._senders:
            sender.send(message)
            sender.flush()

    def _check_overload(self, live: bool = True) -> None:
        """Coordinated shedding: one detector decision, every shard obeys.

        The coordinator owns each chain's overload detector; the
        "queue size" it checks is the cluster-wide backpressure (events
        dispatched to shards but not yet matched).  State changes are
        broadcast so all shards activate, re-command or deactivate
        together -- shards never make independent shedding decisions.

        ``live=False`` (the :meth:`run` replay path) skips the detector
        entirely: a sequential ``Pipeline.run`` drains its queue
        synchronously, so its detector never sees backlog during a
        replay ("no shedding unless a shedder was activated
        explicitly").  Feeding the detector the wall-clock-dependent
        cluster backpressure here instead made ``run()`` shed a
        timing-dependent set of windows -- the tests/obs two-shard
        determinism flake (missing tail detections).  The autoscaler
        stays active in both modes: membership changes are
        detection-invariant.  Live feeds (:meth:`feed`,
        :meth:`feed_many`, :meth:`flush_pending`) keep the full
        wall-clock semantics -- backpressure there is physical.
        """
        now = time.monotonic()
        if not self._checks.due(now):
            return
        self._checks.start(now)
        if self.autoscaler is not None:
            target = self.autoscaler.decide(self.snapshot())
            if target is not None:
                self.scale_to(target)
        if not live:
            return
        for state in self._chain_states:
            detector = state.chain.detector
            if detector is None:
                continue
            command = detector.check(now, state.pending_events)
            if command is not None:
                self._command_shards(state.name, command, True)
                self._detector_shedding[state.name] = True
            elif self._detector_shedding[state.name] and not detector.shedding:
                # only undo detector-driven activations: shedding that
                # was configured statically (inherited at fork or via
                # broadcast_shedding) is not the detector's to cancel
                self._command_shards(state.name, None, False)
                self._detector_shedding[state.name] = False

    # ------------------------------------------------------------------
    # hot model swap
    # ------------------------------------------------------------------
    def retrain(self, stream: Iterable[Event]) -> "ShardedPipeline":
        """Retrain on ``stream`` and hot-swap the model on every shard.

        Training runs coordinator-side (paper §3.1: model building is
        not time-critical); the new model is then broadcast and each
        worker rebinds its shedder atomically
        (:meth:`~repro.core.shedder.ESpiceShedder.rebind_model`), so
        shards keep serving O(1) decisions throughout the swap.
        """
        super().retrain(stream)
        if self.started:
            for state in self._chain_states:
                model = state.chain.model
                if model is None:
                    continue
                version = self.coordinator.model_versions[state.name] + 1
                self.coordinator.model_versions[state.name] = version
                payload = model_to_dict(model)
                self._broadcast(("model", state.name, payload, version))
        return self

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def enable_observability(self, obs=None, **kwargs):
        """Enable unified observability across router and shards.

        Must precede :meth:`start`: workers inherit their per-window
        timing histogram at fork.  The router-side ingress stages are
        instrumented exactly like a sequential pipeline (worker-side
        egress wrappers exist but never run -- shards execute
        :class:`~repro.cluster.worker.ShardChain`, not the chain's
        stage list); worker-side counters and the per-window
        processing-time histogram travel back in every sync reply and
        a cluster collector folds them into the same shared
        :class:`~repro.obs.registry.Registry`, so one scrape sees the
        whole deployment.
        """
        self._require_not_started("enable_observability")
        obs = super().enable_observability(obs, **kwargs)
        if self._cluster_collector is None:
            self._cluster_collector = self._register_cluster_collector(obs.registry)
        return obs

    def _register_cluster_collector(self, registry):
        """Pull collector mapping coordinator state into registry families."""
        ingested = registry.counter(
            "repro_cluster_events_ingested_total",
            "Events ingested by the cluster router",
        )
        dispatched = registry.counter(
            "repro_cluster_windows_dispatched_total",
            "Windows routed to shard workers",
            labels=("query",),
        )
        detections = registry.counter(
            "repro_cluster_complex_events_total",
            "Detections merged back in sequential order",
            labels=("query",),
        )
        shed_decisions = registry.counter(
            "repro_cluster_shed_decisions_total",
            "Worker-side shedding decisions (as of last sync)",
            labels=("query",),
        )
        shed_drops = registry.counter(
            "repro_cluster_shed_drops_total",
            "Worker-side dropped memberships (as of last sync)",
            labels=("query",),
        )
        drop_rate = registry.gauge(
            "repro_cluster_drop_rate",
            "Cluster-wide membership drop rate (as of last sync)",
            labels=("query",),
        )
        shedding_active = registry.gauge(
            "repro_cluster_shedding_active",
            "1 while coordinated shedding is active on the shards",
            labels=("query",),
        )
        pending = registry.gauge(
            "repro_cluster_shard_pending_events",
            "Events dispatched to a shard but not yet matched",
            labels=("shard",),
        )
        utilization = registry.gauge(
            "repro_cluster_shard_utilization",
            "Busy fraction of a shard worker (as of last sync)",
            labels=("shard",),
        )
        alive = registry.gauge(
            "repro_cluster_shard_alive",
            "1 while the shard worker process is alive",
            labels=("shard",),
        )
        window_seconds = registry.histogram(
            "repro_cluster_window_seconds",
            "Per-window shed+match time on the shard workers",
            labels=("query",),
        )
        shard_count = registry.gauge(
            "repro_cluster_shards",
            "Current shard worker membership size",
        )
        restarts = registry.counter(
            "repro_cluster_restarts_total",
            "Worker respawns after a detected failure",
            labels=("shard",),
        )
        rebalances = registry.counter(
            "repro_cluster_rebalances_total",
            "Membership changes (scale-up/scale-down) rebalancing routing",
        )
        duplicates = registry.counter(
            "repro_cluster_duplicates_ignored_total",
            "Result deliveries dropped by the exactly-once merge guard",
        )
        replayed = registry.counter(
            "repro_cluster_windows_replayed_total",
            "Windows re-sent to respawned workers from the replay buffer",
        )
        checkpoints = registry.counter(
            "repro_cluster_checkpoints_total",
            "Shard checkpoints written (as of last sync)",
            labels=("shard",),
        )
        checkpoint_bytes = registry.counter(
            "repro_cluster_checkpoint_bytes",
            "Cumulative shard checkpoint bytes (as of last sync)",
            labels=("shard",),
        )
        checkpoint_age = registry.gauge(
            "repro_cluster_checkpoint_age_seconds",
            "Virtual (stream-time) seconds of work past the last checkpoint",
            labels=("shard",),
        )

        def collect() -> None:
            coordinator = self.coordinator
            if coordinator is None:
                return
            ingested.labels().set_total(coordinator.events_ingested)
            for name, count in coordinator.windows_dispatched.items():
                dispatched.labels(query=name).set_total(count)
            for name, count in coordinator.complex_event_counts.items():
                detections.labels(query=name).set_total(count)
            for name, totals in coordinator.chain_totals().items():
                shed_decisions.labels(query=name).set_total(
                    totals["shed_decisions"]
                )
                shed_drops.labels(query=name).set_total(totals["shed_drops"])
                drop_rate.labels(query=name).set(totals["drop_rate"])
                shedding_active.labels(query=name).set(
                    1 if coordinator.shedding.get(name) else 0
                )
                # worker histograms ship cumulative state every sync, so
                # the registry child is rebuilt per scrape (merging each
                # sync again would double-count)
                child = window_seconds.labels(query=name)
                child.counts = [0] * len(child.counts)
                child.sum = 0.0
                child.count = 0
                for status in coordinator.shard_status:
                    state = status.chains.get(name, {}).get("window_seconds")
                    if state is not None:
                        child.merge(
                            state["counts"], state["sum"], state["count"]
                        )
            shard_count.labels().set(len(coordinator.shard_status))
            rebalances.labels().set_total(coordinator.rebalances)
            duplicates.labels().set_total(coordinator.duplicates_ignored)
            replayed.labels().set_total(coordinator.windows_replayed)
            workers = self._workers
            for status in coordinator.shard_status:
                shard = str(status.shard_id)
                pending.labels(shard=shard).set(status.pending_events)
                utilization.labels(shard=shard).set(status.utilization)
                restarts.labels(shard=shard).set_total(status.restarts)
                checkpoints.labels(shard=shard).set_total(status.checkpoints)
                checkpoint_bytes.labels(shard=shard).set_total(
                    status.checkpoint_bytes
                )
                checkpoint_age.labels(shard=shard).set(status.checkpoint_age)
                process = (
                    workers[status.shard_id]
                    if status.shard_id < len(workers)
                    else None
                )
                alive.labels(shard=shard).set(
                    1 if process is not None and process.is_alive() else 0
                )

        return registry.register_collector(collect)

    def metrics(self) -> Dict[str, Dict[str, Dict[str, object]]]:
        """Unified per-query metrics: router stages + shard totals.

        The ``router`` half reports live per-stage metrics for the
        ingress stages that actually run in the parent (same shape as
        the sequential ``Pipeline.metrics()``); the ``workers`` half is
        the coordinator's as-of-last-sync aggregation of the shard-side
        shed+match counters.  Egress stages are omitted: they do not
        execute in sharded mode and their zeros would be misleading.
        """
        totals = (
            self.coordinator.chain_totals() if self.coordinator is not None else {}
        )
        report: Dict[str, Dict[str, Dict[str, object]]] = {}
        for chain in self.chains:
            name = chain.query.name
            report[name] = {
                "router": {
                    stage.name: stage.metrics() for stage in chain.ingress
                },
                "workers": totals.get(name, {}),
            }
        return report

    def snapshot(self) -> ClusterSnapshot:
        """Cluster-level snapshot: shards, routing, shedding, drift."""
        if self.coordinator is None:
            raise RuntimeError("snapshot() needs start() first")
        transport = {
            "batch_size": self.batch_size,
            "linger": self.linger,
            "batches": sum(s.batches_sent for s in self._senders),
            "messages": sum(s.messages_sent for s in self._senders),
            "events_shipped": sum(s.events_shipped for s in self._senders),
            "avg_batch": round(
                sum(s.messages_sent for s in self._senders)
                / max(1, sum(s.batches_sent for s in self._senders)),
                2,
            ),
        }
        return self.coordinator.snapshot(
            router_metrics=self.router.metrics(),
            transport_metrics=transport,
            alive=[process.is_alive() for process in self._workers],
        )
