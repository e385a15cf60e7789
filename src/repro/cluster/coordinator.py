"""The cluster coordinator: shared state, merge-and-order, observability.

One coordinator per :class:`~repro.cluster.sharded.ShardedPipeline`.
It owns everything that must *not* be per-shard:

- the trained utility model (the single source of truth that
  :meth:`~repro.cluster.sharded.ShardedPipeline.retrain` broadcasts),
- the merge buffer that re-orders shard results back into the exact
  sequential emission order (windows are stamped with a dispatch index
  when routed; results are released in index order, making a sharded
  run's output provably identical to a sequential run's),
- per-shard metrics, drift signals and backpressure, aggregated into
  one :class:`ClusterSnapshot`.

Workers keep only replaceable state (matcher, shedder copy); the
coordinator keeps everything the cluster has to agree on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cep.events import ComplexEvent


@dataclass
class ShardStatus:
    """One shard's health and workload, as of its last sync."""

    shard_id: int
    alive: bool = True
    pending_windows: int = 0  # dispatched, result not yet received
    pending_events: int = 0  # their total event count (backpressure)
    windows: int = 0
    memberships_kept: int = 0
    memberships_dropped: int = 0
    drop_rate: float = 0.0
    complex_events: int = 0
    busy_seconds: float = 0.0
    wall_seconds: float = 0.0
    utilization: float = 0.0
    batches_received: int = 0
    messages_received: int = 0
    model_versions: Dict[str, int] = field(default_factory=dict)
    model_fingerprints: Dict[str, str] = field(default_factory=dict)
    shedding_active: Dict[str, bool] = field(default_factory=dict)
    #: raw per-chain metrics dicts of the last sync (worker-side truth)
    chains: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: fault tolerance: times this shard's worker was respawned
    restarts: int = 0
    #: checkpoint counters from the worker's last sync (0 when
    #: checkpointing is off): files written, cumulative bytes, the
    #: virtual-clock stamp of the last file vs the latest window seen
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    checkpoint_stamp: float = 0.0
    stamp: float = 0.0
    restored: bool = False

    @property
    def checkpoint_age(self) -> float:
        """Virtual seconds of processed stream not yet checkpointed."""
        return max(0.0, self.stamp - self.checkpoint_stamp)


@dataclass
class DriftSignal:
    """Coordinator-level drift check of one chain (match-rate collapse).

    The coordinator sees every merged detection and every dispatched
    window, so it can compare the live matches-per-window rate against
    the rate the deployed model was trained at -- the cluster-level
    analogue of :class:`repro.core.drift.DriftDetector`'s match-rate
    signal (per-shard hit rates would be biased by routing).
    """

    chain: str
    windows: int
    match_rate: Optional[float]
    trained_match_rate: float
    drifted: bool
    reason: str = ""


@dataclass
class ClusterSnapshot:
    """One cluster-level view: shards, routing, shedding, drift."""

    shards: List[ShardStatus]
    events_ingested: int
    windows_dispatched: Dict[str, int]
    complex_events: Dict[str, int]
    shedding: Dict[str, bool]
    drift: Dict[str, DriftSignal]
    router: Dict[str, object]
    transport: Dict[str, object]
    model_versions: Dict[str, int]
    #: fault tolerance / elasticity counters (defaulted so older
    #: constructors keep working)
    restarts: int = 0
    rebalances: int = 0
    duplicates_ignored: int = 0
    windows_replayed: int = 0

    @property
    def total_pending_events(self) -> int:
        """Cluster-wide backpressure: dispatched-but-unfinished events."""
        return sum(shard.pending_events for shard in self.shards)

    def drop_rate(self) -> float:
        """Cluster-wide membership drop rate."""
        kept = sum(s.memberships_kept for s in self.shards)
        dropped = sum(s.memberships_dropped for s in self.shards)
        total = kept + dropped
        return dropped / total if total else 0.0

    def utilization(self) -> List[float]:
        """Per-shard busy fractions, in shard order."""
        return [shard.utilization for shard in self.shards]

    def queue_depths(self) -> List[int]:
        """Per-shard outstanding window counts, in shard order."""
        return [shard.pending_windows for shard in self.shards]


class _MergeBuffer:
    """Re-orders one chain's shard results by dispatch index."""

    def __init__(self) -> None:
        self._pending: Dict[int, List[ComplexEvent]] = {}
        self._next_dispatch = 0
        self._next_release = 0
        self._released: List[ComplexEvent] = []

    def stamp(self) -> int:
        """Next dispatch index (called by the router path, in order)."""
        index = self._next_dispatch
        self._next_dispatch += 1
        return index

    def offer(self, index: int, events: List[ComplexEvent]) -> bool:
        """Accept one shard result and release any now-contiguous run.

        Returns ``False`` (and changes nothing) when ``index`` was
        already offered -- the exactly-once guard: a duplicated IPC
        batch or a replayed-then-also-delivered window merges once, in
        order, no matter how many copies of its result arrive.
        """
        if index < self._next_release or index in self._pending:
            return False
        self._pending[index] = events
        while self._next_release in self._pending:
            self._released.extend(self._pending.pop(self._next_release))
            self._next_release += 1
        return True

    @property
    def outstanding(self) -> int:
        """Dispatched windows whose results have not been released."""
        return self._next_dispatch - self._next_release

    def take_released(self) -> List[ComplexEvent]:
        """Return and clear the in-order detections released so far."""
        released = self._released
        self._released = []
        return released


class ClusterCoordinator:
    """Aggregates shard results and state for a sharded pipeline."""

    def __init__(
        self,
        chain_names: List[str],
        shards: int,
        trained_match_rates: Optional[Dict[str, float]] = None,
        drift_history: int = 200,
        drift_threshold: float = 0.3,
        drift_min_windows: int = 20,
    ) -> None:
        self.chain_names = list(chain_names)
        self.shard_status = [ShardStatus(shard_id=i) for i in range(shards)]
        self.events_ingested = 0
        self.windows_dispatched = {name: 0 for name in chain_names}
        self.complex_event_counts = {name: 0 for name in chain_names}
        self.model_versions = {name: 1 for name in chain_names}
        self.shedding = {name: False for name in chain_names}
        self._merge = {name: _MergeBuffer() for name in chain_names}
        self._trained_match_rates = dict(trained_match_rates or {})
        self._drift_threshold = drift_threshold
        self._drift_min_windows = drift_min_windows
        self._recent_matches: Dict[str, deque] = {
            name: deque(maxlen=drift_history) for name in chain_names
        }
        self._drift_history = drift_history
        # fault tolerance / elasticity counters
        self.rebalances = 0
        self.duplicates_ignored = 0
        self.windows_replayed = 0
        # chain totals of shards retired by scale-down, so cluster-wide
        # counters stay monotonic across membership changes
        self._retired_chains: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # dispatch / result bookkeeping
    # ------------------------------------------------------------------
    def stamp_dispatch(self, chain: str, shard: int, cost: int) -> int:
        """Record one routed window; returns its global dispatch index."""
        self.windows_dispatched[chain] += 1
        status = self.shard_status[shard]
        status.pending_windows += 1
        status.pending_events += cost
        return self._merge[chain].stamp()

    def on_result(
        self, chain: str, shard: int, index: int, cost: int,
        events: List[ComplexEvent],
    ) -> bool:
        """Fold one shard result into the merge buffer and counters.

        Returns ``False`` for a duplicate (already-merged) result --
        every counter is left untouched, so a duplicated IPC batch or
        a replayed window's second delivery is invisible in both the
        detections and the statistics.
        """
        if not self._merge[chain].offer(index, events):
            self.duplicates_ignored += 1
            return False
        if shard < len(self.shard_status):
            status = self.shard_status[shard]
            status.pending_windows = max(0, status.pending_windows - 1)
            status.pending_events = max(0, status.pending_events - cost)
        self.complex_event_counts[chain] += len(events)
        self._recent_matches[chain].append(len(events))
        return True

    def take_ordered(self, chain: str) -> List[ComplexEvent]:
        """In-order detections released since the last take."""
        return self._merge[chain].take_released()

    def outstanding(self, chain: Optional[str] = None) -> int:
        """Windows dispatched but not yet merged back."""
        if chain is not None:
            return self._merge[chain].outstanding
        return sum(buffer.outstanding for buffer in self._merge.values())

    def replay_cursor(self, chain: str) -> int:
        """First dispatch index not yet merged for ``chain``.

        Everything below the cursor has been released in order and must
        never be re-emitted; everything at or above it is fair game for
        replay after a worker death.  Together with the merge buffer's
        duplicate guard this is the exactly-once contract.
        """
        return self._merge[chain]._next_release  # noqa: SLF001 - own class

    # ------------------------------------------------------------------
    # fault tolerance / elastic membership
    # ------------------------------------------------------------------
    def record_restart(self, shard: int, replayed: int) -> None:
        """A dead worker was respawned with ``replayed`` windows re-sent."""
        self.shard_status[shard].restarts += 1
        self.windows_replayed += replayed

    def record_rebalance(self) -> None:
        """The membership changed and the key ranges were rerouted."""
        self.rebalances += 1

    def add_shard(self) -> int:
        """Track one more shard; returns its (dense) id."""
        shard_id = len(self.shard_status)
        self.shard_status.append(ShardStatus(shard_id=shard_id))
        return shard_id

    def remove_shard(self) -> int:
        """Stop tracking the highest shard id; returns the retired id.

        The retired shard's last-synced per-chain counters move into a
        retirement accumulator so :meth:`chain_totals` stays monotonic
        across scale-downs (a shrunk cluster must not appear to have
        un-processed windows).
        """
        if len(self.shard_status) <= 1:
            raise ValueError("cannot remove the last shard")
        status = self.shard_status.pop()
        for name, chain in status.chains.items():
            bucket = self._retired_chains.setdefault(
                name,
                {
                    "windows": 0,
                    "memberships_kept": 0,
                    "memberships_dropped": 0,
                    "complex_events": 0,
                    "shed_decisions": 0,
                    "shed_drops": 0,
                },
            )
            bucket["windows"] += int(chain.get("windows", 0))
            bucket["memberships_kept"] += int(chain.get("memberships_kept", 0))
            bucket["memberships_dropped"] += int(
                chain.get("memberships_dropped", 0)
            )
            bucket["complex_events"] += int(chain.get("complex_events", 0))
            bucket["shed_decisions"] += int(chain.get("shed_decisions", 0))
            bucket["shed_drops"] += int(chain.get("shed_drops", 0))
        return status.shard_id

    @property
    def restarts(self) -> int:
        """Total worker respawns across all live shards."""
        return sum(status.restarts for status in self.shard_status)

    # ------------------------------------------------------------------
    # shard metrics (sync replies)
    # ------------------------------------------------------------------
    def on_shard_metrics(self, shard: int, metrics: Dict[str, object]) -> None:
        """Fold one worker's sync metrics into its status row."""
        status = self.shard_status[shard]
        status.busy_seconds = metrics["busy_seconds"]
        status.wall_seconds = metrics["wall_seconds"]
        status.utilization = metrics["utilization"]
        status.batches_received = metrics["batches_received"]
        status.messages_received = metrics["messages_received"]
        # repeats the worker's link dropped since its last sync
        self.duplicates_ignored += metrics.get("repeats_dropped", 0)
        if "checkpoints" in metrics:
            status.checkpoints = metrics["checkpoints"]
            status.checkpoint_bytes = metrics["checkpoint_bytes"]
            status.checkpoint_stamp = metrics["checkpoint_stamp"]
            status.stamp = metrics["stamp"]
            status.restored = metrics["restored"]
        windows = kept = dropped = detected = 0
        for name, chain_metrics in metrics["chains"].items():
            windows += chain_metrics["windows"]
            kept += chain_metrics["memberships_kept"]
            dropped += chain_metrics["memberships_dropped"]
            detected += chain_metrics["complex_events"]
            status.model_versions[name] = chain_metrics["model_version"]
            status.shedding_active[name] = chain_metrics["shedding_active"]
            if "model_fingerprint" in chain_metrics:
                status.model_fingerprints[name] = chain_metrics["model_fingerprint"]
            status.chains[name] = dict(chain_metrics)
        status.windows = windows
        status.memberships_kept = kept
        status.memberships_dropped = dropped
        total = kept + dropped
        status.drop_rate = dropped / total if total else 0.0
        status.complex_events = detected

    def chain_totals(self) -> Dict[str, Dict[str, object]]:
        """Worker-side metrics aggregated per chain across all shards.

        Sums of the last sync's counters (windows, memberships,
        detections, shed decisions/drops) keyed by chain name -- the
        cluster analogue of the worker half of a sequential chain's
        stage metrics.  As-of-last-sync, like every shard-side view.
        """
        totals: Dict[str, Dict[str, object]] = {}
        for name in self.chain_names:
            retired = self._retired_chains.get(name, {})
            windows = retired.get("windows", 0)
            kept = retired.get("memberships_kept", 0)
            dropped = retired.get("memberships_dropped", 0)
            detected = retired.get("complex_events", 0)
            decisions = retired.get("shed_decisions", 0)
            drops = retired.get("shed_drops", 0)
            active = False
            for status in self.shard_status:
                chain = status.chains.get(name)
                if chain is None:
                    continue
                windows += chain["windows"]
                kept += chain["memberships_kept"]
                dropped += chain["memberships_dropped"]
                detected += chain["complex_events"]
                decisions += chain.get("shed_decisions", 0)
                drops += chain.get("shed_drops", 0)
                active = active or bool(chain.get("shedding_active"))
            total = kept + dropped
            totals[name] = {
                "windows": windows,
                "memberships_kept": kept,
                "memberships_dropped": dropped,
                "drop_rate": dropped / total if total else 0.0,
                "complex_events": detected,
                "shed_decisions": decisions,
                "shed_drops": drops,
                "shedding_active": active,
            }
        return totals

    # ------------------------------------------------------------------
    # drift
    # ------------------------------------------------------------------
    def drift_signals(self) -> Dict[str, DriftSignal]:
        """Cluster-level match-rate drift per chain."""
        signals: Dict[str, DriftSignal] = {}
        for name in self.chain_names:
            recent = self._recent_matches[name]
            trained = self._trained_match_rates.get(name, 0.0)
            rate = sum(recent) / len(recent) if recent else None
            if len(recent) < self._drift_min_windows:
                signals[name] = DriftSignal(
                    name, len(recent), rate, trained, False, "warming up"
                )
            elif (
                rate is not None
                and trained > 0.0
                and rate < self._drift_threshold * trained
            ):
                signals[name] = DriftSignal(
                    name,
                    len(recent),
                    rate,
                    trained,
                    True,
                    f"match rate {rate:.2f} collapsed vs trained {trained:.2f}",
                )
            else:
                signals[name] = DriftSignal(
                    name, len(recent), rate, trained, False, "model fits"
                )
        return signals

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------
    def snapshot(
        self,
        router_metrics: Dict[str, object],
        transport_metrics: Dict[str, object],
        alive: List[bool],
    ) -> ClusterSnapshot:
        """Assemble the cluster-level snapshot."""
        for status, shard_alive in zip(self.shard_status, alive):
            status.alive = shard_alive
        return ClusterSnapshot(
            shards=list(self.shard_status),
            events_ingested=self.events_ingested,
            windows_dispatched=dict(self.windows_dispatched),
            complex_events=dict(self.complex_event_counts),
            shedding=dict(self.shedding),
            drift=self.drift_signals(),
            router=dict(router_metrics),
            transport=dict(transport_metrics),
            model_versions=dict(self.model_versions),
            restarts=self.restarts,
            rebalances=self.rebalances,
            duplicates_ignored=self.duplicates_ignored,
            windows_replayed=self.windows_replayed,
        )
