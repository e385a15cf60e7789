"""`repro.cluster`: sharded multi-process execution of pipelines.

The scale-out subsystem: a :class:`ShardedPipeline` is a
:class:`repro.pipeline.Pipeline` whose windows execute on N real
worker processes -- fed, run and finished through the same methods --
with

- pluggable :mod:`routing <repro.cluster.routing>` of complete windows
  (round-robin, hash-by-key, least-loaded) -- windows are the paper's
  unit of distribution, so detections are independent of the shard
  count,
- batched :mod:`transport <repro.cluster.transport>` over the IPC
  queues (size-or-linger batching amortises pickling and queue locks),
- a :mod:`coordinator <repro.cluster.coordinator>` that owns the
  trained model, broadcasts hot swaps and coordinated shedding to all
  shards, and aggregates per-shard metrics, drift signals and
  backpressure into one :class:`ClusterSnapshot`,
- merge-and-order of emitted complex events, so a sharded run's output
  is provably equal to a sequential run's (contents and order),
- opt-in fault tolerance (``fault_tolerant=True``): heartbeat failure
  detection, dead-worker respawn from periodic
  :mod:`checkpoints <repro.cluster.worker>`, coordinator-side replay
  of unacked windows with exactly-once merge dedup,
- opt-in elasticity: ``scale_up()``/``scale_down()``/``scale_to()``
  membership changes (pair with the ``consistent-hash`` router for
  minimal rebalancing) and an :class:`Autoscaler` policy driving them
  from live utilization and queue-depth snapshots.

Construct one via ``Pipeline.builder()...distributed(shards=N)`` or
wrap an existing pipeline with :class:`ShardedPipeline` directly; the
deterministic replay driver is
:func:`repro.runtime.simulation.simulate_sharded`.
"""

from repro.cluster.coordinator import (
    ClusterCoordinator,
    ClusterSnapshot,
    DriftSignal,
    ShardStatus,
)
from repro.cluster.elastic import Autoscaler
from repro.cluster.routing import (
    ConsistentHashRouter,
    HashKeyRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    Router,
    available_routers,
    create_router,
)
from repro.cluster.sharded import ShardedPipeline, ShardedResult
from repro.cluster.transport import BatchingSender, FailureDetector

__all__ = [
    "Autoscaler",
    "BatchingSender",
    "ClusterCoordinator",
    "ClusterSnapshot",
    "ConsistentHashRouter",
    "DriftSignal",
    "FailureDetector",
    "HashKeyRouter",
    "LeastLoadedRouter",
    "RoundRobinRouter",
    "Router",
    "ShardStatus",
    "ShardedPipeline",
    "ShardedResult",
    "available_routers",
    "create_router",
]
