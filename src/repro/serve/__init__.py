"""`repro.serve`: the asyncio network front door of a pipeline.

Everything downstream of ingestion -- sharding, micro-batching,
shedding -- already existed; this subsystem is how events *enter* from
the network.  One listening socket speaks two protocols (sniffed per
connection):

- a **length-prefixed framed TCP protocol** (4-byte magic ``RPV1``,
  then 4-byte-length JSON frames) for high-rate ingest clients
  (:mod:`repro.serve.protocol`, :class:`repro.serve.client.ServeClient`);
- a **minimal HTTP/1.1 surface** -- ``POST /ingest``,
  ``GET /metrics``, ``GET /healthz`` -- for curl-style integration
  (:mod:`repro.serve.http`).

Requests pass a composable :class:`~repro.serve.middleware.ServerMiddleware`
chain (token-bucket rate limiting keyed per client, shared-secret
auth, request logging, max-in-flight admission) before decoded events
enter a **bounded** ingest queue feeding
:meth:`repro.pipeline.Pipeline.feed`; overflowing batches are refused
with a structured ``overloaded`` response that carries the queue
utilization and the pipeline's live shedding state -- backpressure on
the wire instead of unbounded buffering.  ``stop()`` drains
gracefully: stop accepting, flush the live micro-batch and still-open
windows, emit the final detections.

Robustness is graded, not binary: a
:class:`~repro.serve.health.HealthMonitor` degradation ladder
(HEALTHY → DEGRADED → OVERLOADED → DRAINING) tightens rate limits,
refuses non-essential ops and raises coordinated shedding as pressure
builds; :class:`~repro.serve.admission.DeadlineAdmission` rejects
requests whose latency budget the measured queue wait would already
blow; and :mod:`repro.serve.resilience` gives clients seeded-jitter
exponential backoff plus a circuit breaker.  The server drives a
:class:`~repro.pipeline.Pipeline`; a fault-tolerant
:class:`~repro.cluster.sharded.ShardedPipeline` is one, so a cluster
is served through the same consumer loop and calls.

The ``repro-serve`` console script (:mod:`repro.serve.cli`) serves a
trained pipeline directly; :func:`repro.runtime.serving.serve_replay`
is the test/benchmark harness replaying stored streams through a real
socket.
"""

from repro.serve.admission import DeadlineAdmission
from repro.serve.client import IngestReport, ServeClient
from repro.serve.health import HealthMonitor, HealthPolicy, HealthState
from repro.serve.middleware import (
    MaxInFlight,
    Rejection,
    Request,
    RequestLogMiddleware,
    ServerMiddleware,
    SharedSecretAuth,
    TokenBucketLimiter,
    setup_middleware,
)
from repro.serve.protocol import (
    ProtocolError,
    event_to_wire,
    events_to_wire,
    wire_to_event,
    wire_to_events,
)
from repro.serve.resilience import CircuitBreaker, ExponentialBackoff
from repro.serve.server import PipelineServer, ServeConfig

__all__ = [
    "CircuitBreaker",
    "DeadlineAdmission",
    "ExponentialBackoff",
    "HealthMonitor",
    "HealthPolicy",
    "HealthState",
    "IngestReport",
    "MaxInFlight",
    "PipelineServer",
    "ProtocolError",
    "Rejection",
    "Request",
    "RequestLogMiddleware",
    "ServeClient",
    "ServeConfig",
    "ServerMiddleware",
    "SharedSecretAuth",
    "TokenBucketLimiter",
    "event_to_wire",
    "events_to_wire",
    "setup_middleware",
    "wire_to_event",
    "wire_to_events",
]
