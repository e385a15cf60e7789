"""`PipelineServer`: the asyncio network front door of a Pipeline.

Architecture (one process, one event loop)::

    clients ──TCP──▶ listener ──▶ per-connection handler
                                   │  protocol sniff: RPV1 magic → framed,
                                   │  anything else → HTTP/1.1
                                   ▼
                       middleware chain (rate limit, auth, log, in-flight)
                                   ▼
                       bounded ingest queue  ── overflow → "overloaded"
                                   ▼
                       single consumer task ──▶ one Pipeline.feed_many()
                                   │               per admitted frame;
                                   │               flush_pending() when
                                   │               the queue runs dry
                                   ▼
                       EmitStage sinks (detections)

Design decisions, each mirroring a paper/ROADMAP concern:

- **Explicit backpressure, not buffering.**  The ingest queue is
  bounded in *events* (``max_pending_events``).  A batch that does not
  fit is refused with a structured ``overloaded`` response carrying
  the queue utilization, the pipeline's current shedding state (drop
  rate per query) and a ``retry_after`` hint derived from the measured
  drain rate -- the overload/shedding decision becomes visible on the
  wire instead of turning into unbounded server memory.
- **One consumer, deterministic order.**  All connections funnel into
  a single FIFO queue drained by one task that feeds the pipeline;
  the event order seen by the pipeline is the admission order, so a
  single client replaying a stream gets detections bit-identical to
  an in-process replay (property-tested).
- **Graded overload, not a cliff.**  A :class:`~repro.serve.health.
  HealthMonitor` ladder (HEALTHY → DEGRADED → OVERLOADED → DRAINING)
  watches queue utilization, shed rate and downstream failures; each
  rung tightens token buckets, refuses non-essential ops, and -- at
  OVERLOADED -- raises load shedding through the coordinated-shedding
  hook.  Requests may carry a deadline (``deadline_ms`` /
  ``X-Deadline-Ms``); :class:`~repro.serve.admission.DeadlineAdmission`
  refuses ones the measured queue wait would already blow.
- **No held frames.**  A micro-batch ships when it fills, when it
  lingers out (event time), or when nothing else admitted is waiting:
  the consumer flushes the partial batch whenever the queue is empty
  after a frame, so a detection leaves with the frame that completed
  it, never with a later one.  Detections are identical at any batch
  cut; a stage failing on the flushed batch counts as a feed error.
- **Graceful drain.**  ``stop()`` stops accepting, lets the consumer
  drain the queue (its last frame flushes the micro-batcher), then
  runs :meth:`repro.pipeline.Pipeline.finish` -- normally only the
  still-open windows are left to flush -- so the final detections are
  emitted before the loop winds down.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.cep.events import ComplexEvent
from repro.core.partitions import plan_partitions
from repro.obs.exposition import CONTENT_TYPE, render_prometheus, wants_prometheus
from repro.obs.snapshot import shedding_snapshot
from repro.pipeline.pipeline import Pipeline
from repro.serve import http as http_surface
from repro.serve.health import HealthMonitor, HealthPolicy, HealthState
from repro.serve.middleware import Rejection, Request, ServerMiddleware
from repro.serve.protocol import (
    MAGIC,
    ProtocolError,
    encode_frame,
    read_sized_frame,
    wire_to_events,
)
from repro.shedding.base import DropCommand

__all__ = ["ServeConfig", "PipelineServer"]


@dataclass
class ServeConfig:
    """Knobs of one server instance.

    Attributes
    ----------
    host / port:
        Listening address; port 0 binds an ephemeral port (read it
        back from :attr:`PipelineServer.port`).
    max_pending_events:
        Bound of the ingest queue in *events* (not batches): the
        server never holds more than this many admitted-but-unfed
        events, which is the memory bound the ``overloaded`` response
        protects.
    drain_timeout:
        Seconds ``stop()`` waits for the consumer to drain the queue
        before giving up (the pipeline is still flushed).
    retry_after_min / retry_after_max:
        Clamp of the ``retry_after`` hint in overloaded responses.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending_events: int = 65536
    drain_timeout: float = 30.0
    retry_after_min: float = 0.05
    retry_after_max: float = 5.0

    def __post_init__(self) -> None:
        if self.max_pending_events <= 0:
            raise ValueError("max pending events must be positive")
        if self.drain_timeout <= 0.0:
            raise ValueError("drain timeout must be positive")


class PipelineServer:
    """Serve a built :class:`~repro.pipeline.Pipeline` over TCP/HTTP.

    A :class:`~repro.cluster.sharded.ShardedPipeline` is a
    ``Pipeline`` too: the front door drives a multi-process deployment
    through the identical consumer loop and calls (``start`` forks its
    workers; detections keep sequential order via the coordinator's
    dispatch-index merge).
    """

    def __init__(
        self,
        pipeline: Pipeline,
        config: Optional[ServeConfig] = None,
        middleware: Sequence[ServerMiddleware] = (),
        observability=None,
        health_policy: Optional[HealthPolicy] = None,
    ) -> None:
        if not isinstance(pipeline, Pipeline):
            raise TypeError(
                f"PipelineServer drives a built Pipeline, not {type(pipeline).__name__}"
            )
        self.pipeline = pipeline
        self.config = config if config is not None else ServeConfig()
        #: the degradation ladder (always on; see repro.serve.health)
        self.health = HealthMonitor(health_policy)
        #: query -> shedding the ladder itself activated (and may undo)
        self._health_shedding: set = set()
        self.nonessential_rejected = 0
        self.feed_errors = 0
        self._last_feed_error: Optional[str] = None
        self.middlewares: List[ServerMiddleware] = []
        for mw in middleware:
            mw.setup_middleware(self)
        # unified observability: one repro.obs.Observability bundle
        # shared with the pipeline (instrumented dispatch + registry)
        # and scraped by this server's own wire-counter collector
        self.observability = observability
        self._obs_collector = None
        if observability is not None:
            pipeline.enable_observability(observability)
            self._obs_collector = self._register_obs_collector(
                observability.registry
            )

        self._state = "new"  # new -> serving -> draining -> stopped
        self._server: Optional[asyncio.base_events.Server] = None
        self._consumer: Optional[asyncio.Task] = None
        self._queue: Optional[asyncio.Queue] = None
        self._pending = 0  # admitted-but-unfed events (queue bound)
        self._writers: set = set()
        self._drain_rate: Optional[float] = None  # events/s EMA of the consumer

        # wire-level counters
        self.connections_total = 0
        self.connections_active = 0
        self.frames_in = 0
        self.frames_out = 0
        self.http_requests = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.events_admitted = 0
        self.events_fed = 0
        self.batches_admitted = 0
        self.overloaded_responses = 0
        self.protocol_errors = 0
        self.detections = 0
        self._detections_by_query: Dict[str, int] = {}
        self._sinks = []
        for chain in pipeline.chains:
            sink = self._count_detection(chain.query.name)
            chain.emit.subscribe(sink)
            self._sinks.append((chain, sink))

    # ------------------------------------------------------------------
    # middleware registration (the setup_middleware target)
    # ------------------------------------------------------------------
    def add_middleware(self, middleware: ServerMiddleware) -> "PipelineServer":
        """Append ``middleware`` to the chain (request order)."""
        self.middlewares.append(middleware)
        return self

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "PipelineServer":
        """Bind the listener and start the consumer (idempotent)."""
        if self._state in ("serving", "draining"):
            return self
        # a cluster forks its shard workers here, before the listener
        # binds: the first admitted event must find the cluster live,
        # and the fork must happen before the loop owns any sockets
        self.pipeline.start()
        # bounded in *batches* by the same knob that bounds pending
        # *events*: every queued entry carries >= 1 event and _admit
        # refuses batches beyond max_pending_events, so this capacity
        # can never be hit before the event bound -- it exists so the
        # memory ceiling survives any future bypass of _admit
        self._queue = asyncio.Queue(maxsize=self.config.max_pending_events)
        self._pending = 0
        self._consumer = asyncio.create_task(self._consume(), name="repro-serve-feed")
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self._state = "serving"
        return self

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def state(self) -> str:
        return self._state

    @property
    def pending_events(self) -> int:
        """Admitted events not yet fed into the pipeline."""
        return self._pending

    async def stop(self) -> Dict[str, List[ComplexEvent]]:
        """Graceful drain: stop accepting, flush everything, shut down.

        Returns the final end-of-stream detections (per query), i.e.
        what :meth:`Pipeline.finish` emitted: the still-open windows'
        tail (the consumer already flushed the micro-batch when the
        queue ran dry, so ``finish()`` normally finds it empty; a
        drain that timed out leaves the rest to it).  Idempotent; a
        second call returns an empty mapping.
        """
        if self._state in ("stopped", "new"):
            self._state = "stopped"
            return {}
        self._state = "draining"
        # bottom of the ladder: nothing new is essential while draining
        self.health.force(HealthState.DRAINING, reason="stop")
        self._apply_rate_limits()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        try:
            await asyncio.wait_for(self._queue.join(), self.config.drain_timeout)
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            pass
        if self._consumer is not None:
            self._consumer.cancel()
            try:
                await self._consumer
            except asyncio.CancelledError:
                pass
            self._consumer = None
        # end-of-stream flush: still-open windows (+ a batch the drain
        # left behind)
        final = self.pipeline.finish()
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        # detach the counting sinks: the pipeline outlives the server
        for chain, sink in self._sinks:
            if sink in chain.emit.sinks:
                chain.emit.sinks.remove(sink)
        self._sinks = []
        if self.observability is not None and self._obs_collector is not None:
            # freeze (not erase) this server's registry families: the
            # collector dies with the server, the last values survive
            self.observability.registry.unregister_collector(self._obs_collector)
            self._obs_collector = None
        self._state = "stopped"
        return final

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI's main loop)."""
        await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # the single pipeline feeder
    # ------------------------------------------------------------------
    async def _consume(self) -> None:
        queue = self._queue
        feed_many = self.pipeline.feed_many
        flush_pending = self.pipeline.flush_pending
        while True:
            events = await queue.get()
            started = time.perf_counter()
            try:
                # one feed_many per admitted batch; a call that raised
                # is resumed on the same iterator, so the events after
                # the failing micro-batch are still fed (at most one
                # failure per event, as when they were fed one by one)
                remaining = iter(events)
                for _attempt in events:
                    try:
                        feed_many(remaining)
                        break
                    except Exception as exc:
                        self._feed_failed(exc)
                if queue.empty():
                    # nothing else admitted is waiting: ship the partial
                    # micro-batch now, so a detection leaves with the
                    # frame that completed it (detections are identical
                    # at any batch cut)
                    try:
                        flush_pending()
                    except Exception as exc:
                        self._feed_failed(exc)
            finally:
                self._pending -= len(events)
                self.events_fed += len(events)
                queue.task_done()
            elapsed = time.perf_counter() - started
            if elapsed > 0.0:
                rate = len(events) / elapsed
                self._drain_rate = (
                    rate
                    if self._drain_rate is None
                    else 0.8 * self._drain_rate + 0.2 * rate
                )
            self._health_check()
            # yield so connection handlers interleave between batches
            await asyncio.sleep(0)

    def _feed_failed(self, exc: Exception) -> None:
        """A downstream failure must not kill the feeder: count it, tell
        the ladder, keep draining -- the degraded state is visible on
        /healthz.  (``asyncio.CancelledError`` is no ``Exception``: a
        cancelled feeder still stops.)"""
        self.feed_errors += 1
        self._last_feed_error = f"{type(exc).__name__}: {exc}"
        self.health.record_failure()

    def _count_detection(self, query_name: str):
        def sink(_complex_event: ComplexEvent) -> None:
            self.detections += 1
            self._detections_by_query[query_name] = (
                self._detections_by_query.get(query_name, 0) + 1
            )

        return sink

    # ------------------------------------------------------------------
    # the degradation ladder (repro.serve.health)
    # ------------------------------------------------------------------
    def estimated_wait(self) -> float:
        """Estimated seconds an admitted batch waits before the pipeline.

        Queue wait from the drain-rate EMA plus the p95 request service
        time from the request-latency histogram (when a
        ``RequestLogMiddleware`` publishes one) -- the live signals the
        deadline-admission middleware compares a request's budget to.
        """
        wait = 0.0
        if self._drain_rate is not None and self._drain_rate > 0.0:
            wait += self._pending / self._drain_rate
        for mw in self.middlewares:
            hist = getattr(mw, "_request_seconds", None)
            if hist is None:
                continue
            try:
                wait += hist.labels(op="ingest").quantile(0.95)
            except (KeyError, ValueError):
                pass  # no ingest sample yet
            break
        return wait

    def _health_check(self) -> None:
        """Feed live signals to the ladder; apply policy on transition."""
        utilization = self._pending / self.config.max_pending_events
        shed_rate = 0.0
        for chain_state in shedding_snapshot(self.pipeline).values():
            if chain_state.get("active"):
                shed_rate = max(
                    shed_rate, float(chain_state.get("drop_rate") or 0.0)
                )
        transition = self.health.evaluate(utilization, shed_rate=shed_rate)
        if transition is not None:
            self._apply_health_policy(*transition)

    def _apply_health_policy(self, old: int, new: int) -> None:
        """The countermeasures of one ladder transition."""
        self._apply_rate_limits()
        if (
            new >= HealthState.OVERLOADED
            and old < HealthState.OVERLOADED
            and new != HealthState.DRAINING
        ):
            self._raise_shedding()
        elif new < HealthState.OVERLOADED <= old:
            self._lower_shedding()

    def _apply_rate_limits(self) -> None:
        """Scale every pressure-aware middleware to the current rung."""
        factor = self.health.rate_limit_factor()
        for mw in self.middlewares:
            set_pressure = getattr(mw, "set_pressure", None)
            if set_pressure is not None:
                set_pressure(factor)

    def _raise_shedding(self) -> None:
        """Entering OVERLOADED: activate load shedding where it is off.

        Uses each chain's deployed overload plan when one exists (the
        detector's ``qmax``/``f``), falling back to the paper's default
        partitioning; only chains whose shedder the ladder itself turned
        on are remembered, so operator- or detector-driven shedding is
        never clobbered on recovery.
        """
        fraction = self.health.policy.shed_fraction
        for chain in self.pipeline.chains:
            shedder, model = chain.shedder, chain.model
            if shedder is None or model is None or shedder.active:
                continue
            detector = chain.detector
            if detector is not None:
                plan = plan_partitions(
                    detector.reference_size, detector.qmax(), detector.f
                )
            else:
                plan = plan_partitions(model.reference_size, 1000.0, 0.8)
            command = DropCommand(
                x=fraction * plan.partition_size,
                partition_count=plan.partition_count,
                partition_size=plan.partition_size,
            )
            name = chain.query.name
            self.pipeline.broadcast_shedding(command, chain=name)
            self._health_shedding.add(name)

    def _lower_shedding(self) -> None:
        """Leaving OVERLOADED: undo exactly the shedding we activated."""
        for name in sorted(self._health_shedding):
            self.pipeline.stop_shedding(chain=name)
        self._health_shedding.clear()

    # ------------------------------------------------------------------
    # request dispatch (shared by both wire surfaces)
    # ------------------------------------------------------------------
    def _dispatch(self, request: Request) -> Tuple[int, Dict[str, object]]:
        """Run the middleware chain, then the op handler.

        ``on_response`` fires in reverse order for exactly the
        middlewares whose ``on_request`` ran (vetoes included), so
        stateful middleware (in-flight slots) cannot leak.
        """
        if self.health.rejects_op(request.op):
            # the ladder's non-essential list for the current rung --
            # checked before the middleware chain so a degraded server
            # spends nothing on work it is about to refuse
            self.nonessential_rejected += 1
            return 503, {
                "ok": False,
                "error": "degraded",
                "state": self.health.state_name,
                "retry_after": self.config.retry_after_min,
            }
        ran: List[ServerMiddleware] = []
        rejection: Optional[Rejection] = None
        for mw in self.middlewares:
            ran.append(mw)
            rejection = mw.on_request(request)
            if rejection is not None:
                break
        if rejection is not None:
            status, payload = rejection.status, rejection.payload()
        else:
            status, payload = self._handle(request)
        for mw in reversed(ran):
            mw.on_response(request, payload)
        return status, payload

    def _handle(self, request: Request) -> Tuple[int, Dict[str, object]]:
        if request.op == "ingest":
            return self._admit(request.events)
        if request.op == "healthz":
            return 200, {
                "ok": True,
                "status": self._state,
                "health": self.health.state_name,
                "pending": self._pending,
                "capacity": self.config.max_pending_events,
            }
        if request.op == "metrics":
            return 200, {"ok": True, "metrics": self.metrics()}
        if request.op == "trace":
            return self._trace(request)
        if request.op == "ping":
            return 200, {"ok": True, "op": "ping"}
        return 400, {"ok": False, "error": "unknown_op", "op": request.op}

    def _trace(self, request: Request) -> Tuple[int, Dict[str, object]]:
        """Window traces: ``/trace?window=ID[&query=Q]``, ``/trace/recent``.

        Framed "trace" requests (no path) return the recent listing.
        """
        if self.observability is None:
            return 404, {"ok": False, "error": "tracing_disabled"}
        tracer = self.observability.tracer
        params = parse_qs(urlsplit(request.path).query)
        window_raw = params.get("window", [None])[0]
        if window_raw is not None:
            try:
                window_id = int(window_raw)
            except ValueError:
                return 400, {"ok": False, "error": "bad_request",
                             "detail": f"window must be an integer, got {window_raw!r}"}
            query = params.get("query", [None])[0]
            traces = tracer.get(window_id, query=query)
            if not traces:
                return 404, {"ok": False, "error": "trace_not_found",
                             "window": window_id}
            return 200, {"ok": True, "traces": [t.to_dict() for t in traces]}
        limit_raw = params.get("n", ["20"])[0]
        try:
            limit = int(limit_raw)
        except ValueError:
            return 400, {"ok": False, "error": "bad_request",
                         "detail": f"n must be an integer, got {limit_raw!r}"}
        return 200, {"ok": True, "traces": tracer.recent(limit)}

    def _admit(self, wire_events: List[object]) -> Tuple[int, Dict[str, object]]:
        """Admission: decode, check the bound, enqueue -- or push back."""
        if self._state != "serving":
            return 503, {"ok": False, "error": "draining"}
        try:
            events = wire_to_events(wire_events)
        except ProtocolError as exc:
            return 400, {"ok": False, "error": "bad_request", "detail": str(exc)}
        n = len(events)
        if n == 0:
            return 200, {"ok": True, "accepted": 0, "pending": self._pending}
        capacity = self.config.max_pending_events
        if self._pending + n > capacity:
            self.overloaded_responses += 1
            return 503, self._overloaded_payload(n, capacity)
        self._pending += n
        self.events_admitted += n
        self.batches_admitted += 1
        self._queue.put_nowait(events)
        return 200, {"ok": True, "accepted": n, "pending": self._pending}

    def _overloaded_payload(self, batch: int, capacity: int) -> Dict[str, object]:
        """The structured backpressure response (shedding on the wire)."""
        retry = self.config.retry_after_min
        if self._drain_rate is not None and self._drain_rate > 0.0:
            retry = self._pending / self._drain_rate
        retry = min(self.config.retry_after_max, max(self.config.retry_after_min, retry))
        return {
            "ok": False,
            "error": "overloaded",
            "accepted": 0,
            "batch": batch,
            "pending": self._pending,
            "capacity": capacity,
            "utilization": round(self._pending / capacity, 4),
            "retry_after": round(retry, 4),
            "shedding": shedding_snapshot(self.pipeline),
        }

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_deadline_ms(raw) -> Optional[float]:
        """``deadline_ms`` field / ``X-Deadline-Ms`` header -> seconds.

        Malformed or non-positive budgets are treated as "no deadline"
        rather than rejected: the deadline is an optional client hint,
        and a bad hint must not break a request that would otherwise
        succeed.
        """
        if raw is None or isinstance(raw, bool):
            return None
        try:
            ms = float(raw)
        except (TypeError, ValueError):
            return None
        if ms <= 0.0:
            return None
        return ms / 1000.0

    @staticmethod
    def _peer_key(writer: asyncio.StreamWriter) -> str:
        peer = writer.get_extra_info("peername")
        if isinstance(peer, tuple) and peer:
            return str(peer[0])
        return str(peer) if peer else "unknown"

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_total += 1
        self.connections_active += 1
        self._writers.add(writer)
        try:
            try:
                first = await reader.readexactly(4)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return
            self.bytes_in += 4
            if first == MAGIC:
                await self._serve_framed(reader, writer)
            else:
                await self._serve_http(reader, writer, preamble=first)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.connections_active -= 1
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_framed(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client = self._peer_key(writer)
        while True:
            try:
                frame = await read_sized_frame(reader)
            except ProtocolError as exc:
                self.protocol_errors += 1
                await self._send_frame(
                    writer, {"ok": False, "error": "protocol_error", "detail": str(exc)}
                )
                return
            if frame is None:
                return
            message, body_length = frame
            self.frames_in += 1
            self.bytes_in += body_length
            op = message.get("op")
            if op == "bye":
                await self._send_frame(writer, {"ok": True, "op": "bye"})
                return
            if not isinstance(op, str):
                self.protocol_errors += 1
                await self._send_frame(
                    writer, {"ok": False, "error": "protocol_error", "detail": "missing op"}
                )
                return
            events = message.get("events", [])
            if not isinstance(events, list):
                self.protocol_errors += 1
                await self._send_frame(
                    writer,
                    {"ok": False, "error": "protocol_error", "detail": "'events' must be an array"},
                )
                return
            auth = message.get("auth")
            request = Request(
                op=op,
                client=client,
                transport="frame",
                events=events,
                auth=auth if isinstance(auth, str) else None,
                deadline=self._parse_deadline_ms(message.get("deadline_ms")),
            )
            _status, payload = self._dispatch(request)
            payload.setdefault("op", op)
            await self._send_frame(writer, payload)

    async def _send_frame(
        self, writer: asyncio.StreamWriter, payload: Dict[str, object]
    ) -> None:
        data = encode_frame(payload)
        self.frames_out += 1
        self.bytes_out += len(data)
        writer.write(data)
        await writer.drain()

    async def _serve_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        preamble: bytes,
    ) -> None:
        client = self._peer_key(writer)
        while True:
            try:
                request = await http_surface.read_http_request(reader, preamble)
            except ProtocolError as exc:
                self.protocol_errors += 1
                await self._send_http(
                    writer,
                    400,
                    {"ok": False, "error": "bad_request", "detail": str(exc)},
                    keep_alive=False,
                )
                return
            preamble = b""  # only the first request carries sniffed bytes
            if request is None:
                return
            self.http_requests += 1
            self.bytes_in += len(request.body)
            op, error = http_surface.route(request)
            if op is None:
                status, reason = error
                await self._send_http(
                    writer,
                    status,
                    {"ok": False, "error": reason, "path": request.path},
                    keep_alive=request.keep_alive,
                )
                if not request.keep_alive:
                    return
                continue
            events: List[object] = []
            if op == "ingest":
                try:
                    body = request.json()
                except ProtocolError as exc:
                    await self._send_http(
                        writer,
                        400,
                        {"ok": False, "error": "bad_request", "detail": str(exc)},
                        keep_alive=request.keep_alive,
                    )
                    if not request.keep_alive:
                        return
                    continue
                if isinstance(body, dict):
                    raw = body.get("events", [])
                elif isinstance(body, list):
                    raw = body  # bare array bodies are accepted too
                else:
                    raw = None
                if not isinstance(raw, list):
                    await self._send_http(
                        writer,
                        400,
                        {"ok": False, "error": "bad_request", "detail": "'events' must be an array"},
                        keep_alive=request.keep_alive,
                    )
                    if not request.keep_alive:
                        return
                    continue
                events = raw
            wire_request = Request(
                op=op,
                client=client,
                transport="http",
                events=events,
                auth=request.bearer_token(),
                path=request.path,
                deadline=self._parse_deadline_ms(
                    request.header("x-deadline-ms")
                ),
            )
            status, payload = self._dispatch(wire_request)
            if (
                op == "metrics"
                and status == 200
                and self.observability is not None
                and self._wants_prometheus_text(request)
            ):
                # content negotiation: Prometheus scrapers get the text
                # format rendered from the shared registry; JSON stays
                # the default for existing clients
                text = render_prometheus(self.observability.registry)
                data = http_surface.text_response(
                    200, text, content_type=CONTENT_TYPE,
                    keep_alive=request.keep_alive,
                )
                self.bytes_out += len(data)
                writer.write(data)
                await writer.drain()
                if not request.keep_alive:
                    return
                continue
            extra: Dict[str, str] = {}
            retry_after = payload.get("retry_after")
            if status in (429, 503) and isinstance(retry_after, (int, float)):
                extra["Retry-After"] = f"{retry_after:.3f}"
            await self._send_http(
                writer, status, payload, keep_alive=request.keep_alive, extra=extra
            )
            if not request.keep_alive:
                return

    @staticmethod
    def _wants_prometheus_text(request) -> bool:
        if "format=prometheus" in request.path:
            return True
        return wants_prometheus(request.header("accept"))

    async def _send_http(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        keep_alive: bool,
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        data = http_surface.http_response(
            status, payload, keep_alive=keep_alive, extra_headers=extra
        )
        self.bytes_out += len(data)
        writer.write(data)
        await writer.drain()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _register_obs_collector(self, registry):
        """Mirror the server's wire counters into the shared registry."""
        connections = registry.counter(
            "repro_server_connections_total", "TCP connections accepted"
        )
        active = registry.gauge(
            "repro_server_connections_active", "Currently open connections"
        )
        frames = registry.counter(
            "repro_server_frames_total", "RPV1 frames", labels=("direction",)
        )
        http_requests = registry.counter(
            "repro_server_http_requests_total", "HTTP requests parsed"
        )
        transferred = registry.counter(
            "repro_server_bytes_total", "Payload bytes", labels=("direction",)
        )
        admitted = registry.counter(
            "repro_server_events_admitted_total", "Events admitted to the ingest queue"
        )
        fed = registry.counter(
            "repro_server_events_fed_total", "Events fed into the pipeline"
        )
        batches = registry.counter(
            "repro_server_batches_total", "Batches admitted to the ingest queue"
        )
        overloaded = registry.counter(
            "repro_server_overloaded_total", "Batches refused with 'overloaded'"
        )
        errors = registry.counter(
            "repro_server_protocol_errors_total", "Protocol-level request errors"
        )
        pending = registry.gauge(
            "repro_server_pending_events", "Admitted-but-unfed events"
        )
        detections = registry.counter(
            "repro_server_detections_total",
            "Complex events emitted while serving",
            labels=("query",),
        )
        rejected = registry.counter(
            "repro_server_rejected_total",
            "Requests vetoed by a middleware",
            labels=("middleware",),
        )
        health_state = registry.gauge(
            "repro_server_health_state",
            "Degradation-ladder rung (0 healthy .. 3 draining)",
        )
        health_transitions = registry.counter(
            "repro_server_health_transitions_total",
            "Degradation-ladder transitions",
            labels=("from_state", "to_state"),
        )
        deadline_rejected = registry.counter(
            "repro_server_deadline_rejected_total",
            "Requests refused because their deadline was already doomed",
        )
        feed_errors = registry.counter(
            "repro_server_feed_errors_total",
            "Downstream pipeline failures absorbed by the consumer",
        )

        def collect() -> None:
            connections.labels().set_total(self.connections_total)
            active.labels().set(self.connections_active)
            frames.labels(direction="in").set_total(self.frames_in)
            frames.labels(direction="out").set_total(self.frames_out)
            http_requests.labels().set_total(self.http_requests)
            transferred.labels(direction="in").set_total(self.bytes_in)
            transferred.labels(direction="out").set_total(self.bytes_out)
            admitted.labels().set_total(self.events_admitted)
            fed.labels().set_total(self.events_fed)
            batches.labels().set_total(self.batches_admitted)
            overloaded.labels().set_total(self.overloaded_responses)
            errors.labels().set_total(self.protocol_errors)
            pending.labels().set(self._pending)
            for name, count in self._detections_by_query.items():
                detections.labels(query=name).set_total(count)
            for mw in self.middlewares:
                mw_metrics = mw.metrics()
                vetoed = mw_metrics.get("rejected", 0) + mw_metrics.get("limited", 0)
                rejected.labels(middleware=mw.name).set_total(vetoed)
            health_state.labels().set(self.health.state)
            for (old, new), count in self.health.transition_counts.items():
                health_transitions.labels(
                    from_state=HealthState.name(old),
                    to_state=HealthState.name(new),
                ).set_total(count)
            deadline_rejected.labels().set_total(self._deadline_rejections())
            feed_errors.labels().set_total(self.feed_errors)

        return registry.register_collector(collect)

    def _deadline_rejections(self) -> int:
        """Total deadline vetoes across DeadlineAdmission middlewares."""
        total = 0
        for mw in self.middlewares:
            if getattr(mw, "name", "") == "deadline":
                total += getattr(mw, "rejected", 0)
        return total

    def metrics(self) -> Dict[str, object]:
        """Wire-level counters + middleware + pipeline backpressure."""
        return {
            "state": self._state,
            "wire": {
                "connections_total": self.connections_total,
                "connections_active": self.connections_active,
                "frames_in": self.frames_in,
                "frames_out": self.frames_out,
                "http_requests": self.http_requests,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "protocol_errors": self.protocol_errors,
            },
            "ingest": {
                "events_admitted": self.events_admitted,
                "events_fed": self.events_fed,
                "batches_admitted": self.batches_admitted,
                "pending": self._pending,
                "capacity": self.config.max_pending_events,
                "utilization": round(
                    self._pending / self.config.max_pending_events, 4
                ),
                "overloaded_responses": self.overloaded_responses,
                "drain_rate_eps": (
                    round(self._drain_rate, 1) if self._drain_rate is not None else None
                ),
            },
            "detections": {
                "total": self.detections,
                "by_query": dict(self._detections_by_query),
            },
            "middleware": {mw.name: mw.metrics() for mw in self.middlewares},
            "health": {
                **self.health.metrics(),
                "nonessential_rejected": self.nonessential_rejected,
                "deadline_rejected": self._deadline_rejections(),
                "feed_errors": self.feed_errors,
                "last_feed_error": self._last_feed_error,
            },
            "shedding": shedding_snapshot(self.pipeline),
            "backpressure": self.pipeline.backpressure(),
            # the same per-stage numbers Pipeline.metrics() reports
            # in-process (one snapshot code path, regression-tested)
            "pipeline": self.pipeline.metrics(),
            "observability": (
                self.observability.summary()
                if self.observability is not None
                else {"enabled": False}
            ),
        }
