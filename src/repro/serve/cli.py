"""``repro-serve``: serve a trained pipeline over TCP/HTTP.

The console entry point of the serve subsystem: builds a pipeline for
one of the evaluation queries, trains it on a synthetic stream slice,
deploys the selected shedding strategy, wires the standard middleware
stack from flags, and serves until SIGINT/SIGTERM -- at which point it
drains gracefully (stop accepting, flush the micro-batch and still-open
windows, emit final detections) and prints the final metrics as JSON.

::

    repro-serve --port 7807 --shedder espice --f 0.8 \\
        --rate-limit 5000 --auth-secret s3cret --max-pending 65536

``--shards N`` serves a fault-tolerant ``ShardedPipeline`` -- a
``Pipeline`` whose windows run on N forked worker processes -- behind
the same front door, with worker respawn and exactly-once replay on
failure.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import List, Optional

from repro.datasets import SoccerStreamConfig, generate_soccer_stream, split_stream
from repro.pipeline import Pipeline
from repro.queries import build_q1
from repro.serve.middleware import (
    MaxInFlight,
    RequestLogMiddleware,
    ServerMiddleware,
    SharedSecretAuth,
    TokenBucketLimiter,
)
from repro.serve.server import PipelineServer, ServeConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve an eSPICE pipeline over framed TCP + HTTP/1.1",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=7807, help="bind port (0=ephemeral)")
    parser.add_argument(
        "--pattern-size", type=int, default=3, help="Q1 pattern size n (default 3)"
    )
    parser.add_argument(
        "--window", type=float, default=15.0, help="Q1 window seconds (default 15)"
    )
    parser.add_argument(
        "--train-seconds",
        type=float,
        default=600.0,
        help="synthetic soccer stream length used for training",
    )
    parser.add_argument(
        "--shedder",
        default="none",
        help="shedding strategy (espice/bl/integral/random/none)",
    )
    parser.add_argument("--f", type=float, default=0.8, help="shedding trigger fraction")
    parser.add_argument(
        "--latency-bound", type=float, default=1.0, help="latency bound LB seconds"
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="pipeline micro-batch size (the server also flushes a partial "
        "micro-batch whenever its ingest queue is empty)",
    )
    parser.add_argument(
        "--linger",
        type=float,
        default=0.0,
        help="micro-batch linger in event-time seconds (0 = none)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=65536,
        help="ingest queue bound in events (backpressure threshold)",
    )
    parser.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        help="per-client ingest requests/second (token bucket)",
    )
    parser.add_argument(
        "--burst", type=float, default=None, help="token bucket burst size"
    )
    parser.add_argument(
        "--auth-secret",
        default=None,
        help="require this shared secret on every request",
    )
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        help="max concurrently processed ingest requests",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help=(
            "enable unified observability: instrumented pipeline metrics, "
            "window tracing with shed explanations, Prometheus /metrics "
            "and the /trace endpoints"
        ),
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=512,
        help="window traces kept in the ring buffer (with --obs)",
    )
    parser.add_argument(
        "--trace-explanations",
        type=int,
        default=8,
        help="shed explanations kept per window trace (with --obs)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help=(
            "serve a fault-tolerant ShardedPipeline with this many "
            "worker processes (0 = in-process pipeline)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="skip the startup banner"
    )
    return parser


def build_pipeline(args: argparse.Namespace) -> Pipeline:
    """Train-and-deploy the served pipeline from CLI flags."""
    stream = generate_soccer_stream(
        SoccerStreamConfig(duration_seconds=args.train_seconds)
    )
    train, _live = split_stream(stream, train_fraction=0.5)
    builder = (
        Pipeline.builder()
        .query(build_q1(pattern_size=args.pattern_size, window_seconds=args.window))
        .latency_bound(args.latency_bound)
        .batch(args.batch_size, args.linger)
    )
    if args.shedder != "none":
        builder.shedder(args.shedder, f=args.f)
    pipeline = builder.build()
    if args.shedder != "none":
        pipeline.train(train)
        pipeline.deploy()
    return pipeline


def build_observability(args: argparse.Namespace):
    """The shared observability bundle, or ``None`` without ``--obs``."""
    if not getattr(args, "obs", False):
        return None
    from repro.obs import Observability

    return Observability(
        trace_capacity=args.trace_capacity,
        max_explanations=args.trace_explanations,
    )


def build_middleware(
    args: argparse.Namespace, observability=None
) -> List[ServerMiddleware]:
    """The standard stack, in request order: auth, limiter, gate, log."""
    stack: List[ServerMiddleware] = []
    if args.auth_secret:
        stack.append(SharedSecretAuth(args.auth_secret))
    if args.rate_limit is not None:
        stack.append(TokenBucketLimiter(args.rate_limit, burst=args.burst))
    if args.max_in_flight is not None:
        stack.append(MaxInFlight(args.max_in_flight))
    stack.append(
        RequestLogMiddleware(
            registry=observability.registry if observability is not None else None
        )
    )
    return stack


async def _serve(args: argparse.Namespace) -> dict:
    pipeline = build_pipeline(args)
    if args.shards > 0:
        from repro.cluster import ShardedPipeline

        pipeline = ShardedPipeline(
            pipeline, shards=args.shards, fault_tolerant=True
        )
    observability = build_observability(args)
    server = PipelineServer(
        pipeline,
        config=ServeConfig(
            host=args.host, port=args.port, max_pending_events=args.max_pending
        ),
        middleware=build_middleware(args, observability),
        observability=observability,
    )
    await server.start()
    if not args.quiet:
        routes = "POST /ingest, GET /metrics, GET /healthz"
        if observability is not None:
            routes += ", GET /trace"
        print(
            f"repro-serve listening on {args.host}:{server.port} "
            f"(framed TCP + HTTP: {routes}); "
            f"shedder={args.shedder} max_pending={args.max_pending}"
            f"{f' shards={args.shards}' if args.shards > 0 else ''}"
            f"{' obs=on' if observability is not None else ''}",
            flush=True,
        )
    stop_requested = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop_requested.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    await stop_requested.wait()
    if not args.quiet:
        print("repro-serve: draining...", flush=True)
    final = await server.stop()
    metrics = server.metrics()
    if args.shards > 0:
        metrics["cluster"] = {
            "shards": len(pipeline.snapshot().shards),
            "restarts": pipeline.snapshot().restarts,
        }
        pipeline.shutdown()
    metrics["final_flush_detections"] = {
        name: len(events) for name, events in final.items()
    }
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        metrics = asyncio.run(_serve(args))
    except KeyboardInterrupt:  # pragma: no cover - signal race at shutdown
        return 0
    json.dump(metrics, sys.stdout, indent=2, default=str)
    print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
