"""The five workloads of the benchmark.

Every workload drives the library only through public calls and reads
only its public observability surface.  One instance = one seed's
inputs; :meth:`run_pass` runs them once on a fresh pipeline/server and
returns a :class:`PassResult`; ``traced`` passes additionally switch
the library's ``Observability`` on and fill ``PassResult.layers``.

All four Q1 workloads build the *same* pipeline and offer the *same*
stream, so their costs subtract like for like:

==============  =======================================================
inproc_q1       ``Pipeline.feed_many(chunk)`` per 64-event chunk
wire_bulk64     the same chunks as framed-TCP frames, closed loop
wire_paced8     8-event frames on a fixed schedule, open loop
cluster_2shard  ``ShardedPipeline.run(stream)``, 2 forked workers
==============  =======================================================
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import resource
import select
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from helpers import BENCH_DIR, Spans, detect_latencies, digest, recall_pct

sys.path.insert(0, os.path.join(BENCH_DIR, os.pardir, "src"))

_import_started = time.perf_counter()
from repro.cep.events import EventStream  # noqa: E402
from repro.cep.windows import collect_windows  # noqa: E402
from repro.cluster import ShardedPipeline  # noqa: E402
from repro.core.kernel import default_backend  # noqa: E402
from repro.experiments import workloads as datasets  # noqa: E402
from repro.experiments.common import reference_window_size  # noqa: E402
from repro.pipeline import Pipeline, compare_results  # noqa: E402
from repro.queries import build_q1, build_q3  # noqa: E402
from repro.runtime.quality import ground_truth  # noqa: E402
from repro.runtime.simulation import measure_mean_memberships  # noqa: E402
from repro.serve.protocol import (  # noqa: E402
    MAGIC,
    encode_frame,
    events_to_wire,
    wire_to_events,
)

#: Seconds a fresh interpreter spends importing the library: the part
#: of every workload's ``setup_s`` that work moved to import time shows in.
IMPORT_S = time.perf_counter() - _import_started

# ----------------------------------------------------------------------
# pinned workload constants (cited by later issues; do not tune per PR)
# ----------------------------------------------------------------------
Q1_PATTERN_SIZE = 2
Q1_WINDOW_SECONDS = 15.0
Q1_BATCH = 16
SOCCER_DURATION = 12000.0  # -> ~96k evaluation events, ~800 detections
CHUNK_EVENTS = 64  # in-process / cluster / bulk-frame offer unit
PACED_FRAME_EVENTS = 8
#: Open-loop schedule: 1500 frames/s x 8 events = 12 000 events/s, about
#: 40 % of this box's 8-event closed-loop capacity (29-33k events/s).
#: At 65 % the p95 went bimodal on the sizing runs, so 40 % is the
#: highest rate that gates.
PACED_FRAMES_PER_S = 1500.0
CLUSTER_SHARDS = 2
CLUSTER_BATCH = 32
Q3_WINDOW_EVENTS = 300
STOCK_TICKS = 1200  # -> 30 000 evaluation events
SHED_THROUGHPUT = 1000.0  # th, events/s of virtual time
SHED_OVERLOAD = 1.4  # R = 1.4 th, the paper's R2
SHED_LATENCY_BOUND = 1.0  # LB, seconds of virtual time
SHED_F = 0.8
#: eSPICE may overshoot LB on this share of events and still pass: 3 of
#: 40 seeds showed one transient overshoot (<= 6 % above LB, <= 0.4 % of
#: events) where the random shedder violates on 17-70 %.
SHED_VIOLATION_TOLERANCE_PCT = 1.0
CHILD_TIMEOUT = 60.0  # seconds to wait on the server child


def build_q1_pipeline(batch_size: int = Q1_BATCH) -> Pipeline:
    """The one pipeline every Q1 workload runs."""
    return (
        Pipeline.builder()
        .query(build_q1(pattern_size=Q1_PATTERN_SIZE, window_seconds=Q1_WINDOW_SECONDS))
        .batch(batch_size)
        .build()
    )


def cpu_seconds(who: int = resource.RUSAGE_SELF) -> float:
    """user+sys CPU of this process (or of its waited-for children)."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """``VmHWM``, this process's own high-water mark.  ``ru_maxrss`` would
    not do: across fork + exec the kernel carries the parent's peak over,
    so the server child of a 170 MB harness would never read less."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def stamping_sink(stamps: List[float], keys: List[tuple]):
    """An ``emit.subscribe`` sink: when each detection left, and which."""

    def sink(detection) -> None:
        stamps.append(time.monotonic())
        keys.append(detection.key)

    return sink


def _chunked(events: Sequence, size: int) -> List[List]:
    return [list(events[i : i + size]) for i in range(0, len(events), size)]


def _stage_layers(
    registry_snapshot: Dict[str, dict], events: int
) -> Tuple[Dict[str, float], float]:
    """Per-stage us/event layer metrics (``repro_stage_seconds`` sums
    over events) plus the seconds all stages took together."""
    family = registry_snapshot.get("repro_stage_seconds", {"samples": []})
    stages = {s["labels"]["stage"]: s["sum"] for s in family["samples"]}
    layers = {
        f"pipeline.stage.{name}_us_per_event": seconds / events * 1e6
        for name, seconds in stages.items()
    }
    sizes = registry_snapshot.get("repro_batch_size", {"samples": []})["samples"]
    if sizes:
        layers["pipeline.batch_size_mean"] = sizes[0]["mean"]
    return layers, sum(stages.values())


@dataclass
class PassResult:
    """What one pass over a workload's inputs measured."""

    events: int  # offered
    failed: int  # rejected, errored or never fed
    wall_s: float  # first offer -> finish()/stop() returned
    cpu_s: float  # user+sys of the system-under-test processes
    setup_s: float  # build (+train+deploy, +start) until ready
    rss_mb: float
    detect_s: List[float]  # per-detection latency samples
    recall_pct: float  # reference detections the pass produced
    digest: Optional[str] = None  # of the ordered detection keys
    ack_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


class Workload:
    """Inputs of one seed plus the passes that run them."""

    name = ""
    #: added to every pass's ``setup_s``: an in-process system pays the
    #: library import once, in the harness process
    cold_start_s = IMPORT_S

    def __init__(self, seed: int, spans: Spans) -> None:
        self.seed = seed
        self.spans = spans
        self.generate_s = 0.0

    def run_pass(self, traced: bool = False, fraction: float = 1.0) -> PassResult:
        raise NotImplementedError

    def isolated_layers(self) -> Dict[str, float]:
        """Per-layer loops run outside any pass (trace mode only)."""
        return {}

    def _assign_layers(self, query, stream: Sequence) -> Dict[str, float]:
        """``cep``: window assignment alone over the workload's stream,
        in pipeline-sized batches (one 96k-result list would time the
        garbage collector, not the assigner)."""
        assigner = query.new_assigner()
        batches = _chunked(stream, Q1_BATCH)
        memberships = closed = 0
        with self.spans.span("isolated.assign"):
            started = time.perf_counter()
            for batch in batches:
                for result in assigner.on_events(batch):
                    memberships += len(result.assignments)
                    closed += len(result.closed)
            elapsed = time.perf_counter() - started
        n = len(stream)
        return {
            "cep.assign_us_per_event": elapsed / n * 1e6,
            "cep.memberships_per_event": memberships / n,
            "cep.windows_closed": float(closed),
        }


# ----------------------------------------------------------------------
# Q1 workloads: one stream, one reference, four ways to offer it
# ----------------------------------------------------------------------
class Q1Workload(Workload):
    chunk_events = CHUNK_EVENTS

    def __init__(self, seed: int, scale: float, spans: Spans) -> None:
        super().__init__(seed, spans)
        started = time.perf_counter()
        _train, evaluation = datasets.soccer_streams(
            duration_seconds=SOCCER_DURATION * scale, seed=seed
        )
        self.stream = list(evaluation)
        self.generate_s = time.perf_counter() - started
        self.chunks = _chunked(self.stream, self.chunk_events)
        self.reference_keys, self.triggers = self._reference()
        self.reference_digest = digest(self.reference_keys)

    def _reference(self) -> Tuple[List[tuple], List[int]]:
        """Per-event sequential run: the ordered detection keys every Q1
        workload must reproduce, and the index of the event that
        triggered each detection (end-of-stream flush detections have
        none)."""
        pipeline = build_q1_pipeline(batch_size=1)
        keys, triggers = [], []
        feed = pipeline.feed
        name = pipeline.chains[0].query.name
        for index, event in enumerate(self.stream):
            for detection in feed(event)[name]:
                keys.append(detection.key)
                triggers.append(index)
        keys.extend(d.key for d in pipeline.finish()[name])
        return keys, triggers

    def _slice(self, fraction: float) -> List[List]:
        if fraction >= 1.0:
            return self.chunks
        return self.chunks[: max(1, int(len(self.chunks) * fraction))]

    def _detect(self, stamps: Sequence[float], offered_at: Sequence[float]) -> List[float]:
        return detect_latencies(self.triggers, stamps, offered_at, self.chunk_events)

    def _recall(self, keys: Sequence[tuple]) -> float:
        """Against the whole stream's reference: a sliced warm-up pass
        is not expected to reach 100."""
        return recall_pct(self.reference_keys, keys)

    def _check(self, result: PassResult, full: bool) -> PassResult:
        if full and result.digest != self.reference_digest:
            result.problems.append(
                f"{self.name}: detection digest {result.digest} differs from the "
                f"per-event reference {self.reference_digest}"
            )
        if result.failed:
            result.problems.append(f"{self.name}: {result.failed} events failed")
        return result

    def isolated_layers(self) -> Dict[str, float]:
        query = build_q1(pattern_size=Q1_PATTERN_SIZE, window_seconds=Q1_WINDOW_SECONDS)
        return self._assign_layers(query, self.stream)


class InprocQ1(Q1Workload):
    name = "inproc_q1"

    def run_pass(self, traced: bool = False, fraction: float = 1.0) -> PassResult:
        chunks = self._slice(fraction)
        span = self.spans.span
        started = time.perf_counter()
        pipeline = build_q1_pipeline()
        stamps, keys, offered_at = [], [], []
        pipeline.chains[0].emit.subscribe(stamping_sink(stamps, keys))
        obs = pipeline.enable_observability() if traced else None
        setup_s = time.perf_counter() - started

        gc.collect()
        cpu0 = cpu_seconds()
        t0 = time.monotonic()
        with span("feed_many"):
            for chunk in chunks:
                offered_at.append(time.monotonic())
                pipeline.feed_many(chunk)
        with span("finish"):
            pipeline.finish()
        wall = time.monotonic() - t0
        cpu = cpu_seconds() - cpu0

        events = sum(len(c) for c in chunks)
        name = pipeline.chains[0].query.name
        fed = pipeline.metrics()[name]["admission"]["arrivals"]
        result = PassResult(
            events=events,
            failed=events - fed,
            wall_s=wall,
            cpu_s=cpu,
            setup_s=setup_s,
            rss_mb=peak_rss_mb(),
            detect_s=self._detect(stamps, offered_at),
            recall_pct=self._recall(keys),
            digest=digest(keys),
        )
        if obs is not None:
            result.layers, staged = _stage_layers(obs.registry.snapshot(), events)
            result.layers["pipeline.chain_self_us_per_event"] = (
                (wall - staged) / events * 1e6
            )
        return self._check(result, fraction >= 1.0)


class Cluster2Shard(Q1Workload):
    """A batch replay: the whole stream is one offer (one chunk, in the
    terms of the other Q1 workloads), and ``run()`` releases detections
    at merge time, when the replay ends.  Detection latency, defined as
    everywhere as emission minus the offer of the trigger's chunk, is
    therefore the replay's wall time here and carries no information
    beyond ``events_per_s``; it is reported because every workload
    reports every end-to-end metric.  (Fed live in 64-event chunks the
    cluster's detection latency is set by GIL hand-offs to the queue
    feeder thread -- p50 ~25 ms, p95 ~160 ms, with quartile spreads of
    22 % and 85 % of the median over ten seeds on the sizing runs: too
    chaotic to gate.)"""

    name = "cluster_2shard"

    def run_pass(self, traced: bool = False, fraction: float = 1.0) -> PassResult:
        stream = self.stream[: max(1, int(len(self.stream) * fraction))]
        span = self.spans.span
        started = time.perf_counter()
        pipeline = build_q1_pipeline()
        sharded = ShardedPipeline(
            pipeline, shards=CLUSTER_SHARDS, router="hash", batch_size=CLUSTER_BATCH
        )
        stamps, keys = [], []
        pipeline.chains[0].emit.subscribe(stamping_sink(stamps, keys))
        obs = sharded.enable_observability() if traced else None
        start_started = time.perf_counter()
        with span("start"):
            sharded.start()
        start_s = time.perf_counter() - start_started
        setup_s = time.perf_counter() - started
        try:
            gc.collect()
            self0, children0 = cpu_seconds(), cpu_seconds(resource.RUSAGE_CHILDREN)
            t0 = time.monotonic()
            with span("run"):
                sharded.run(stream)
            wall = time.monotonic() - t0
            coordinator_cpu = cpu_seconds() - self0
            snapshot = sharded.snapshot()
            registry = obs.registry.snapshot() if obs is not None else None
        finally:
            with span("shutdown"):
                sharded.shutdown()
        # workers are waited for in shutdown(): only now are they children
        worker_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - children0

        events = len(stream)
        result = PassResult(
            events=events,
            failed=events - snapshot.events_ingested,
            wall_s=wall,
            cpu_s=coordinator_cpu + worker_cpu,
            setup_s=setup_s,
            # forked workers are waited-for children; nothing execs here
            rss_mb=max(
                peak_rss_mb(),
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            ),
            detect_s=detect_latencies(self.triggers, stamps, [t0], len(stream)),
            recall_pct=self._recall(keys),
            digest=digest(keys),
        )
        if registry is not None:
            windows = [shard.windows for shard in snapshot.shards]
            busy = [shard.busy_seconds for shard in snapshot.shards]
            result.layers, _staged = _stage_layers(registry, events)
            window_seconds = registry.get("repro_cluster_window_seconds", {"samples": []})
            result.layers.update(
                {
                    # shards run shed+match as one per-window step
                    "pipeline.stage.match_us_per_event": sum(
                        s["sum"] for s in window_seconds["samples"]
                    )
                    / events
                    * 1e6,
                    "cluster.coordinator_cpu_us_per_event": coordinator_cpu / events * 1e6,
                    "cluster.worker_cpu_us_per_event": worker_cpu / events * 1e6,
                    "cluster.worker_busy_share": sum(busy) / (len(busy) * wall),
                    "cluster.shard_skew": max(windows) * len(windows) / max(1, sum(windows)),
                    "cluster.ipc_batches": float(snapshot.transport["batches"]),
                    "cluster.ipc_avg_batch": float(snapshot.transport["avg_batch"]),
                    "cluster.start_s": start_s,
                }
            )
        return self._check(result, fraction >= 1.0)

    def isolated_layers(self) -> Dict[str, float]:
        layers = super().isolated_layers()
        query = build_q1(pattern_size=Q1_PATTERN_SIZE, window_seconds=Q1_WINDOW_SECONDS)
        windows = collect_windows(self.stream, query.new_assigner())
        with self.spans.span("isolated.pickle"):
            started = time.perf_counter()
            blobs = [pickle.dumps(w, pickle.HIGHEST_PROTOCOL) for w in windows]
            for blob in blobs:
                pickle.loads(blob)  # bytes this process just wrote
            elapsed = time.perf_counter() - started
        layers["cluster.window_pickle_us"] = elapsed / len(windows) * 1e6
        layers["cluster.window_pickle_bytes"] = sum(map(len, blobs)) / len(windows)
        return layers


# ----------------------------------------------------------------------
# wire workloads: plain-socket load generator, server in a child process
# ----------------------------------------------------------------------
class FrameReader:
    """Incremental decoder of length-prefixed JSON response frames."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[dict]:
        self._buffer += data
        frames = []
        while len(self._buffer) >= 4:
            length = int.from_bytes(self._buffer[:4], "big")
            if len(self._buffer) < 4 + length:
                break
            frames.append(json.loads(bytes(self._buffer[4 : 4 + length])))
            del self._buffer[: 4 + length]
        return frames


class ServerChild:
    """One ``server_child.py`` process: start, port, stop + report.

    With two or more CPUs the child is pinned to ``cpu`` so generator
    and server never share a core: left to the scheduler the pair's p95
    swung between 1.7 and 2.4 ms from pass to pass, pinned it stayed
    within 1.55-1.63 ms.
    """

    def __init__(self, traced: bool, cpu: Optional[int]) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable,
                os.path.join(BENCH_DIR, "server_child.py"),
                "--trace",
                "1" if traced else "0",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            if cpu is not None:
                os.sched_setaffinity(self.process.pid, {cpu})
            self.port = json.loads(self._line())["port"]
        except Exception:
            self.kill()
            raise

    def _line(self) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], CHILD_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("server child died or timed out")
        return line

    def stop(self) -> dict:
        """Graceful stop; returns the child's report."""
        self.process.stdin.write("stop\n")
        self.process.stdin.flush()
        report = json.loads(self._line())
        self.process.wait(timeout=CHILD_TIMEOUT)
        return report

    def kill(self) -> None:
        """No orphan may survive the pass, however it ended."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            pipe.close()


class WireWorkload(Q1Workload):
    """Frames pre-encoded at set-up: the timed loop only moves bytes, so
    generator CPU does not pollute a one-connection measurement."""

    #: the server child imports the library inside each pass's set-up
    cold_start_s = 0.0

    def __init__(self, seed: int, scale: float, spans: Spans) -> None:
        super().__init__(seed, scale, spans)
        self.frames = self._encode()

    def _encode(self) -> List[bytes]:
        return [
            encode_frame({"op": "ingest", "events": events_to_wire(chunk)})
            for chunk in self.chunks
        ]

    def _offer(self, sock: socket.socket, frames: List[bytes], result: dict) -> None:
        """Send every frame, collect every ack; fills ``result``."""
        raise NotImplementedError

    def run_pass(self, traced: bool = False, fraction: float = 1.0) -> PassResult:
        chunks = self._slice(fraction)
        frames = self.frames[: len(chunks)]
        span = self.spans.span
        # the server gets the last CPU to itself, the generator the rest
        cpus = sorted(os.sched_getaffinity(0))
        server_cpu = cpus[-1] if len(cpus) > 1 else None
        started = time.perf_counter()
        with span("start"):
            child = ServerChild(traced, server_cpu)
        try:
            if server_cpu is not None:
                os.sched_setaffinity(0, cpus[:-1])
            sock = socket.create_connection(("127.0.0.1", child.port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(MAGIC)
            setup_s = time.perf_counter() - started
            offered: dict = {"offered_at": [], "ack_s": [], "late_s": [], "rejected": 0}
            gc.collect()
            try:
                with span("offer"):
                    self._offer(sock, frames, offered)
            finally:
                sock.close()
            with span("stop"):
                report = child.stop()
        finally:
            child.kill()
            os.sched_setaffinity(0, cpus)

        events = sum(len(c) for c in chunks)
        # JSON turned each (pattern, window, (seq, ...)) key into lists
        keys = [(name, window, tuple(seqs)) for name, window, seqs in report["keys"]]
        ingest = report["metrics"]["ingest"]
        wire = report["metrics"]["wire"]
        result = PassResult(
            events=events,
            failed=max(offered["rejected"], events - ingest["events_fed"]),
            wall_s=report["stopped_at"] - offered["offered_at"][0],
            cpu_s=report["cpu_s"],
            setup_s=setup_s,
            rss_mb=report["rss_mb"],
            detect_s=self._detect(report["emit_stamps"], offered["offered_at"]),
            recall_pct=self._recall(keys),
            digest=digest(keys),
            ack_s=offered["ack_s"],
            late_s=offered["late_s"],
        )
        if wire["protocol_errors"] or ingest["overloaded_responses"]:
            result.problems.append(
                f"{self.name}: {wire['protocol_errors']} protocol errors, "
                f"{ingest['overloaded_responses']} overloaded responses"
            )
        if report["registry"] is not None:
            result.layers, staged = _stage_layers(report["registry"], events)
            self_s = report["cpu_s"] - staged
            post_ack = [
                detect - offered["ack_s"][index // self.chunk_events]
                for index, detect in zip(self.triggers, result.detect_s)
            ]
            result.layers.update(
                {
                    "serve.self_us_per_event": self_s / events * 1e6,
                    "serve.per_frame_self_us": self_s / len(frames) * 1e6,
                    "serve.post_ack_p50_ms": (
                        statistics.median(post_ack) * 1e3 if post_ack else 0.0
                    ),
                    "serve.bytes_per_event": wire["bytes_in"] / events,
                    "serve.frames": float(wire["frames_in"]),
                    "serve.overloaded_responses": float(ingest["overloaded_responses"]),
                    "serve.protocol_errors": float(wire["protocol_errors"]),
                }
            )
        return self._check(result, fraction >= 1.0)

    def isolated_layers(self) -> Dict[str, float]:
        layers = super().isolated_layers()
        with self.spans.span("isolated.encode"):
            started = time.perf_counter()
            self._encode()
            encode_s = time.perf_counter() - started
        with self.spans.span("isolated.decode"):
            started = time.perf_counter()
            for frame in self.frames:
                wire_to_events(json.loads(frame[4:])["events"])
            decode_s = time.perf_counter() - started
        n = len(self.stream)
        layers["serve.encode_us_per_event"] = encode_s / n * 1e6
        layers["serve.decode_us_per_event"] = decode_s / n * 1e6
        return layers


def _count_ack(ack: dict, expected: int, result: dict) -> None:
    if not ack.get("ok") or ack.get("accepted") != expected:
        result["rejected"] += expected


class WireBulk64(WireWorkload):
    name = "wire_bulk64"

    def _offer(self, sock: socket.socket, frames: List[bytes], result: dict) -> None:
        """Closed loop: the next frame leaves when the last ack is in."""
        reader = FrameReader()
        span = self.spans.span
        for index, frame in enumerate(frames):
            with span("client.rtt"):
                sent = time.monotonic()
                result["offered_at"].append(sent)
                sock.sendall(frame)
                acks: List[dict] = []
                while not acks:
                    data = sock.recv(65536)
                    if not data:
                        raise RuntimeError("server closed the connection")
                    acks = reader.feed(data)
                result["ack_s"].append(time.monotonic() - sent)
            _count_ack(acks[0], len(self.chunks[index]), result)


class WirePaced8(WireWorkload):
    name = "wire_paced8"
    chunk_events = PACED_FRAME_EVENTS

    def _offer(self, sock: socket.socket, frames: List[bytes], result: dict) -> None:
        """Open loop: frame ``i`` is due at ``t0 + i / rate`` whatever the
        server does; latency counts from the due time, and how late the
        generator itself ran is reported beside it."""
        reader = FrameReader()
        interval = 1.0 / PACED_FRAMES_PER_S
        total = len(frames)
        sent = acked = 0
        t0 = time.monotonic() + 0.01
        due_at = result["offered_at"]
        while acked < total:
            now = time.monotonic()
            if sent < total:
                due = t0 + sent * interval
                if now >= due:
                    due_at.append(due)
                    result["late_s"].append(now - due)
                    sock.sendall(frames[sent])
                    sent += 1
                    continue
                timeout = due - now
            else:
                timeout = CHILD_TIMEOUT
            readable, _, _ = select.select([sock], [], [], timeout)
            if not readable:
                if sent >= total:
                    raise RuntimeError("server stopped acknowledging")
                continue
            data = sock.recv(65536)
            if not data:
                raise RuntimeError("server closed the connection")
            stamp = time.monotonic()
            for ack in reader.feed(data):
                result["ack_s"].append(stamp - due_at[acked])
                _count_ack(ack, len(self.chunks[acked]), result)
                acked += 1


# ----------------------------------------------------------------------
# shed_q3: the paper's experiment, in virtual time
# ----------------------------------------------------------------------
class ShedQ3(Workload):
    name = "shed_q3"

    def __init__(self, seed: int, scale: float, spans: Spans) -> None:
        super().__init__(seed, spans)
        started = time.perf_counter()
        train, evaluation = datasets.stock_streams_q3(
            ticks=max(40, int(STOCK_TICKS * scale)), seed=seed
        )
        self.generate_s = time.perf_counter() - started
        self.train, self.stream = train, evaluation
        self.query = build_q3(Q3_WINDOW_EVENTS)
        self.truth = ground_truth(self.query, evaluation)
        self.memberships = measure_mean_memberships(self.query, evaluation)
        self.train_s = 0.0
        self._shedder = None  # of the last traced pass, for the kernel loop
        # the control the paper compares against, once, untimed
        control = self._simulate(self._deployed("random"), evaluation)
        self.random_fn_pct = compare_results(
            self.truth, control.complex_events
        ).false_negative_pct
        self.random_violation_pct = control.latency.stats().violation_pct

    def _deployed(self, strategy: str) -> Pipeline:
        builder = (
            Pipeline.builder()
            .query(build_q3(Q3_WINDOW_EVENTS))
            .shedder(strategy, f=SHED_F, seed=self.seed)
            .latency_bound(SHED_LATENCY_BOUND)
        )
        if strategy == "espice":
            pipeline = builder.build()
            started = time.perf_counter()
            with self.spans.span("train"):
                pipeline.train(self.train)
            self.train_s = time.perf_counter() - started
        else:
            builder.reference_size(reference_window_size(self.query, self.train))
            pipeline = builder.build().warm(self.train)
        return pipeline.deploy(
            expected_throughput=SHED_THROUGHPUT,
            expected_input_rate=SHED_OVERLOAD * SHED_THROUGHPUT,
        )

    def _simulate(self, pipeline: Pipeline, stream):
        return pipeline.simulate(
            stream,
            input_rate=SHED_OVERLOAD * SHED_THROUGHPUT,
            throughput=SHED_THROUGHPUT,
            mean_memberships=self.memberships,
        )

    def run_pass(self, traced: bool = False, fraction: float = 1.0) -> PassResult:
        full = fraction >= 1.0
        stream = self.stream
        if not full:
            stream = EventStream(stream.slice(0, int(len(stream) * fraction)))
        started = time.perf_counter()
        pipeline = self._deployed("espice")
        obs = pipeline.enable_observability() if traced else None
        setup_s = time.perf_counter() - started

        gc.collect()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        with self.spans.span("simulate"):
            sim = self._simulate(pipeline, stream)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0

        events = len(stream)
        quality = compare_results(self.truth, sim.complex_events)
        stats = sim.latency.stats()
        result = PassResult(
            events=events,
            failed=events - sim.operator_stats.events_processed,
            wall_s=wall,
            cpu_s=cpu,
            setup_s=setup_s,
            rss_mb=peak_rss_mb(),
            # virtual time: the paper's event latency against LB
            detect_s=sim.latency.latencies(),
            # of the full stream's ground truth, like the Q1 workloads'
            recall_pct=100.0 - quality.false_negative_pct,
        )
        if full:
            if not stats.violation_pct <= min(
                SHED_VIOLATION_TOLERANCE_PCT, self.random_violation_pct
            ):
                result.problems.append(
                    f"shed_q3: eSPICE exceeded the latency bound on "
                    f"{stats.violation_pct:.2f}% of events (random shedder: "
                    f"{self.random_violation_pct:.2f}%)"
                )
            if not quality.false_negative_pct < self.random_fn_pct:
                result.problems.append(
                    f"shed_q3: eSPICE FN {quality.false_negative_pct:.2f}% is not below "
                    f"the random shedder's {self.random_fn_pct:.2f}%"
                )
        if obs is not None:
            result.layers, staged = _stage_layers(obs.registry.snapshot(), events)
            detector = sim.detector
            result.layers.update(
                {
                    "runtime.driver_self_us_per_event": (wall - staged) / events * 1e6,
                    "runtime.virtual_latency_p99_ms": stats.p99 * 1e3,
                    "runtime.max_queue": float(sim.max_queue_size),
                    "core.shed_decisions": float(sim.shedder.decisions),
                    "core.drop_pct": 100.0 * sim.operator_stats.drop_ratio(),
                    "core.detector_checks": float(len(detector.samples)),
                    "core.train_s": self.train_s,
                    "false_negative_pct": quality.false_negative_pct,
                    "false_positive_pct": quality.false_positive_pct,
                    "bound_violation_pct": stats.violation_pct,
                    "core.random_false_negative_pct": self.random_fn_pct,
                    "core.random_bound_violation_pct": self.random_violation_pct,
                }
            )
            self._shedder = sim.shedder
        return result

    def isolated_layers(self) -> Dict[str, float]:
        layers = self._assign_layers(self.query, self.stream)
        shedder = self._shedder  # still holds the run's last drop command
        shedder.activate()
        windows = collect_windows(self.stream, self.query.new_assigner())
        positions = [list(range(w.size)) for w in windows]
        with self.spans.span("isolated.kernel"):
            started = time.perf_counter()
            for window, window_positions in zip(windows, positions):
                shedder.should_drop_batch(
                    window.events, window_positions, float(window.size)
                )
            elapsed = time.perf_counter() - started
        layers["core.kernel_decisions_per_s"] = sum(map(len, positions)) / elapsed
        return layers


WORKLOADS = {
    cls.name: cls
    for cls in (InprocQ1, ShedQ3, WireBulk64, WirePaced8, Cluster2Shard)
}


def environment() -> Dict[str, object]:
    """Recorded with every result: what the numbers were measured on."""
    return {
        "kernel_backend": default_backend(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count() or 1,
        "import_s": IMPORT_S,
    }
