"""A frame is handled once: the serve path's per-frame call budget.

ROADMAP aim 1 asks for budget assertions next to the measured numbers.
Timings do not belong in tier-1, but *counts* repeat exactly: over N
ingest frames the server may decode each frame once, encode one ack per
frame, and hand each admitted batch to the pipeline in one call.  The
byte counter reads the length the frame header announced -- the server
never re-serialises what it received, not even to count it.

The client here is a raw socket sending pre-encoded frames and reading
acks as bytes, so every ``json`` call counted is the server's own.
"""

import asyncio
import json

import pytest

from repro.datasets import SoccerStreamConfig, generate_soccer_stream
from repro.pipeline import Pipeline
from repro.pipeline.pipeline import QueryChain
from repro.queries import build_q1
from repro.serve import PipelineServer, ServeClient, events_to_wire
from repro.serve.protocol import MAGIC, encode_frame

FRAME_EVENTS = 64


@pytest.fixture(scope="module")
def frames():
    stream = list(generate_soccer_stream(SoccerStreamConfig(duration_seconds=300)))
    return [
        stream[i : i + FRAME_EVENTS] for i in range(0, len(stream), FRAME_EVENTS)
    ]


def build_pipeline():
    return (
        Pipeline.builder()
        .query(build_q1(pattern_size=2, window_seconds=15.0))
        .batch(16)
        .build()
    )


def framed(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


async def send_raw(port, wire_frames):
    """Closed loop over one connection: frame out, ack in (undecoded)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(MAGIC)
    for frame in wire_frames:
        writer.write(frame)
        await writer.drain()
        header = await reader.readexactly(4)
        await reader.readexactly(int.from_bytes(header, "big"))
    writer.close()
    await writer.wait_closed()


class CallCounter:
    """Wraps a callable, counting calls that pass straight through."""

    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.wrapped(*args, **kwargs)


class TestCallBudget:
    def test_one_decode_one_ack_one_feed_many_per_frame(self, frames, monkeypatch):
        wire_frames = [
            encode_frame({"op": "ingest", "events": events_to_wire(frame)})
            for frame in frames
        ]
        pipeline = build_pipeline()
        pipeline.feed_many = feed_many = CallCounter(pipeline.feed_many)
        pipeline.feed = feed = CallCounter(pipeline.feed)
        # every stage tick reaches the stages through the chain's fan-out
        on_tick = CallCounter(QueryChain.on_tick)
        monkeypatch.setattr(
            QueryChain, "on_tick", lambda chain, now: on_tick(chain, now)
        )
        dumps = CallCounter(json.dumps)
        loads = CallCounter(json.loads)
        monkeypatch.setattr(json, "dumps", dumps)
        monkeypatch.setattr(json, "loads", loads)

        async def scenario():
            server = PipelineServer(pipeline)
            await server.start()
            try:
                await send_raw(server.port, wire_frames)
            finally:
                await server.stop()
            return server

        server = asyncio.run(scenario())
        n = len(frames)
        assert n > 10
        assert server.frames_in == n
        assert server.batches_admitted == n
        assert server.events_fed == sum(len(frame) for frame in frames)
        assert loads.calls == n  # each frame decoded once ...
        assert dumps.calls == n  # ... and answered with one ack, nothing else
        assert feed_many.calls == n  # one call per admitted batch
        assert feed.calls == 0
        # no detector, no tick-driven stage: ticks are no-ops, so the
        # feed path calls no stage's on_tick at all
        assert on_tick.calls == 0
        assert server.detections > 0


class TestBytesIn:
    def test_counts_the_bytes_as_sent_for_any_encoding(self, frames):
        # a client free to encode as it likes: default separators (spaces)
        # and a non-ASCII attribute value as raw UTF-8
        bodies = []
        for frame in frames[:5]:
            wire = events_to_wire(frame)
            wire[0] = dict(wire[0], a=dict(wire[0].get("a", {}), note="Müller ⚽"))
            message = {"op": "ingest", "events": wire}
            bodies.append(json.dumps(message, ensure_ascii=False).encode("utf-8"))
        compact = sum(
            len(encode_frame(json.loads(body))) - 4 for body in bodies
        )
        sent = sum(len(body) for body in bodies)
        assert sent != compact  # the re-encoding's length is a different number

        async def scenario():
            server = PipelineServer(build_pipeline())
            await server.start()
            try:
                await send_raw(server.port, [framed(body) for body in bodies])
                return server.metrics()
            finally:
                await server.stop()

        metrics = asyncio.run(scenario())
        assert metrics["wire"]["frames_in"] == len(bodies)
        assert metrics["wire"]["protocol_errors"] == 0
        assert metrics["ingest"]["events_admitted"] == 5 * FRAME_EVENTS
        assert metrics["wire"]["bytes_in"] == 4 + sent  # 4: the magic

    def test_serve_client_traffic_reads_as_before(self, frames):
        # ServeClient encodes compactly, so the announced length equals
        # what re-encoding the decoded message used to report
        async def scenario():
            server = PipelineServer(build_pipeline())
            await server.start()
            try:
                async with await ServeClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    for frame in frames[:5]:
                        assert (await client.ingest(frame))["ok"]
                    return server.metrics()
            finally:
                await server.stop()

        metrics = asyncio.run(scenario())
        expected = 4 + sum(
            len(
                json.dumps(
                    {"op": "ingest", "events": events_to_wire(frame)},
                    separators=(",", ":"),
                )
            )
            for frame in frames[:5]
        )
        assert metrics["wire"]["bytes_in"] == expected
