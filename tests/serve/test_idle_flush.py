"""The feeder ships a partial micro-batch when nothing else is waiting.

A frame smaller than the pipeline's micro-batch used to sit in the
batcher until the next frame arrived -- with a quiet client, for as
long as the client stayed quiet, although the server had acked it and
counted it as fed.  The consumer now flushes the batcher whenever the
ingest queue is empty after a frame, inside the same error isolation
as ``feed_many``: a micro-batch ships when it fills, when it lingers
out, or when no other admitted frame is waiting.

The oracle is a per-event in-process replay of the same events;
detections are identical at any batch cut, so only *when* they leave
changes: everything but the open-window tail reaches the sinks before
``stop()``, which returns that tail.
"""

import asyncio

import pytest

from repro.datasets import SoccerStreamConfig, generate_soccer_stream, split_stream
from repro.pipeline import Pipeline, Stage
from repro.queries import build_q1
from repro.serve import HealthPolicy, PipelineServer, ServeClient

FRAME_EVENTS = 8
BATCH = 16
FRAMES = 301  # odd: the last frame half-fills a micro-batch; a match is open at the end


class RaiseOnSeq(Stage):
    """Fails the micro-batch that carries the event with ``seq``."""

    name = "raise_on_seq"

    def __init__(self, seq: int) -> None:
        self.seq = seq

    def on_event(self, ctx) -> bool:
        if ctx.event.seq == self.seq:
            raise RuntimeError(f"boom at seq {self.seq}")
        return True


class Seen(Stage):
    """Counts the events that got past the raising stage."""

    name = "seen"

    def __init__(self) -> None:
        self.count = 0

    def on_event(self, ctx) -> bool:
        self.count += 1
        return True


@pytest.fixture(scope="module")
def frames():
    stream = generate_soccer_stream(SoccerStreamConfig(duration_seconds=300))
    _train, live = split_stream(stream, train_fraction=0.5)
    events = list(live)[: FRAME_EVENTS * FRAMES]
    assert len(events) == FRAME_EVENTS * FRAMES
    return [
        events[i : i + FRAME_EVENTS] for i in range(0, len(events), FRAME_EVENTS)
    ]


def builder(*stages):
    builder = (
        Pipeline.builder()
        .query(build_q1(pattern_size=2, window_seconds=15.0))
        .batch(BATCH)
    )
    for stage in stages:
        builder = builder.stage(stage)
    return builder


def keys(events):
    return [c.key for c in events]


def reference(frames):
    """(all detections, the open-window tail) of a per-event feed."""
    events = [e for f in frames for e in f]
    per_event = builder().batch(1).build()
    per_event.feed_many(events)
    tail = [c for found in per_event.finish().values() for c in found]
    return keys(builder().batch(1).build().run(events).complex_events), keys(tail)


def serve_then_go_quiet(pipeline, frames, between_frames=None):
    """Ingest ``frames`` one acked frame at a time, then go quiet.

    Returns what the sinks saw and the server's state once the queue is
    joined (before ``stop()``), and ``stop()``'s detections.
    """
    collected = []
    pipeline.chains[0].emit.subscribe(collected.append)

    async def scenario():
        server = PipelineServer(
            pipeline, health_policy=HealthPolicy(failure_threshold=1)
        )
        await server.start()
        try:
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                for index, frame in enumerate(frames):
                    assert (await client.ingest(frame))["ok"]
                    if between_frames is not None:
                        await server._queue.join()
                        between_frames(index, server)
            # every admitted event has run through the stages once joined
            await server._queue.join()
            quiet = {
                "pending": len(pipeline._feed_batcher),
                "arrivals": pipeline.chains[0].admission.arrivals,
                "metrics": server.metrics(),
                "detections": list(collected),
            }
        finally:
            final = await server.stop()
        return quiet, final, collected

    return asyncio.run(scenario())


class TestIdleFlush:
    def test_acked_frames_leave_nothing_in_the_batcher(self, frames):
        expected, open_tail = reference(frames)
        quiet, final, collected = serve_then_go_quiet(builder().build(), frames)
        total = FRAME_EVENTS * len(frames)
        assert quiet["pending"] == 0
        assert quiet["arrivals"] == total
        assert quiet["metrics"]["ingest"]["events_fed"] == quiet["arrivals"]
        # everything but the open-window tail left before stop()
        (tail,) = final.values()
        assert keys(tail) == open_tail
        assert tail
        assert keys(quiet["detections"]) == expected[: len(expected) - len(tail)]
        assert keys(quiet["detections"]) + keys(tail) == expected
        assert keys(collected) == expected

    def test_sharded_pipeline_behind_the_server(self, frames):
        expected, _open_tail = reference(frames)
        sharded = builder().distributed(2, batch_size=BATCH).build()
        try:
            quiet, _final, collected = serve_then_go_quiet(sharded, frames)
        finally:
            sharded.shutdown()
        total = FRAME_EVENTS * len(frames)
        assert quiet["pending"] == 0
        assert quiet["arrivals"] == total
        assert quiet["metrics"]["ingest"]["events_fed"] == quiet["arrivals"]
        assert keys(collected) == expected
        assert collected

    def test_a_failing_idle_flush_is_counted_once(self, frames):
        bad_frame = 2  # at the head of a micro-batch, were frames joined
        bad_seq = frames[bad_frame][FRAME_EVENTS // 2].seq
        seen = Seen()
        errors_after = {}

        def record(index, server):
            errors_after[index] = server.feed_errors

        quiet, _final, _collected = serve_then_go_quiet(
            builder(RaiseOnSeq(bad_seq), seen).build(), frames, record
        )
        total = FRAME_EVENTS * len(frames)
        # each frame was flushed alone: the failure is the bad frame's
        assert errors_after[bad_frame - 1] == 0
        assert errors_after[bad_frame] == 1
        health = quiet["metrics"]["health"]
        assert health["feed_errors"] == 1
        assert health["last_feed_error"] == f"RuntimeError: boom at seq {bad_seq}"
        # the feeder kept serving: the next frames were fed
        assert quiet["pending"] == 0
        assert quiet["arrivals"] == total
        assert quiet["metrics"]["ingest"]["events_fed"] == total
        assert seen.count == total - FRAME_EVENTS
