"""The consumer's error isolation: one failing micro-batch, nothing else lost.

A stage that raises inside the pipeline must not kill the server's
single feeder: the failure is counted (``feed_errors``), named
(``last_feed_error``) and reported to the degradation ladder, and the
consumer resumes ``feed_many`` on the same iterator -- so only the
micro-batch the stage failed on is lost, and every event after it (same
frame and later frames) still reaches the stages.

The oracle is an in-process pipeline carrying the same raising stage,
driven by the same resume-the-iterator loop over the same frames.
"""

import asyncio

import pytest

from repro.datasets import SoccerStreamConfig, generate_soccer_stream
from repro.pipeline import Pipeline, Stage
from repro.queries import build_q1
from repro.serve import HealthPolicy, PipelineServer, ServeClient

FRAME_EVENTS = 64
BATCH = 16


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

    def metrics(self):
        return {"count": self.count}


@pytest.fixture(scope="module")
def frames():
    stream = list(generate_soccer_stream(SoccerStreamConfig(duration_seconds=300)))
    return [
        stream[i : i + FRAME_EVENTS] for i in range(0, len(stream), FRAME_EVENTS)
    ]


def builder(bad_seq):
    return (
        Pipeline.builder()
        .query(build_q1(pattern_size=2, window_seconds=15.0))
        .batch(BATCH)
        .stage(RaiseOnSeq(bad_seq))
        .stage(Seen())
    )


def keys(events):
    return [c.key for c in events]


def in_process(bad_seq, frames):
    """(detections, failures) of the reference resume loop."""
    pipeline = builder(bad_seq).build()
    detected = []
    pipeline.chains[0].emit.subscribe(detected.append)
    failures = 0
    for frame in frames:
        remaining = iter(frame)
        for _attempt in frame:
            try:
                pipeline.feed_many(remaining)
                break
            except RuntimeError:
                failures += 1
    pipeline.finish()
    return detected, failures


def served(pipeline, frames):
    """(detections, metrics, /healthz payload) of the same frames on the wire."""
    detected = []
    pipeline.chains[0].emit.subscribe(detected.append)

    async def scenario():
        server = PipelineServer(
            pipeline, health_policy=HealthPolicy(failure_threshold=1)
        )
        await server.start()
        try:
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                for frame in frames:
                    assert (await client.ingest(frame))["ok"]
                while server.pending_events:
                    await asyncio.sleep(0)
                healthz = await client.request({"op": "healthz"})
        finally:
            await server.stop()
        return server.metrics(), healthz

    metrics, healthz = asyncio.run(scenario())
    return detected, metrics, healthz


@pytest.fixture(scope="module")
def bad_seq(frames):
    """An event some detection needs, in a middle micro-batch of its frame:
    events of the same frame, and whole frames, follow the failing batch."""
    clean, failures = in_process(-1, frames)
    assert failures == 0
    for complex_event in clean:
        for seq in complex_event.key[2]:
            if BATCH <= seq % FRAME_EVENTS < FRAME_EVENTS - BATCH:
                return seq
    raise AssertionError("no detection touches the middle of a frame")


class TestFeedErrorIsolation:
    def test_one_failing_micro_batch_is_all_that_is_lost(self, frames, bad_seq):
        reference, failures = in_process(bad_seq, frames)
        assert failures == 1
        assert keys(reference) != keys(in_process(-1, frames)[0])

        detected, metrics, healthz = served(builder(bad_seq).build(), frames)
        total = sum(len(frame) for frame in frames)
        assert metrics["health"]["feed_errors"] == 1
        assert metrics["health"]["last_feed_error"] == (
            f"RuntimeError: boom at seq {bad_seq}"
        )
        # the ladder saw it: one failure is this policy's threshold
        assert healthz["health"] == "overloaded"
        # the whole frame counts as fed, and the consumer kept serving
        assert metrics["ingest"]["events_fed"] == total
        assert metrics["ingest"]["batches_admitted"] == len(frames)
        # exactly the failing micro-batch stopped at the raising stage
        (stages,) = metrics["pipeline"].values()
        assert stages["admission"]["arrivals"] == total
        assert stages["seen"]["count"] == total - BATCH
        assert keys(detected) == keys(reference)
        assert detected

    def test_sharded_pipeline_behind_the_server(self, frames, bad_seq):
        reference, failures = in_process(bad_seq, frames)
        assert failures == 1
        sharded = builder(bad_seq).distributed(2, batch_size=BATCH).build()
        try:
            detected, metrics, healthz = served(sharded, frames)
        finally:
            sharded.shutdown()
        assert metrics["health"]["feed_errors"] == 1
        assert healthz["health"] == "overloaded"
        assert metrics["ingest"]["events_fed"] == sum(len(f) for f in frames)
        assert keys(detected) == keys(reference)
        assert detected
