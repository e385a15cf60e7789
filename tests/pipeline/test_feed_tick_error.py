"""A stage whose ``on_tick`` raised must not wedge the next ``feed_many``.

A tick due at the first event of a freshly filled micro-batch runs
before that batch is processed.  If the tick raises there, the batch it
was due before is lost with it -- the contract of
``tests/serve/test_feed_errors.py``: a caller resuming the same
iterator loses at most one batch, and every event after it still
reaches the stages.  A full batch left pending would instead give the
resumed call no room to take events, and it would spin forever; the
resumed call therefore runs in a thread joined with a timeout.
"""

import threading

import pytest

from repro.datasets import SoccerStreamConfig, generate_soccer_stream
from repro.pipeline import Pipeline, Stage
from repro.queries import build_q1

BATCH = 4
RESUME_TIMEOUT_S = 20.0


class RaiseOnceBeforeAFullBatch(Stage):
    """Records every event it sees; raises from the first tick that falls
    due before a whole buffered batch (the pipeline's pending batch is
    full), remembering the events that batch held."""

    name = "raise_once_before_a_full_batch"

    def __init__(self) -> None:
        self.pipeline = None
        self.seen = []
        self.ticks = 0
        self.pending_at_raise = None

    def on_event(self, ctx) -> bool:
        self.seen.append(ctx.event.seq)
        return True

    def on_tick(self, now: float) -> None:
        self.ticks += 1
        pending = self.pipeline._feed_batcher.pending.events
        if self.pending_at_raise is None and len(pending) == BATCH:
            self.pending_at_raise = [event.seq for event in pending]
            raise RuntimeError("tick failed")


@pytest.fixture(scope="module")
def stream():
    return list(generate_soccer_stream(SoccerStreamConfig(duration_seconds=200)))


def test_resumed_feed_loses_only_the_batch_the_tick_was_due_before(stream):
    stage = RaiseOnceBeforeAFullBatch()
    pipeline = stage.pipeline = (
        Pipeline.builder()
        .query(build_q1(pattern_size=2, window_seconds=15.0))
        .batch(BATCH)
        .stage(stage)
        .build()
    )
    events = iter(stream)
    while stage.pending_at_raise is None:
        try:
            pipeline.feed_many(next(events) for _ in range(BATCH * 16))
        except RuntimeError as error:
            assert str(error) == "tick failed"
    lost = stage.pending_at_raise
    seen_before = len(stage.seen)

    outcome = {}

    def resume():
        try:
            pipeline.feed_many(events)
            pipeline.finish()
            outcome["done"] = True
        except Exception as error:  # pragma: no cover - reported below
            outcome["error"] = error

    worker = threading.Thread(target=resume, daemon=True)
    worker.start()
    worker.join(RESUME_TIMEOUT_S)
    assert not worker.is_alive(), "the resumed feed_many never returned"
    assert outcome == {"done": True}

    # the batch the tick was due before -- and only it -- is lost; every
    # event after it reached the stages, in order
    seqs = [event.seq for event in stream]
    assert lost == seqs[seen_before : seen_before + BATCH]
    assert stage.seen == seqs[:seen_before] + seqs[seen_before + BATCH :]
    assert stage.ticks > 1  # tick duty resumed with the feed
