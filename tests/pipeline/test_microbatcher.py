"""MicroBatcher edge cases: linger/size races, empty flushes, finish().

The serve subsystem feeds the live micro-batcher from multiple client
connections through one consumer, which makes the take()/add() edge
cases -- empty flush, linger expiry racing the size trigger,
interleaved feeders -- load-bearing; this suite pins them down at both
the :class:`MicroBatcher` unit level and the :class:`Pipeline` feed
level.
"""

import pytest

from repro.cep.events import Event
from repro.datasets import SoccerStreamConfig, generate_soccer_stream, split_stream
from repro.pipeline import Pipeline
from repro.pipeline.batching import EventBatch, MicroBatcher
from repro.queries import build_q1


def ev(seq, ts=None):
    return Event("a", seq, float(seq) if ts is None else ts)


def keys(events):
    return [c.key for c in events]


@pytest.fixture(scope="module")
def live():
    stream = generate_soccer_stream(SoccerStreamConfig(duration_seconds=300))
    _train, live = split_stream(stream, train_fraction=0.5)
    return live


def build_pipeline(batch_size=8, linger=0.0):
    return (
        Pipeline.builder()
        .query(build_q1(pattern_size=2, window_seconds=15.0))
        .batch(batch_size, linger)
        .build()
    )


class TestMicroBatcherUnit:
    def test_take_on_empty_returns_none(self):
        batcher = MicroBatcher(4)
        assert batcher.take() is None
        assert batcher.take() is None  # stays empty, stays None

    def test_size_trigger_flushes_exactly_at_batch_size(self):
        batcher = MicroBatcher(3)
        assert batcher.add(ev(0), 0.0) is None
        assert batcher.add(ev(1), 0.0) is None
        batch = batcher.add(ev(2), 0.0)
        assert isinstance(batch, EventBatch)
        assert [e.seq for e in batch.events] == [0, 1, 2]
        assert len(batcher) == 0  # buffer reset

    def test_linger_expiry_flushes_partial_batch(self):
        batcher = MicroBatcher(100, linger=1.0)
        assert batcher.add(ev(0, 0.0), 0.0) is None
        assert batcher.add(ev(1, 0.5), 0.5) is None
        batch = batcher.add(ev(2, 1.5), 1.5)  # oldest waited 1.5 >= 1.0
        assert batch is not None
        assert [e.seq for e in batch.events] == [0, 1, 2]

    def test_linger_boundary_is_inclusive(self):
        # now - oldest == linger triggers the flush (>=, not >)
        batcher = MicroBatcher(100, linger=1.0)
        batcher.add(ev(0, 0.0), 0.0)
        assert batcher.add(ev(1, 1.0), 1.0) is not None

    def test_linger_clock_resets_after_flush(self):
        batcher = MicroBatcher(100, linger=1.0)
        batcher.add(ev(0, 0.0), 0.0)
        assert batcher.add(ev(1, 1.0), 1.0) is not None
        # the next buffered event anchors a fresh linger window
        assert batcher.add(ev(2, 1.5), 1.5) is None
        assert batcher.add(ev(3, 2.4), 2.4) is None  # 0.9 < linger
        assert batcher.add(ev(4, 2.5), 2.5) is not None

    def test_size_trigger_wins_race_without_duplicate_flush(self):
        # an add that crosses the size threshold AND the linger deadline
        # must flush exactly once, with every buffered event exactly once
        batcher = MicroBatcher(2, linger=1.0)
        batcher.add(ev(0, 0.0), 0.0)
        batch = batcher.add(ev(1, 5.0), 5.0)  # both triggers fire here
        assert batch is not None
        assert [e.seq for e in batch.events] == [0, 1]
        assert batcher.take() is None  # nothing left behind

    def test_zero_linger_never_flushes_by_time(self):
        batcher = MicroBatcher(10, linger=0.0)
        batcher.add(ev(0, 0.0), 0.0)
        assert batcher.add(ev(1, 1000.0), 1000.0) is None

    def test_take_returns_pending_and_resets(self):
        batcher = MicroBatcher(10)
        batcher.add(ev(0), 0.0)
        batcher.add(ev(1), 1.0)
        batch = batcher.take()
        assert [e.seq for e in batch.events] == [0, 1]
        assert batch.nows == [0.0, 1.0]
        assert batcher.take() is None

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(0)
        with pytest.raises(ValueError):
            MicroBatcher(1, linger=-0.1)


class TestPipelineFlushEdgeCases:
    def test_flush_pending_on_empty_buffer_is_noop(self):
        pipeline = build_pipeline(batch_size=8)
        assert all(not v for v in pipeline.flush_pending().values())
        assert all(not v for v in pipeline.flush_pending().values())  # twice

    def test_flush_pending_without_batcher_is_noop(self, live):
        # batch size one: every feed flushes, so nothing is ever buffered
        pipeline = build_pipeline(batch_size=1)
        assert all(not v for v in pipeline.flush_pending().values())
        for event in live[:50]:
            pipeline.feed(event)
            assert len(pipeline._feed_batcher) == 0
        fed = pipeline.metrics()[pipeline.chains[0].query.name]["admission"]
        assert fed["arrivals"] == 50
        assert all(not v for v in pipeline.flush_pending().values())

    def test_finish_on_fresh_pipeline_is_empty(self):
        pipeline = build_pipeline()
        out = pipeline.finish()
        assert all(not v for v in out.values())

    def test_feed_many_plus_finish_equals_run(self, live):
        reference = build_pipeline().run(live)
        pipeline = build_pipeline()
        fed = pipeline.feed_many(live)
        final = pipeline.finish()
        total = {
            name: fed[name] + final[name] for name in fed
        }
        for name, detected in total.items():
            assert keys(detected) == keys(reference.for_query(name))

    def test_finish_flushes_buffered_events_and_open_windows(self, live):
        # a batch bigger than the slice: nothing flushes by size, so
        # every detection must come from finish()
        reference = build_pipeline(batch_size=1).run(live)
        pipeline = build_pipeline(batch_size=len(live) + 1)
        fed = pipeline.feed_many(live)
        assert all(not v for v in fed.values())
        final = pipeline.finish()
        for name, detected in final.items():
            assert keys(detected) == keys(reference.for_query(name))

    def test_pipeline_usable_after_finish(self, live):
        pipeline = build_pipeline()
        half = len(live) // 2
        pipeline.feed_many(live[:half])
        pipeline.finish()
        # later feeds open new windows and still detect
        again = pipeline.feed_many(live[half:])
        final = pipeline.finish()
        total = sum(len(v) for v in again.values()) + sum(
            len(v) for v in final.values()
        )
        assert total > 0

    def test_linger_expiry_during_live_feed_matches_per_event(self, live):
        reference = build_pipeline(batch_size=1).run(live)
        pipeline = build_pipeline(batch_size=4096, linger=2.0)
        fed = pipeline.feed_many(live)
        final = pipeline.finish()
        assert sum(len(v) for v in fed.values()) > 0  # linger flushed mid-feed
        total = {name: fed[name] + final[name] for name in fed}
        for name, detected in total.items():
            assert keys(detected) == keys(reference.for_query(name))


class TestConcurrentFeeders:
    """Interleaved feed() callers (the serve consumer's perspective).

    The asyncio server serialises concurrent connections into one feed
    sequence; these tests pin the invariant that a feed sequence built
    from several interleaved sources behaves exactly like the same
    sequence from one source -- batching state cannot depend on who
    calls feed().
    """

    def test_alternating_feeders_equal_single_feeder(self, live):
        single = build_pipeline()
        fed_single = single.feed_many(live)
        final_single = single.finish()

        interleaved = build_pipeline()
        out = {chain.query.name: [] for chain in interleaved.chains}
        # two "connections" alternating batches of 17 events, in stream
        # order -- exactly what the server's consumer produces
        for start in range(0, len(live), 17):
            for name, detected in interleaved.feed_many(
                live[start : start + 17]
            ).items():
                out[name].extend(detected)
        final_interleaved = interleaved.finish()

        for name in out:
            assert keys(out[name] + final_interleaved[name]) == keys(
                fed_single[name] + final_single[name]
            )

    def test_batch_spanning_feed_calls_flushes_once(self):
        # 5 events per call into a batch of 8: flush happens mid-call on
        # the second feed_many, carrying events from both callers
        pipeline = build_pipeline(batch_size=8)
        events = [ev(i, float(i) * 0.01) for i in range(10)]
        pipeline.feed_many(events[:5])
        assert len(pipeline._feed_batcher) == 5
        pipeline.feed_many(events[5:])
        assert len(pipeline._feed_batcher) == 2  # 10 = 8 + 2
        pipeline.finish()
        assert len(pipeline._feed_batcher) == 0
