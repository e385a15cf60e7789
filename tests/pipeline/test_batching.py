"""Micro-batched execution equals per-event execution, bit for bit.

The batched event path may only change *constants*: for every batch
size, detections (contents, order, detection times), shedder counters
and retrain behaviour must be identical to per-event execution --
including when window opens/closes, drift signals and hot model swaps
land in the middle of a batch.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep.events import StreamBuilder
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import CountSlidingWindows, PredicateWindows
from repro.core.kernel import HAVE_NUMPY
from repro.pipeline import EventBatch, MicroBatcher, Pipeline, SamplingStage
from repro.shedding.base import DropCommand

#: The satellite-mandated spread: degenerate, tiny, odd, typical, huge.
BATCH_SIZES = [1, 2, 7, 64, 1000]

BACKENDS = [None, "fallback"] + (["numpy"] if HAVE_NUMPY else [])


def count_query(name="cq", window=6, slide=2, types=("A", "B", "C")):
    return Query(
        name=name,
        pattern=seq(name, *[spec(t) for t in types]),
        window_factory=lambda: CountSlidingWindows(window, slide=slide),
    )


def predicate_query(name="pq", extent=8, types=("A", "B")):
    return Query(
        name=name,
        pattern=seq(name, *[spec(t) for t in types]),
        window_factory=lambda: PredicateWindows(
            open_predicate=lambda e: e.event_type == "A",
            extent_events=extent,
        ),
    )


def synth_stream(symbols, rate=50.0):
    builder = StreamBuilder(rate=rate)
    for symbol in symbols:
        builder.emit(symbol)
    return builder.stream


def keys_and_times(complex_events):
    return [(c.key, c.detection_time) for c in complex_events]


# ----------------------------------------------------------------------
# the batching primitives
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_flushes_by_size(self):
        stream = synth_stream(["A"] * 10)
        batcher = MicroBatcher(batch_size=4)
        flushed = []
        for event in stream:
            batch = batcher.add(event, event.timestamp)
            if batch is not None:
                flushed.append(len(batch))
        tail = batcher.take()
        assert flushed == [4, 4]
        assert len(tail) == 2
        assert batcher.take() is None

    def test_flushes_by_linger(self):
        stream = synth_stream(["A"] * 10, rate=1.0)  # 1s apart
        batcher = MicroBatcher(batch_size=100, linger=2.5)
        sizes = []
        for event in stream:
            batch = batcher.add(event, event.timestamp)
            if batch is not None:
                sizes.append(len(batch))
        # oldest waits 2.5s => flush on every 4th event (0,1,2 then 3 trips it)
        assert sizes and all(size <= 4 for size in sizes)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            MicroBatcher(0)
        with pytest.raises(ValueError):
            MicroBatcher(1, linger=-0.1)

    def test_event_batch_is_sized_container(self):
        batch = EventBatch()
        assert not batch and len(batch) == 0
        stream = synth_stream(["A"])
        batch.append(stream[0], 1.0)
        assert batch and len(batch) == 1


# ----------------------------------------------------------------------
# unshedded equivalence: window open/close landing mid-batch
# ----------------------------------------------------------------------
class TestUnsheddedEquivalence:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("make_query", [count_query, predicate_query])
    def test_run_equals_per_event(self, batch_size, make_query):
        symbols = random.Random(1).choices(["A", "B", "C", "X"], k=400)
        stream = synth_stream(symbols)
        reference = Pipeline.builder().query(make_query()).build().run(stream)
        batched = (
            Pipeline.builder().query(make_query()).batch(batch_size).build()
        ).run(stream)
        assert keys_and_times(batched.complex_events) == keys_and_times(
            reference.complex_events
        )
        assert batched.events_fed == reference.events_fed

    @given(
        batch_size=st.sampled_from(BATCH_SIZES),
        symbols=st.lists(
            st.sampled_from(["A", "B", "C", "X"]), min_size=0, max_size=250
        ),
        window=st.integers(min_value=1, max_value=9),
        slide=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_windows_mid_batch(self, batch_size, symbols, window, slide):
        """Hypothesis: any stream, any sliding windows, any batch size."""

        def make():
            return Pipeline.builder().query(
                count_query(window=window, slide=slide)
            )

        stream = synth_stream(symbols)
        reference = make().build().run(stream)
        batched = make().batch(batch_size).build().run(stream)
        assert keys_and_times(batched.complex_events) == keys_and_times(
            reference.complex_events
        )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_feed_equals_per_event_feed(self, batch_size):
        symbols = random.Random(2).choices(["A", "B", "C"], k=300)
        stream = synth_stream(symbols)
        per_event = Pipeline.builder().query(count_query()).build()
        batched = (
            Pipeline.builder().query(count_query()).batch(batch_size).build()
        )
        a, b = [], []
        for event in stream:
            a.extend(per_event.feed(event)["cq"])
            b.extend(batched.feed(event)["cq"])
        b.extend(batched.flush_pending()["cq"])
        assert keys_and_times(a) == keys_and_times(b)

    def test_custom_stage_veto_mid_batch(self):
        """A vetoing custom ingress stage must shadow later stages
        identically in both modes (same RNG draw order)."""
        symbols = random.Random(3).choices(["A", "B", "C"], k=300)
        stream = synth_stream(symbols)

        def build(batch_size):
            return (
                Pipeline.builder()
                .query(count_query())
                .stage(SamplingStage(keep_probability=0.7, seed=5))
                .batch(batch_size)
                .build()
            )

        reference = build(1).run(stream)
        for batch_size in (2, 7, 64):
            batched = build(batch_size).run(stream)
            assert keys_and_times(batched.complex_events) == keys_and_times(
                reference.complex_events
            )

    def test_run_keeps_pending_feed_detections(self):
        """Detections of events still buffered by a feed session must
        surface in the next run() result, not vanish."""
        symbols = ["A", "B", "C"] * 20
        stream = synth_stream(symbols)
        pipeline = Pipeline.builder().query(count_query()).batch(1000).build()
        fed = []
        for event in stream:
            fed.extend(pipeline.feed(event)["cq"])
        assert fed == []  # everything is still buffered (batch of 1000)
        result = pipeline.run(synth_stream([]))
        reference = Pipeline.builder().query(count_query()).build().run(stream)
        # identical detections in identical order (detection *times* of
        # the end-of-stream flush differ: the empty run stream cannot
        # know the feed clock)
        assert [c.key for c in result.complex_events] == [
            c.key for c in reference.complex_events
        ]

    def test_batched_backpressure_reports_no_phantom_backlog(self):
        """The staging depth of a synchronous micro-batch is not
        backlog: max_queue_depth must match per-event execution."""
        symbols = ["A", "B", "C"] * 40
        per_event = Pipeline.builder().query(count_query()).build()
        per_event.run(synth_stream(symbols))
        batched = Pipeline.builder().query(count_query()).batch(64).build()
        batched.run(synth_stream(symbols))
        assert (
            batched.backpressure()["cq"]["max_queue_depth"]
            == per_event.backpressure()["cq"]["max_queue_depth"]
            == 1
        )

    def test_bounded_queue_forces_per_event(self):
        """queue_capacity admission depends on drain interleaving, so a
        batched config must quietly run per event and stay identical."""
        symbols = ["A", "B", "C"] * 60
        stream = synth_stream(symbols)

        def build(batch_size):
            return (
                Pipeline.builder()
                .query(count_query())
                .queue_capacity(1)
                .batch(batch_size)
                .build()
            )

        reference = build(1).run(stream)
        batched = build(64).run(stream)
        assert keys_and_times(batched.complex_events) == keys_and_times(
            reference.complex_events
        )


# ----------------------------------------------------------------------
# shedding equivalence: drop decisions + model swaps landing mid-batch
# ----------------------------------------------------------------------
def soccer_fixture():
    from repro.datasets import SoccerStreamConfig, generate_soccer_stream, split_stream
    from repro.queries import build_q1

    stream = generate_soccer_stream(SoccerStreamConfig(duration_seconds=900))
    train, live = split_stream(stream, train_fraction=0.5)
    return build_q1(pattern_size=2, window_seconds=15.0), train, live


class TestSheddedEquivalence:
    @pytest.fixture(scope="class")
    def workload(self):
        return soccer_fixture()

    def _run(self, workload, batch_size, backend):
        query, train, live = workload
        pipeline = (
            Pipeline.builder()
            .query(query)
            .shedder("espice", f=0.8)
            .bin_size(4)
            .batch(batch_size)
            .build()
        )
        pipeline.train(train)
        pipeline.deploy(expected_throughput=800.0, expected_input_rate=1200.0)
        shedder = pipeline.chains[0].shedder
        shedder._kernel_backend = backend
        psize = pipeline.model.reference_size / 4
        shedder.on_drop_command(
            DropCommand(x=0.25 * psize, partition_count=4, partition_size=psize)
        )
        shedder.activate()
        result = pipeline.run(live)
        return result, shedder

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_active_shedding_is_batch_invariant(self, workload, batch_size, backend):
        reference, ref_shedder = self._run(workload, 1, None)
        batched, shedder = self._run(workload, batch_size, backend)
        assert keys_and_times(batched.complex_events) == keys_and_times(
            reference.complex_events
        )
        # decision/drop accounting is part of the contract
        assert shedder.decisions == ref_shedder.decisions
        assert shedder.drops == ref_shedder.drops


class TestAdaptiveRetrainMidBatch:
    """Drift signal -> retrain -> hot swap landing inside a batch."""

    def _drifting_stream(self):
        # first half matches training, second half shifts the types so
        # the drift detector fires and the controller hot-swaps models
        rng = random.Random(9)
        symbols = rng.choices(["A", "B", "C"], weights=[4, 4, 1], k=900)
        symbols += rng.choices(["A", "B", "C"], weights=[1, 1, 8], k=900)
        return synth_stream(symbols)

    def _build(self, batch_size):
        rng = random.Random(10)
        train = synth_stream(rng.choices(["A", "B", "C"], weights=[4, 4, 1], k=900))
        pipeline = (
            Pipeline.builder()
            .query(count_query(window=8, slide=4))
            .shedder("espice", f=0.8)
            .adaptive(check_every=10, min_training_windows=12)
            .batch(batch_size)
            .build()
        )
        pipeline.train(train)
        pipeline.deploy(expected_throughput=500.0, expected_input_rate=600.0)
        shedder = pipeline.chains[0].shedder
        psize = pipeline.model.reference_size / 2
        shedder.on_drop_command(
            DropCommand(x=0.3 * psize, partition_count=2, partition_size=psize)
        )
        shedder.activate()
        return pipeline

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_retrain_mid_batch_is_invariant(self, batch_size):
        stream = self._drifting_stream()
        reference = self._build(1)
        ref_result = reference.run(stream)
        ref_retrains = reference.chains[0].controller.retrain_count

        batched = self._build(batch_size)
        result = batched.run(stream)
        assert keys_and_times(result.complex_events) == keys_and_times(
            ref_result.complex_events
        )
        # the hot swaps happened at the same windows, same count
        assert batched.chains[0].controller.retrain_count == ref_retrains
        assert (
            batched.chains[0].shedder.model.fingerprint()
            == reference.chains[0].shedder.model.fingerprint()
        )

    def test_retrain_actually_fires(self):
        """Guard: the scenario genuinely exercises a mid-run hot swap."""
        pipeline = self._build(64)
        pipeline.run(self._drifting_stream())
        assert pipeline.chains[0].controller.retrain_count >= 1
