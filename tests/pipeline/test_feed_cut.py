"""``feed_many(slice)`` cuts its micro-batches exactly where feeding the
slice one event at a time would.

``Pipeline.feed_many`` takes runs off the offered slice -- what the
pending batch has room for -- instead of pushing events through the
batcher one by one, and cuts a run only where a due tick some stage
observes, or the linger bound, demands it.  That is a change of
constants only: per call it must return the same detections in the
same order, and leave the session clock (``_last_fed``), the tick
schedule's next tick (``_ticks.next``), the pending batch and every
stage counter where ``for e in slice: feed(e)`` leaves them.

A stage that observes ticks sees the same tick times whether the
stream is fed live or replayed by the virtual-time driver at its own
rate: both drivers step the same kind of tick schedule from the
stream's start.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep.events import StreamBuilder
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import CountSlidingWindows
from repro.pipeline import (
    MicroBatcher,
    Pipeline,
    PipelineConfig,
    QueryChain,
    Stage,
)

SLICE_LENGTHS = [0, 1, 7, 64, 1000]
BATCH_SIZES = [1, 2, 16, 64]


def count_query():
    return Query(
        name="cq",
        pattern=seq("cq", spec("A"), spec("B"), spec("C")),
        window_factory=lambda: CountSlidingWindows(6, slide=2),
    )


def synth_stream(n, seed):
    """50 events/s: a tick (0.1 s) falls due every five events."""
    builder = StreamBuilder(rate=50.0)
    for symbol in random.Random(seed).choices(["A", "B", "C"], k=n):
        builder.emit(symbol)
    return list(builder.stream)


class TickLog(Stage):
    """Observes ticks: logs each with the number of events seen before it."""

    name = "ticklog"

    def __init__(self) -> None:
        self.seen = 0
        self.log = []

    def on_event(self, ctx) -> bool:
        self.seen += 1
        return True

    def on_tick(self, now: float) -> None:
        self.log.append((now, self.seen))

    def metrics(self):
        return {"seen": self.seen, "ticks": len(self.log)}


class BatchLog(Stage):
    """Records the micro-batches the chain is handed, as lists of seqs."""

    name = "batchlog"

    def __init__(self) -> None:
        self.batches = []

    def process_batch(self, batch) -> None:
        self.batches.append([ctx.event.seq for ctx in batch.contexts])


class RaiseOnSeq(Stage):
    name = "raise_on_seq"

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.passed = 0

    def on_event(self, ctx) -> bool:
        if ctx.event.seq == self.seq:
            raise RuntimeError(f"boom at seq {self.seq}")
        self.passed += 1
        return True


def build(batch_size, linger=0.0, ticks="off", extra_stage=None):
    builder = Pipeline.builder().query(count_query()).batch(batch_size, linger)
    builder = builder.stage(BatchLog())
    if ticks == "stage":
        builder = builder.stage(TickLog())
    elif ticks == "detector":
        builder = builder.shedder("random").reference_size(6)
    if extra_stage is not None:
        builder = builder.stage(extra_stage)
    pipeline = builder.build()
    if ticks == "detector":
        pipeline.deploy()  # unpinned: the detector estimates rates from arrivals
    return pipeline


def keys_and_times(complex_events):
    return [(c.key, c.detection_time) for c in complex_events]


def session_state(pipeline):
    state = {
        "last_fed": pipeline._last_fed,
        "next_tick": pipeline._ticks.next,
        "pending": [e.seq for e in pipeline._feed_batcher.pending.events],
        "metrics": pipeline.metrics(),
    }
    for stage in pipeline.chains[0].stages:
        if isinstance(stage, TickLog):
            state["ticks"] = list(stage.log)
        if isinstance(stage, BatchLog):
            state["batches"] = list(stage.batches)
    detector = pipeline.chains[0].detector
    if detector is not None:
        # each check records the input rate it estimated from the arrivals
        # processed before it: this pins where the ticks interleave
        state["checks"] = list(detector.samples)
    return state


class TestCutEqualsPerEventFeeding:
    @given(
        lengths=st.lists(st.sampled_from(SLICE_LENGTHS), min_size=1, max_size=4),
        batch_size=st.sampled_from(BATCH_SIZES),
        linger=st.sampled_from([0.0, 0.5]),
        ticks=st.sampled_from(["off", "stage", "detector"]),
        explicit_now=st.booleans(),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_slices(
        self, lengths, batch_size, linger, ticks, explicit_now, seed
    ):
        stream = synth_stream(sum(lengths), seed)
        sliced = build(batch_size, linger, ticks)
        per_event = build(batch_size, linger, ticks)
        # batch size is transparent: one event per batch is the ground truth
        unbatched = build(1, 0.0, ticks)
        # without tick cuts the batcher's own size-or-linger rule is the oracle
        oracle, oracle_batches = MicroBatcher(batch_size, linger), []
        got, truth = [], []
        start = 0
        for call, length in enumerate(lengths):
            chunk = stream[start : start + length]
            start += length
            # a live clock of its own: later than the slice, repeating per call
            now = chunk[-1].timestamp + 0.3 * call if explicit_now and chunk else None
            out = sliced.feed_many(iter(chunk), now=now)["cq"]
            expected = []
            for event in chunk:
                expected.extend(per_event.feed(event, now=now)["cq"])
                truth.extend(unbatched.feed(event, now=now)["cq"])
                due = oracle.add(event, event.timestamp if now is None else now)
                if due is not None:
                    oracle_batches.append([e.seq for e in due.events])
            assert keys_and_times(out) == keys_and_times(expected)
            assert session_state(sliced) == session_state(per_event)
            if ticks == "off":
                assert session_state(sliced)["batches"] == oracle_batches
            got.extend(out)
        got.extend(sliced.finish()["cq"])
        truth.extend(unbatched.finish()["cq"])
        assert keys_and_times(got) == keys_and_times(truth)
        assert sliced._ticks.next == unbatched._ticks.next
        assert session_state(sliced).get("ticks") == session_state(unbatched).get(
            "ticks"
        )

    @pytest.mark.parametrize("ticks", ["off", "stage"])
    def test_run_shares_the_cut(self, ticks):
        stream = synth_stream(500, seed=9)
        reference = build(1, 0.0, ticks).run(stream)
        for batch_size in BATCH_SIZES:
            pipeline = build(batch_size, 0.5, ticks)
            replay = pipeline.run(stream)
            assert keys_and_times(replay.complex_events) == keys_and_times(
                reference.complex_events
            )
            assert replay.events_fed == len(stream)
            # a replay does not move the live session's clock
            assert pipeline._last_fed == 0.0


class TestLazyConsumption:
    def test_failing_batch_leaves_later_events_unconsumed(self):
        stream = synth_stream(100, seed=1)
        failing = RaiseOnSeq(stream[37].seq)  # batch 2 of size 16: events 32..47
        pipeline = build(16, extra_stage=failing)
        events = iter(stream)
        with pytest.raises(RuntimeError, match="boom"):
            pipeline.feed_many(events)
        assert next(events) is stream[48]
        # resuming on the same iterator feeds everything after the batch
        pipeline.feed_many(events)
        pipeline.flush_pending()
        assert failing.passed == len(stream) - 16 - 1 + (37 - 32)
        arrivals = pipeline.metrics()["cq"]["admission"]["arrivals"]
        assert arrivals == len(stream) - 1  # stream[48] was taken by the test

    def test_cut_inside_a_run_loses_nothing(self):
        # with a tick cut inside a run the iterator is ahead of the
        # failing batch by at most the run, and the run is buffered
        stream = synth_stream(100, seed=2)
        failing = RaiseOnSeq(stream[37].seq)
        pipeline = build(16, ticks="stage", extra_stage=failing)
        events = iter(stream)
        with pytest.raises(RuntimeError, match="boom"):
            pipeline.feed_many(events)
        taken = len(stream) - len(list(events))
        assert taken <= 48
        admitted_or_pending = pipeline.metrics()["cq"]["admission"][
            "arrivals"
        ] + len(pipeline._feed_batcher)
        assert admitted_or_pending == taken


class CountingInterval(float):
    """A tick interval that counts how often the tick schedule adds it.

    Fails fast instead of stepping through a long span one interval at
    a time (10**9 additions over 1 000 s at 1e-6 s).
    """

    limit = 1000

    def __new__(cls, value):
        interval = super().__new__(cls, value)
        interval.additions = 0
        return interval

    def __radd__(self, other):
        self.additions += 1
        if self.additions > self.limit:
            raise AssertionError("the tick schedule steps through the fed span")
        return float(other) + float(self)


class TestTickClockWithoutDuty:
    @pytest.mark.parametrize("batch_size", [1, 16])
    def test_feed_cost_does_not_grow_with_the_span(self, batch_size):
        # no detector, no tick stage: ticks are no-ops, and stepping the
        # tick schedule across 1 000 s at a 1e-6 s interval is 10**9 steps
        builder = StreamBuilder(rate=0.01)  # one event every 100 s
        for symbol in ["A", "B", "C"] * 4:
            builder.emit(symbol)
        stream = list(builder.stream)
        assert stream[-1].timestamp - stream[0].timestamp >= 1000.0
        sliced, per_event = build(batch_size), build(batch_size)
        for pipeline in (sliced, per_event):
            # where the schedule reads its interval (it holds its own copy)
            pipeline._ticks.interval = CountingInterval(1e-6)
        out = sliced.feed_many(stream)["cq"] + sliced.finish()["cq"]
        expected = []
        for event in stream:
            expected.extend(per_event.feed(event)["cq"])
        expected.extend(per_event.finish()["cq"])
        assert keys_and_times(out) == keys_and_times(expected)
        assert out  # the span is long, the stream still detects
        for pipeline in (sliced, per_event):
            assert pipeline._ticks.interval.additions <= len(stream)


def tick_times(pipeline):
    """Per chain, the times its TickLog stages and its detector ticked at."""
    times = {}
    for chain in pipeline.chains:
        for stage in chain.stages:
            if isinstance(stage, TickLog):
                times[chain.query.name, "stage"] = [now for now, _ in stage.log]
        if chain.detector is not None:
            times[chain.query.name, "detector"] = [
                sample.time for sample in chain.detector.samples
            ]
    return times


class TestTicksAgreeAcrossDrivers:
    """``feed`` (event time) and ``simulate`` (virtual time, arrivals at
    the stream's own timestamps, ample capacity) tick the same chains at
    the same times: a chain is ticked iff some stage observes ticks."""

    def _feed_and_simulate(self, make):
        stream = synth_stream(200, seed=4)
        fed = make()
        for event in stream:
            fed.feed(event)
        fed.finish()
        simulated = make()
        simulated.simulate(
            stream,
            input_rate=50.0,
            throughput=5000.0,
            arrival_times=[event.timestamp for event in stream],
        )
        return tick_times(fed), tick_times(simulated)

    def test_tick_stage_without_detector(self):
        fed, simulated = self._feed_and_simulate(lambda: build(1, ticks="stage"))
        assert len(fed["cq", "stage"]) == 39  # 0.1 s ticks over 3.98 s
        assert simulated == fed

    def test_two_chains_one_with_a_detector(self):
        def make():
            config = PipelineConfig(reference_size=6)
            with_detector = QueryChain(count_query(), config, strategy="random")
            query = Query(
                name="cq2",
                pattern=seq("cq2", spec("A"), spec("C")),
                window_factory=lambda: CountSlidingWindows(4, slide=2),
            )
            with_tick_stage = QueryChain(query, config, egress_stages=[TickLog()])
            return Pipeline([with_detector, with_tick_stage], config).deploy()

        fed, simulated = self._feed_and_simulate(make)
        assert set(fed) == {("cq", "detector"), ("cq2", "stage")}
        assert len(fed["cq2", "stage"]) == 39
        assert fed["cq", "detector"] == fed["cq2", "stage"]
        assert simulated == fed
