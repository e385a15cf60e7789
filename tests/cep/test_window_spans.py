"""Span-model windows and the drop-only operator against their oracle.

``reference_windows`` holds the per-membership assigners and the
buffering operator this repo shipped before windows became spans of
one arrival log.  The properties here feed both implementations the
same random streams -- timestamps that jump backwards, gaps longer
than a window, tiny ``max_open`` caps, openers in and out, count and
time extents -- and demand the same memberships, the same windows in
the same order, and the same detections and counters under random
drop masks.  Two structural tests pin the cost model: the arrival log
stays within twice the longest open span, and consecutive events share
their id/start tuples between open/close points.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_windows as reference
from repro.cep.events import Event
from repro.cep.operator.operator import CEPOperator
from repro.cep.operator.queue import QueuedItem
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import (
    NO_MEMBERSHIPS,
    CountSlidingWindows,
    Memberships,
    PredicateWindows,
    TimeSlidingWindows,
    WindowRef,
)


def is_opener(event):
    return event.event_type == "A"


@st.composite
def streams(draw, max_size=60):
    """Events whose timestamps mostly advance, sometimes jump either way."""
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B", "C"]),
                # small steps, stalls, gaps past any extent below, and
                # steps backwards (the wire accepts any timestamps)
                st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 12.0, -1.5, -7.0]),
            ),
            max_size=max_size,
        )
    )
    now = 0.0
    events = []
    for index, (name, step) in enumerate(steps):
        now += step
        events.append(Event(name, index, now))
    return events


@st.composite
def assigner_specs(draw):
    """``(class name, kwargs)`` valid for both implementations."""
    kind = draw(st.sampled_from(["count", "time", "predicate"]))
    if kind == "count":
        return "CountSlidingWindows", {
            "size": draw(st.integers(1, 6)),
            "slide": draw(st.integers(1, 8)),
        }
    if kind == "time":
        return "TimeSlidingWindows", {
            "duration": draw(st.sampled_from([0.5, 2.0, 5.0])),
            "slide": draw(st.sampled_from([0.5, 1.0, 3.0, 6.0])),
        }
    kwargs = {
        "open_predicate": is_opener,
        "include_opener": draw(st.booleans()),
        "max_open": draw(st.sampled_from([1, 2, 1024])),
    }
    if draw(st.booleans()):
        kwargs["extent_events"] = draw(st.integers(1, 6))
    else:
        kwargs["extent_seconds"] = draw(st.sampled_from([0.5, 3.0, 8.0]))
    return "PredicateWindows", kwargs


def build_pair(spec_):
    name, kwargs = spec_
    fast = {
        "CountSlidingWindows": CountSlidingWindows,
        "TimeSlidingWindows": TimeSlidingWindows,
        "PredicateWindows": PredicateWindows,
    }[name]
    return fast(**kwargs), getattr(reference, name)(**kwargs)


def refs_of(assignments):
    return [(ref.window_id, ref.position) for ref in assignments]


def window_record(window):
    return (
        window.window_id,
        [event.seq for event in window.events],
        window.open_time,
        window.close_time,
        window.truncated,
    )


def assert_spans_index(fed, windows):
    """Every window is arrivals ``[start, start + size)`` of the one log
    ``fed`` -- all events given to the assigner so far, in order -- so
    ``start`` is the arrival ordinal of ``events[0]``."""
    for window in windows:
        span = fed[window.start : window.start + window.size]
        assert len(span) == window.size
        assert all(a is b for a, b in zip(span, window.events))


class TestAssignersMatchTheOracle:
    @given(assigner_specs(), streams())
    @settings(max_examples=300, deadline=None)
    def test_same_memberships_and_windows(self, spec_, events):
        fast, slow = build_pair(spec_)
        for fed, event in enumerate(events, start=1):
            got, want = fast.on_event(event), slow.on_event(event)
            assert refs_of(got.assignments) == refs_of(want.assignments)
            assert len(got.assignments) == len(want.assignments)
            assert [window_record(w) for w in got.closed] == [
                window_record(w) for w in want.closed
            ]
            assert [window_record(w) for w in fast.open_windows] == [
                window_record(w) for w in slow.open_windows
            ]
            assert_spans_index(events[:fed], got.closed + fast.open_windows)
            # the trim bound: nothing open (or yet to open) starts below it
            starts = [w.start for w in fast.open_windows]
            assert fast.oldest_open_start == min(starts, default=fed)
        flushed = fast.flush()
        assert [window_record(w) for w in flushed] == [
            window_record(w) for w in slow.flush()
        ]
        assert_spans_index(events, flushed)
        assert fast.oldest_open_start == len(events)
        assert fast.open_windows == [] and len(fast._log) == 0

    @given(assigner_specs(), streams(), streams(max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_assigner_stays_usable_after_flush(self, spec_, first, second):
        fast, slow = build_pair(spec_)
        fed = []
        for events in (first, second):
            fed += events  # arrival ordinals run on across a flush
            for got, want in zip(fast.on_events(events), slow.on_events(events)):
                assert refs_of(got.assignments) == refs_of(want.assignments)
                assert [window_record(w) for w in got.closed] == [
                    window_record(w) for w in want.closed
                ]
                assert_spans_index(fed, got.closed)
            flushed = fast.flush()
            assert [window_record(w) for w in flushed] == [
                window_record(w) for w in slow.flush()
            ]
            assert_spans_index(fed, flushed)


class TestMembershipsIsASequenceOfRefs:
    def test_sequence_protocol(self):
        assigner = CountSlidingWindows(size=4, slide=2)
        for seq_no in range(3):
            refs = assigner.on_event(Event("A", seq_no, float(seq_no))).assignments
        assert len(refs) == 2
        assert list(refs) == [WindowRef(0, 2), WindowRef(1, 0)]
        assert refs[0] == WindowRef(0, 2) and refs[-1] == WindowRef(1, 0)
        assert refs == [WindowRef(0, 2), WindowRef(1, 0)]
        assert refs != [WindowRef(0, 2)]
        assert refs.positions() == [2, 0]
        assert NO_MEMBERSHIPS == [] and len(NO_MEMBERSHIPS) == 0
        assert hash(refs) == hash(Memberships(refs.ids, refs.starts, refs.index))

    def test_tuples_are_shared_between_open_and_close_points(self):
        """The structural guard that per-event work is O(1): while the
        open set does not change, every event's memberships reference
        the very same id/start tuples."""
        assigner = PredicateWindows(is_opener, extent_events=50)
        changes = 0
        previous = None
        for index in range(400):
            name = "A" if index % 20 == 0 else "B"
            result = assigner.on_event(Event(name, index, float(index)))
            refs = result.assignments
            if name == "A" or result.closed:
                changes += 1
            elif previous is not None:
                assert refs.ids is previous.ids
                assert refs.starts is previous.starts
            previous = refs
        assert 0 < changes < 60


class TestArrivalLogStaysBounded:
    def _longest_span_bound(self, assigner, events):
        worst = 0
        longest = 0
        for event in events:
            result = assigner.on_event(event)
            longest = max(longest, max(result.assignments.positions(), default=0) + 1)
            worst = max(worst, len(assigner._log) - 2 * longest)
        return worst

    def test_log_is_within_twice_the_longest_open_span(self):
        rng = random.Random(5)
        events = []
        now = 0.0
        for index in range(100_000):
            now += rng.choice([0.0, 0.01, 0.02, 0.05])
            events.append(Event(rng.choice("ABCDEFGH"), index, now))
        for assigner in (
            PredicateWindows(is_opener, extent_events=300),
            PredicateWindows(is_opener, extent_seconds=4.0, include_opener=False),
            TimeSlidingWindows(duration=5.0, slide=1.0),
            CountSlidingWindows(size=250, slide=40),
        ):
            assert self._longest_span_bound(assigner, events) <= 8
            assigner.flush()
            assert len(assigner._log) == 0

    def test_events_outside_every_window_are_not_logged(self):
        assigner = PredicateWindows(is_opener, extent_events=2)
        for index in range(1000):
            assigner.on_event(Event("B", index, float(index)))
        assert len(assigner._log) == 0


def pair_query(window_factory):
    return Query(
        name="ab", pattern=seq("ab", spec("A"), spec("B")), window_factory=window_factory
    )


def apply_one(operator, item, drops, now=0.0):
    """One item through the operator's batched body: a batch of one."""
    closes = [0] if item.closed_windows else []
    masks = None if drops is None else [drops]
    found = operator.apply_batch([item], masks, closes, [now])
    return [complex_event for part in found for complex_event in part]


class TestOperatorMatchesTheBufferedOracle:
    @given(assigner_specs(), streams(), st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_detections_and_stats_under_random_drops(
        self, spec_, events, rng, reject_some
    ):
        fast, slow = build_pair(spec_)
        operator = CEPOperator(pair_query(lambda: fast))
        oracle = reference.BufferedOperator(pair_query(lambda: slow))
        got, want = [], []
        for event in events:
            now = event.timestamp
            assigned, expected = fast.on_event(event), slow.on_event(event)
            item = QueuedItem(event, assigned.assignments, assigned.closed, now)
            if reject_some and rng.random() < 0.15:
                # assigned, then the enqueue failed: in both worlds the
                # item never reaches the operator
                operator.discard(item)
                continue
            mode = rng.random()
            if mode < 0.3:
                drops = None
            else:
                drops = [rng.random() < 0.4 for _ in expected.assignments]
            got.extend(apply_one(operator, item, drops, now))
            want.extend(
                oracle.apply(event, expected.assignments, expected.closed, drops, now)
            )
        got.extend(operator.flush(fast.flush()))
        want.extend(oracle.flush(slow.flush()))
        assert got == want
        assert operator.stats == oracle.stats
        assert operator.predictor_state == (float(oracle.size_sum), oracle.size_count)

    @given(assigner_specs(), streams())
    @settings(max_examples=100, deadline=None)
    def test_drop_records_do_not_outlive_their_windows(self, spec_, events):
        fast, _slow = build_pair(spec_)
        operator = CEPOperator(pair_query(lambda: fast))
        for event in events:
            assigned = fast.on_event(event)
            item = QueuedItem(event, assigned.assignments, assigned.closed)
            apply_one(operator, item, [True] * len(assigned.assignments))
        operator.flush(fast.flush())
        assert operator._excluded == {}
