"""The span link without processes: ``SpanLink`` -> faults -> ``SpanReceiver``.

``repro.cluster.transport`` owns both ends of the coordinator->worker
data format, so the protocol is testable with a list for a queue.  The
harness below is the coordinator's half of
``ShardedPipeline._ingest_batch`` (assign, route, stamp, ship per
shard with the assigner's trim bound) and the worker's half of
``shard_main`` (``receive`` per message); in between sit the faults
the chaos suite injects into real queues -- duplicated and swapped
batches -- plus gaps and a link replaced mid-stream.  What must hold:

- the windows a worker rebuilds equal the coordinator's, field by
  field, attr by attr, value type by value type;
- every message is applied exactly once, in ``seq`` order; repeats are
  dropped and counted; the early-message buffer never holds more than
  the reorder depth;
- between rebases no event is packed twice for a shard;
- a worker's log replica stays within twice the longest open span.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep.events import Event
from repro.cep.windows import (
    CountSlidingWindows,
    PredicateWindows,
    TimeSlidingWindows,
    Window,
)
from repro.cluster.routing import create_router
from repro.cluster.transport import SpanLink, SpanReceiver, pack, unpack
from repro.queries import build_q1

CHAIN = "q"


def is_opener(event):
    return event.event_type == "A"


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: values whose types ``==`` conflates (1 == 1.0 == True) or pickling
#: could flatten (tuple vs list), nested containers, non-ASCII text
attr_values = st.sampled_from(
    [1, 1.0, True, 0, 0.0, False, None, -7, 2.5, "", "Müller-Ωé"]
    + [(1, 2.0), [1, [2.0, None]], {"k": {"n": 1}}]
)
attr_keys = ["x", "y", "ü", "z"]
shared_schema = st.fixed_dictionaries(dict.fromkeys(attr_keys[:3], attr_values))
any_schema = st.dictionaries(st.sampled_from(attr_keys), attr_values, max_size=4)


@st.composite
def streams(draw, max_size=80, attrs=None):
    """Timestamps mostly advance, sometimes stall, leap or run backwards."""
    if attrs is None:
        attrs = draw(st.sampled_from([shared_schema, any_schema, st.just({})]))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B", "tür"]),
                st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 12.0, -1.5, -7.0]),
                attrs,
            ),
            max_size=max_size,
        )
    )
    now, events = 0.0, []
    for index, (name, step, payload) in enumerate(steps):
        now += step
        events.append(Event(name, index, now, payload))
    return events


@st.composite
def assigners(draw):
    kind = draw(st.sampled_from(["count", "time", "predicate"]))
    if kind == "count":
        return CountSlidingWindows(draw(st.integers(1, 6)), draw(st.integers(1, 8)))
    if kind == "time":
        duration = draw(st.sampled_from([0.5, 2.0, 5.0]))
        return TimeSlidingWindows(duration, draw(st.sampled_from([0.5, 1.0, 6.0])))
    extent = draw(
        st.sampled_from(
            [{"extent_events": 1}, {"extent_events": 6}]
            + [{"extent_seconds": 0.5}, {"extent_seconds": 8.0}]
        )
    )
    return PredicateWindows(
        is_opener,
        include_opener=draw(st.booleans()),
        max_open=draw(st.sampled_from([1, 2, 1024])),
        **extent,
    )


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def fields_of(event):
    """Every field with its type (``==`` skips attrs, equates 1/1.0/True)."""

    def typed(value):
        if isinstance(value, (list, tuple)):
            return (type(value), [typed(v) for v in value])
        if isinstance(value, dict):
            return (dict, [(typed(k), typed(v)) for k, v in value.items()])
        return (type(value), value)

    fields = (event.event_type, event.seq, event.timestamp, event.attrs)
    return [typed(value) for value in fields]


def window_record(window):
    return (
        window.window_id,
        window.start,
        window.open_time,
        window.close_time,
        window.truncated,
        [fields_of(event) for event in window.events],
    )


class Pipe:
    """A queue stand-in: the batches put, in order."""

    def __init__(self):
        self.batches = []

    def put(self, batch):
        self.batches.append(batch)


class Coordinator:
    """Assign, route, stamp and ship -- ``_ingest_batch`` without processes."""

    def __init__(self, assigner, shards, router="round-robin"):
        self.assigner = assigner
        self.router = create_router(router, shards)
        self.links = [SpanLink(Pipe()) for _ in range(shards)]
        self.sent = {}  # dispatch index -> (shard, window, predicted)
        self.events = 0

    def ship(self, windows):
        per_shard = {}
        for window in windows:
            index = len(self.sent)
            shard = self.router.route(window, CHAIN)
            self.sent[index] = (shard, window, float(index))
            per_shard.setdefault(shard, []).append((index, window, float(index)))
        for shard, entries in per_shard.items():
            self.links[shard].ship(CHAIN, entries, self.assigner.oldest_open_start)

    def feed(self, events, batch=5):
        for at in range(0, len(events), batch):
            closed = []
            for event in events[at : at + batch]:
                closed += self.assigner.on_event(event).closed
            self.events += len(events[at : at + batch])
            self.ship(closed)

    def flush(self):
        self.ship(self.assigner.flush())

    def replace_link(self, shard):
        """What ``_spawn_shard`` does for a respawned or added worker."""
        self.links[shard] = SpanLink(Pipe())

    def take(self, shard):
        """The batches shard's link put since the last take."""
        pipe = self.links[shard].queue
        batches, pipe.batches = pipe.batches, []
        return batches


def duplicate_every(batches, n):
    out = []
    for index, batch in enumerate(batches, start=1):
        out.append(batch)
        if index % n == 0:
            out.append(batch)
    return out


def swap_every(batches, n):
    """Every n-th batch is overtaken by its successor (``FaultyQueue``)."""
    out, held = [], None
    for index, batch in enumerate(batches, start=1):
        if held is None and index % n == 0:
            held = batch
            continue
        out.append(batch)
        if held is not None:
            out.append(held)
            held = None
    if held is not None:
        out.append(held)  # a barrier flushes what is held
    return out


class Worker:
    """``shard_main``'s data branch: receive, record what was rebuilt."""

    def __init__(self):
        self.receiver = SpanReceiver()
        self.rebuilt = []  # [(dispatch index, window, predicted)] as applied
        self.applied = []  # dispatch-index lists, one per applied message
        self.max_early = 0

    def deliver(self, batches):
        for batch in batches:
            for message in pickle.loads(pickle.dumps(batch)):  # the pipe
                assert message[0] == "winbatch"
                for chain, entries in self.receiver.receive(message):
                    assert chain == CHAIN
                    self.rebuilt += entries
                    self.applied.append([index for index, _w, _p in entries])
                self.max_early = max(self.max_early, len(self.receiver.early))

    @property
    def logged(self):
        return sum(len(log) for _base, log in self.receiver.logs.values())


def sent_messages(batches):
    return [message for batch in batches for message in batch]


def assert_rebuilt_equals_sent(coordinator, workers):
    """Every dispatched window was rebuilt exactly once, on its shard,
    equal to the coordinator's in every field."""
    seen = {}
    for shard, worker in enumerate(workers):
        for index, window, predicted in worker.rebuilt:
            assert index not in seen
            seen[index] = (shard, window, predicted)
    assert sorted(seen) == sorted(coordinator.sent)
    for index, (shard, window, predicted) in coordinator.sent.items():
        got_shard, got, got_predicted = seen[index]
        assert got_shard == shard
        assert type(got_predicted) is float and got_predicted == predicted
        assert window_record(got) == window_record(window)
        assert got == window  # the dataclass agrees, start included


def assert_once_between_rebases(messages):
    """Within one rebase epoch segments abut: no ordinal is packed twice."""
    end = 0
    shipped = 0
    for _tag, _seq, _chain, seg_lo, packed, _keep_from, spans in messages:
        size = len(packed[0])
        shipped += size
        # an empty window needs nothing from the log
        spans = [(start, stop) for _i, _w, start, stop, *_r in spans if stop > start]
        # an extension starts where the replica ends; anything else is
        # a rebase, which every span of the message must fit inside
        if seg_lo != end:
            assert all(start >= seg_lo for start, _stop in spans)
        end = seg_lo + size
        assert all(stop <= end for _start, stop in spans)
    return shipped


# ----------------------------------------------------------------------
# the column format
# ----------------------------------------------------------------------
class TestPackUnpack:
    @given(streams())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_keeps_every_field_and_value_type(self, events):
        for protocol in (2, pickle.HIGHEST_PROTOCOL):
            clone = unpack(pickle.loads(pickle.dumps(pack(events), protocol)))
            assert [fields_of(e) for e in clone] == [fields_of(e) for e in events]

    def test_shared_schema_travels_as_key_tuple_plus_flat_values(self):
        events = [Event("A", i, float(i), {"x": i, "ü": True}) for i in range(3)]
        types, seqs, timestamps, keys, values = pack(events)
        assert (types, seqs, timestamps) == (["A"] * 3, [0, 1, 2], [0.0, 1.0, 2.0])
        assert keys == ("x", "ü") and values == [0, True, 1, True, 2, True]

    @pytest.mark.parametrize(
        "attrs",
        [
            [{"x": 1}, {"y": 1}],  # different keys
            [{"x": 1, "y": 2}, {"y": 2, "x": 1}],  # same keys, another order
            [{"x": 1}, {"x": 1, "y": 2}],  # a prefix
            [{}, {}],  # nothing to flatten
            [{}, {"x": 1}],
        ],
    )
    def test_anything_else_travels_as_the_dicts(self, attrs):
        events = [Event("A", i, 0.0, payload) for i, payload in enumerate(attrs)]
        packed = pack(events)
        assert packed[3] is None and packed[4] == attrs
        clone = unpack(packed)
        assert [list(e.attrs.items()) for e in clone] == [list(a.items()) for a in attrs]

    def test_empty_segment(self):
        assert pack([]) == ([], [], [], None, [])
        assert unpack(pack([])) == []


# ----------------------------------------------------------------------
# the link under faults
# ----------------------------------------------------------------------
class TestLinkDelivery:
    @given(
        assigners(),
        streams(),
        st.integers(2, 4),
        st.sampled_from(["round-robin", "hash"]),
        st.sampled_from(["clean", "duplicate", "swap", "both"]),
        st.integers(1, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_windows_survive_duplicates_and_swaps(
        self, assigner, events, shards, router, fault, every
    ):
        coordinator = Coordinator(assigner, shards, router)
        coordinator.feed(events)
        open_at_flush = len(coordinator.sent)
        coordinator.flush()
        workers = [Worker() for _ in range(shards)]
        memberships = sum(w.size for _s, w, _p in coordinator.sent.values())
        for shard, worker in enumerate(workers):
            clean = coordinator.take(shard)
            batches = clean
            if fault in ("duplicate", "both"):
                batches = duplicate_every(batches, every)
            if fault in ("swap", "both"):
                batches = swap_every(batches, every + 1)
            worker.deliver(batches)
            # exactly once, in seq order, whatever the wire did
            messages = sent_messages(clean)
            assert [m[1] for m in messages] == list(range(len(messages)))
            assert worker.applied == [[span[0] for span in m[6]] for m in messages]
            assert worker.receiver.repeats == len(batches) - len(clean)
            assert not worker.receiver.early
            # a duplicated held batch can sit beside its original's
            # successor, never deeper: adjacent swaps have depth one
            assert worker.max_early <= 1
            link = coordinator.links[shard]
            assert assert_once_between_rebases(messages) == link.events_shipped
        assert_rebuilt_equals_sent(coordinator, workers)
        shipped = sum(link.events_shipped for link in coordinator.links)
        assert shipped <= memberships
        # flushing closes everything: a replica the flush reached is empty
        # (one it sent nothing to keeps its bounded log until its next message)
        for index in range(open_at_flush, len(coordinator.sent)):
            assert workers[coordinator.sent[index][0]].logged == 0

    @given(assigners(), streams(attrs=st.just({})), st.integers(2, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_replaced_link_replays_in_flight_windows(
        self, assigner, events, shards, data
    ):
        """Kill -9 in miniature: everything on the wire to one shard is
        lost with its receiver; a fresh link replays the unacked entries
        as a rebase and the stream goes on."""
        cut = data.draw(st.integers(0, len(events)))
        victim = data.draw(st.integers(0, shards - 1))
        delivered = data.draw(st.integers(0, 3))  # batches that made it
        coordinator = Coordinator(assigner, shards, "round-robin")
        workers = [Worker() for _ in range(shards)]
        coordinator.feed(events[:cut])
        survived = coordinator.take(victim)[:delivered]
        workers[victim].deliver(survived)
        # results of the last windows it processed may have died with it
        salvaged = workers[victim].rebuilt
        del salvaged[data.draw(st.integers(0, len(salvaged))) :]
        acked = {index for index, _w, _p in salvaged}
        # respawn: fresh link, fresh receiver, in-flight entries again
        coordinator.replace_link(victim)
        workers[victim] = Worker()
        replay = [
            (index, window, predicted)
            for index, (shard, window, predicted) in coordinator.sent.items()
            if shard == victim and index not in acked
        ]
        if replay:
            link = coordinator.links[victim]
            link.ship(CHAIN, replay, assigner.oldest_open_start)
            assert link.queue.batches[0][0][1] == 0  # a new link counts from zero
            # overlapping windows share their events in the replay, too
            assert link.events_shipped <= sum(w.size for _i, w, _p in replay)
        coordinator.feed(events[cut:])
        coordinator.flush()
        for shard, worker in enumerate(workers):
            worker.deliver(coordinator.take(shard))
            assert not worker.receiver.early and worker.receiver.repeats == 0
        workers[victim].rebuilt += salvaged
        assert_rebuilt_equals_sent(coordinator, workers)

    def test_a_gap_of_unrouted_events_rebases(self):
        """A shard that sat out more than a span gets the next window
        whole; what it skipped is never sent to it."""
        events = [Event("A" if i % 4 == 0 else "B", i, float(i)) for i in range(400)]

        class Router:
            def route(self, window, chain):  # ids 20..59 all go to shard 1
                return 1 if 20 <= window.window_id < 60 else window.window_id % 2

        coordinator = Coordinator(PredicateWindows(is_opener, extent_events=10), 2)
        coordinator.router = Router()
        coordinator.feed(events)
        coordinator.flush()
        workers = [Worker(), Worker()]
        for shard, worker in enumerate(workers):
            messages = sent_messages(coordinator.take(shard))
            worker.deliver([[m] for m in messages])
            assert_once_between_rebases(messages)
        assert_rebuilt_equals_sent(coordinator, workers)
        # shard 0 sat out windows 20..59: arrivals 82..239 never reach it
        shard0 = [w for s, w, _p in coordinator.sent.values() if s == 0]
        reached = {o for w in shard0 for o in range(w.start, w.start + w.size)}
        assert coordinator.links[0].events_shipped == len(reached) < 300
        assert coordinator.links[1].events_shipped < coordinator.events

    def test_a_span_below_the_trim_bound_rebases(self):
        """The link assumes the worker trimmed to ``keep_from``: a later
        span reaching below it is sent whole, whatever the replica kept."""
        events = [Event("A", i, float(i)) for i in range(30)]
        coordinator = Coordinator(CountSlidingWindows(1), 1)
        link = coordinator.links[0]
        for index, (lo, hi) in enumerate([(10, 20), (12, 25)]):
            window = Window(index, events[lo:hi], start=lo)
            coordinator.sent[index] = (0, window, 0.5)
            link.ship(CHAIN, [(index, window, 0.5)], 18)
        messages = sent_messages(link.queue.batches)
        assert [(m[3], len(m[4][0])) for m in messages] == [(10, 10), (12, 13)]
        worker = Worker()
        worker.deliver(coordinator.take(0))
        assert_rebuilt_equals_sent(coordinator, [worker])

    def test_a_lost_predecessor_holds_everything_after_it(self):
        coordinator = Coordinator(CountSlidingWindows(4, 2), 1)
        coordinator.feed([Event("A", i, float(i)) for i in range(40)], batch=4)
        batches = coordinator.take(0)
        worker = Worker()
        worker.deliver(batches[:1] + batches[2:])
        assert len(worker.applied) == 1
        assert len(worker.receiver.early) == len(batches) - 2  # what a sync checks
        worker.deliver(batches[1:2])
        assert len(worker.applied) == len(batches) and not worker.receiver.early


# ----------------------------------------------------------------------
# what the link costs: events shipped, replica size
# ----------------------------------------------------------------------
class TestShippedOncePerShard:
    def test_q1_ships_each_event_at_most_once_per_shard(self):
        from repro.datasets import SoccerStreamConfig, generate_soccer_stream

        events = list(generate_soccer_stream(SoccerStreamConfig(duration_seconds=600)))
        query = build_q1(pattern_size=2, window_seconds=15.0)
        for shards, router in [(2, "hash"), (2, "round-robin"), (4, "hash")]:
            coordinator = Coordinator(query.new_assigner(), shards, router)
            coordinator.feed(events, batch=32)
            coordinator.flush()
            memberships = sum(w.size for _s, w, _p in coordinator.sent.values())
            shipped = sum(link.events_shipped for link in coordinator.links)
            assert memberships > 1.5 * coordinator.events  # Q1 windows overlap
            assert shipped <= shards * coordinator.events
            assert shipped < memberships
            workers = [Worker() for _ in range(shards)]
            for shard, worker in enumerate(workers):
                worker.deliver(coordinator.take(shard))
            assert_rebuilt_equals_sent(coordinator, workers)

    def test_replica_is_within_twice_the_longest_open_span(self):
        rng = random.Random(5)
        events, now = [], 0.0
        for index in range(100_000):
            now += rng.choice([0.0, 0.01, 0.02, 0.05])
            events.append(Event(rng.choice("ABCDEFGH"), index, now))
        for assigner in (
            PredicateWindows(is_opener, extent_events=300),
            PredicateWindows(is_opener, extent_seconds=4.0, include_opener=False),
            TimeSlidingWindows(duration=5.0, slide=1.0),
            CountSlidingWindows(size=250, slide=40),
        ):
            coordinator = Coordinator(assigner, 2)
            workers = [Worker(), Worker()]
            longest = worst = 0
            for at in range(0, len(events), 32):
                for event in events[at : at + 32]:
                    result = assigner.on_event(event)
                    span = max(result.assignments.positions(), default=-1) + 1
                    longest = max(longest, span)
                    coordinator.ship(result.closed)
                for shard, worker in enumerate(workers):
                    worker.deliver(coordinator.take(shard))
                    worker.rebuilt.clear()
                    worst = max(worst, worker.logged - 2 * longest)
            assert worst <= 8
            assert len(coordinator.sent) > 300
            coordinator.flush()  # many windows open: the flush reaches both
            for shard, worker in enumerate(workers):
                worker.deliver(coordinator.take(shard))
                assert worker.logged == 0
