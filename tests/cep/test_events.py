"""Unit tests for the event model (repro.cep.events)."""

import copy
import pickle

import pytest

from repro.cep.events import (
    ComplexEvent,
    Event,
    EventStream,
    EventType,
    EventTypeRegistry,
    StreamBuilder,
    filter_stream,
    merge_streams,
)


class TestEventType:
    def test_equality_by_name(self):
        assert EventType("A", 0) == EventType("A", 5)
        assert EventType("A") != EventType("B")

    def test_equality_with_string(self):
        assert EventType("A") == "A"
        assert EventType("A") != "B"

    def test_hash_by_name(self):
        assert hash(EventType("A", 0)) == hash(EventType("A", 9))


class TestEventTypeRegistry:
    def test_intern_assigns_dense_ids(self):
        registry = EventTypeRegistry()
        a = registry.intern("A")
        b = registry.intern("B")
        assert (a.type_id, b.type_id) == (0, 1)

    def test_intern_is_idempotent(self):
        registry = EventTypeRegistry()
        first = registry.intern("A")
        second = registry.intern("A")
        assert first is second
        assert len(registry) == 1

    def test_roundtrip_name_id(self):
        registry = EventTypeRegistry()
        registry.intern("X")
        registry.intern("Y")
        assert registry.name_of(registry.id_of("Y")) == "Y"

    def test_get_missing_returns_none(self):
        assert EventTypeRegistry().get("nope") is None

    def test_contains_and_iter(self):
        registry = EventTypeRegistry()
        registry.intern("A")
        assert "A" in registry
        assert "B" not in registry
        assert [t.name for t in registry] == ["A"]


class TestEvent:
    def test_attr_access_with_default(self):
        event = Event("A", 0, 0.0, {"price": 10.0})
        assert event.attr("price") == 10.0
        assert event.attr("missing", -1) == -1

    def test_ordering_by_seq(self):
        early = Event("A", 1, 5.0)
        late = Event("B", 2, 1.0)
        assert early < late

    def test_equality_ignores_attrs(self):
        assert Event("A", 0, 0.0, {"x": 1}) == Event("A", 0, 0.0, {"x": 2})


class TestComplexEvent:
    def _cplx(self, seqs, window_id=3):
        events = tuple(Event("A", s, float(s)) for s in seqs)
        return ComplexEvent("p", window_id, events)

    def test_key_identity(self):
        assert self._cplx([1, 2]).key == self._cplx([1, 2]).key

    def test_key_differs_by_window(self):
        assert self._cplx([1, 2], 1).key != self._cplx([1, 2], 2).key

    def test_key_differs_by_events(self):
        assert self._cplx([1, 2]).key != self._cplx([1, 3]).key

    def test_positions_and_len(self):
        cplx = self._cplx([4, 7, 9])
        assert cplx.positions == (4, 7, 9)
        assert len(cplx) == 3


def fields_of(event):
    """Every field with its type: ``==`` skips attrs and equates 1/1.0/True."""
    flat = [event.event_type, event.seq, event.timestamp, *event.attrs.items()]
    return [(type(value), value) for value in flat]


class TestPickling:
    """``__reduce__`` is ``(cls, fields)``: what the cluster's result hop
    and any attrs the span transport cannot column-pack ride on."""

    EVENTS = [
        Event("A", 0, 0.5),
        Event("tür", 7, 1, {"spieler": "Müller-Ωé", "n": 1, "f": 1.0, "b": True}),
        Event("B", 2**40, -3.25, attrs={"nested": {"xs": [1, 2.0, None]}, "t": (1,)}),
    ]

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_event_roundtrip_keeps_attrs_and_value_types(self, protocol):
        for event in self.EVENTS:
            clone = pickle.loads(pickle.dumps(event, protocol))
            assert clone == event and type(clone) is Event
            assert fields_of(clone) == fields_of(event)
            assert clone.attrs == event.attrs and clone.attrs is not event.attrs

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_complex_event_roundtrip(self, protocol):
        detection = ComplexEvent("q", 3, tuple(self.EVENTS), detection_time=9.5)
        clone = pickle.loads(pickle.dumps([detection, detection], protocol))
        assert clone[0] is clone[1]  # memoised like any other object
        assert clone[0] == detection and clone[0].key == detection.key
        assert type(clone[0].events) is tuple
        assert clone[0].detection_time == 9.5
        assert [fields_of(e) for e in clone[0].events] == [
            fields_of(e) for e in self.EVENTS
        ]

    def test_reduce_is_class_plus_field_tuple(self):
        event = self.EVENTS[1]
        assert event.__reduce__() == (Event, ("tür", 7, 1, event.attrs))
        detection = ComplexEvent("q", 3, (event,), 2.0)
        assert detection.__reduce__() == (ComplexEvent, ("q", 3, (event,), 2.0))

    def test_copy_and_deepcopy_unchanged(self):
        event = self.EVENTS[2]
        shallow, deep = copy.copy(event), copy.deepcopy(event)
        assert shallow == event and shallow is not event
        assert shallow.attrs is event.attrs  # a shallow copy shares the payload
        assert deep == event and fields_of(deep) == fields_of(event)
        assert deep.attrs is not event.attrs
        assert deep.attrs["nested"] is not event.attrs["nested"]
        detection = ComplexEvent("q", 1, (event,), 4.0)
        assert copy.copy(detection).events is detection.events
        assert copy.deepcopy(detection) == detection
        assert copy.deepcopy(detection).events[0] is not event


class TestEventStream:
    def test_append_and_iterate(self):
        stream = EventStream()
        stream.append(Event("A", 0, 0.0))
        stream.append(Event("B", 1, 1.0))
        assert [e.event_type for e in stream] == ["A", "B"]

    def test_append_rejects_order_violation(self):
        stream = EventStream([Event("A", 5, 0.0)])
        with pytest.raises(ValueError, match="order"):
            stream.append(Event("B", 4, 1.0))

    def test_equal_seq_allowed(self):
        stream = EventStream([Event("A", 1, 0.0)])
        stream.append(Event("B", 1, 0.0))
        assert len(stream) == 2

    def test_types_registry_tracks_types(self):
        stream = EventStream([Event("A", 0, 0.0), Event("B", 1, 0.5)])
        assert stream.type_names() == ["A", "B"]

    def test_rate_and_duration(self):
        stream = EventStream(Event("A", i, i * 0.5) for i in range(5))
        assert stream.duration() == pytest.approx(2.0)
        assert stream.rate() == pytest.approx(2.5)

    def test_rate_of_single_event_stream(self):
        stream = EventStream([Event("A", 0, 1.0)])
        assert stream.rate() == 1.0

    def test_slice_and_getitem(self):
        stream = EventStream(Event("A", i, float(i)) for i in range(10))
        assert stream[3].seq == 3
        assert [e.seq for e in stream.slice(2, 5)] == [2, 3, 4]


class TestStreamBuilder:
    def test_emit_assigns_sequence_and_time(self):
        builder = StreamBuilder(rate=2.0)
        first = builder.emit("A")
        second = builder.emit("B")
        assert (first.seq, second.seq) == (0, 1)
        assert second.timestamp - first.timestamp == pytest.approx(0.5)

    def test_emit_with_explicit_time(self):
        builder = StreamBuilder(rate=1.0)
        event = builder.emit("A", at=42.0)
        assert event.timestamp == 42.0

    def test_emit_many(self):
        builder = StreamBuilder(rate=1.0)
        events = builder.emit_many(["A", "B", "A"])
        assert [e.event_type for e in events] == ["A", "B", "A"]

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            StreamBuilder(rate=0.0)

    def test_attrs_passed_through(self):
        builder = StreamBuilder()
        event = builder.emit("A", price=3.5)
        assert event.attr("price") == 3.5


class TestMergeAndFilter:
    def test_merge_orders_by_timestamp(self):
        left = EventStream([Event("A", 0, 0.0), Event("A", 1, 2.0)])
        right = EventStream([Event("B", 0, 1.0)])
        merged = merge_streams(left, right)
        assert [e.event_type for e in merged] == ["A", "B", "A"]
        assert [e.seq for e in merged] == [0, 1, 2]

    def test_merge_empty_streams(self):
        assert len(merge_streams(EventStream(), EventStream())) == 0

    def test_filter_preserves_seq(self):
        stream = EventStream(Event("A" if i % 2 else "B", i, float(i)) for i in range(6))
        only_a = filter_stream(stream, lambda e: e.event_type == "A")
        assert [e.seq for e in only_a] == [1, 3, 5]
