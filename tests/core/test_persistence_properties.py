"""Property tests for runtime-state persistence (repro.core.persistence).

The checkpointed-recovery tentpole rests on these serializers being
exact: a model, event, window or shedder that survives a
dict -> JSON -> dict roundtrip must be indistinguishable from the
original, for *any* input -- including non-ASCII attribute keys and
negative timestamps.  Hypothesis
drives the "any input" part; explicit tests pin the error contract for
malformed payloads.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep.events import Event, StreamBuilder
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import CountSlidingWindows, Window
from repro.core.persistence import (
    STATE_FORMAT_VERSION,
    apply_shedder_state,
    event_from_dict,
    event_to_dict,
    model_from_dict,
    model_to_dict,
    read_json_checkpoint,
    shedder_state_to_dict,
    window_from_dict,
    window_to_dict,
    write_json_atomic,
)
from repro.core.shedder import ESpiceShedder
from repro.pipeline import Pipeline
from repro.shedding.base import DropCommand

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
# JSON object keys are strings; values anything JSON-serialisable the
# event model uses.  Text deliberately includes non-ASCII.
attr_text = st.text(min_size=0, max_size=8)
attr_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    attr_text,
)
events = st.builds(
    Event,
    event_type=st.text(min_size=1, max_size=8),
    seq=st.integers(min_value=0, max_value=2**40),
    timestamp=st.floats(
        min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
    ),
    attrs=st.dictionaries(attr_text, attr_values, max_size=4),
)
windows = st.builds(
    Window,
    window_id=st.integers(min_value=0, max_value=2**40),
    events=st.lists(events, max_size=8),
    open_time=st.floats(
        min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
    ),
    close_time=st.floats(
        min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
    ),
    truncated=st.booleans(),
)


def json_roundtrip(payload):
    """The exact bytes-level path a checkpoint takes."""
    return json.loads(json.dumps(payload, sort_keys=True))


def trained_model(bin_size=1):
    query = Query(
        name="toy",
        pattern=seq("toy", spec("A"), spec("B")),
        window_factory=lambda: CountSlidingWindows(4),
    )
    builder = StreamBuilder(rate=10.0)
    for _ in range(25):
        builder.emit_many(["A", "B", "X", "X"])
    pipeline = (
        Pipeline.builder().query(query).shedder("espice").bin_size(bin_size).build()
    )
    return pipeline.train(builder.stream).model


# ----------------------------------------------------------------------
# events and windows
# ----------------------------------------------------------------------
class TestEventWindowRoundtrip:
    @given(event=events)
    @settings(max_examples=200, deadline=None)
    def test_event_roundtrip_exact(self, event):
        restored = event_from_dict(json_roundtrip(event_to_dict(event)))
        assert restored.event_type == event.event_type
        assert restored.seq == event.seq
        assert restored.timestamp == event.timestamp
        assert restored.attrs == event.attrs

    @given(window=windows)
    @settings(max_examples=100, deadline=None)
    def test_window_roundtrip_exact(self, window):
        restored = window_from_dict(json_roundtrip(window_to_dict(window)))
        assert restored.window_id == window.window_id
        assert restored.open_time == window.open_time
        assert restored.close_time == window.close_time
        assert restored.truncated == window.truncated
        assert [e.seq for e in restored.events] == [
            e.seq for e in window.events
        ]
        # arrival order is the P of UT(T, P): it must survive verbatim
        assert [e.event_type for e in restored.events] == [
            e.event_type for e in window.events
        ]

    def test_non_ascii_attrs_survive_the_file(self, tmp_path):
        event = Event("tür", 7, 1.5, attrs={"spieler": "Müller-Ωé"})
        path = tmp_path / "event.json"
        payload = {
            "format_version": STATE_FORMAT_VERSION,
            "kind": "shard",
            "event": event_to_dict(event),
        }
        write_json_atomic(payload, path)
        loaded = read_json_checkpoint(path, "shard")
        restored = event_from_dict(loaded["event"])
        assert restored.event_type == "tür"
        assert restored.attrs == {"spieler": "Müller-Ωé"}

    def test_malformed_event_payload_raises(self):
        with pytest.raises(ValueError, match="malformed event payload"):
            event_from_dict({"seq": 1})


# ----------------------------------------------------------------------
# model fingerprint stability
# ----------------------------------------------------------------------
class TestModelRoundtrip:
    @pytest.mark.parametrize("bin_size", [1, 2, 4])
    def test_fingerprint_identical_after_json(self, bin_size):
        model = trained_model(bin_size=bin_size)
        restored = model_from_dict(json_roundtrip(model_to_dict(model)))
        assert restored.fingerprint() == model.fingerprint()

    def test_double_roundtrip_is_stable(self):
        model = trained_model()
        once = model_from_dict(json_roundtrip(model_to_dict(model)))
        twice = model_from_dict(json_roundtrip(model_to_dict(once)))
        assert twice.fingerprint() == model.fingerprint()

    def test_missing_format_version_raises_clearly(self):
        payload = model_to_dict(trained_model())
        del payload["format_version"]
        with pytest.raises(ValueError, match="no format_version"):
            model_from_dict(payload)

    def test_wrong_format_version_names_both_versions(self):
        payload = model_to_dict(trained_model())
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="99"):
            model_from_dict(payload)

    def test_non_mapping_payload_raises(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            window_from_dict([1, 2, 3])


# ----------------------------------------------------------------------
# shedder state
# ----------------------------------------------------------------------
class TestShedderStateRoundtrip:
    def test_counters_command_and_activation_survive(self):
        model = trained_model()
        shedder = ESpiceShedder(model)
        command = DropCommand(x=1.0, partition_count=2, partition_size=2.0)
        shedder.on_drop_command(command)
        shedder.activate()
        shedder.decisions = 123
        shedder.drops = 45

        fresh = ESpiceShedder(model)
        apply_shedder_state(
            fresh, json_roundtrip(shedder_state_to_dict(shedder))
        )
        assert fresh.decisions == 123
        assert fresh.drops == 45
        assert fresh.active
        assert fresh.thresholds == shedder.thresholds

    def test_restored_shedder_decides_identically(self):
        model = trained_model()
        shedder = ESpiceShedder(model)
        shedder.on_drop_command(
            DropCommand(x=1.0, partition_count=2, partition_size=2.0)
        )
        shedder.activate()
        fresh = ESpiceShedder(model)
        apply_shedder_state(
            fresh, json_roundtrip(shedder_state_to_dict(shedder))
        )
        probe = [
            (Event(t, 0, 0.0), p, 4.0)
            for t in ("A", "B", "X")
            for p in range(4)
        ]
        assert [shedder.should_drop(*args) for args in probe] == [
            fresh.should_drop(*args) for args in probe
        ]


# ----------------------------------------------------------------------
# checkpoint files
# ----------------------------------------------------------------------
class TestCheckpointFiles:
    def test_missing_file_is_none(self, tmp_path):
        assert read_json_checkpoint(tmp_path / "nope.json", "shard") is None

    def test_kind_mismatch_raises(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_json_atomic(
            {"format_version": STATE_FORMAT_VERSION, "kind": "shard"}, path
        )
        with pytest.raises(ValueError, match="kind"):
            read_json_checkpoint(path, "coordinator")

    def test_atomic_write_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        size = write_json_atomic(
            {"format_version": STATE_FORMAT_VERSION, "kind": "shard"}, path
        )
        assert size == path.stat().st_size
        assert list(tmp_path.iterdir()) == [path]

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "ckpt.json"
        for stamp in (1, 2):
            write_json_atomic(
                {
                    "format_version": STATE_FORMAT_VERSION,
                    "kind": "shard",
                    "stamp": stamp,
                },
                path,
            )
        assert read_json_checkpoint(path, "shard")["stamp"] == 2
