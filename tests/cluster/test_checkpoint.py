"""Units for shard checkpointing (ShardChain state + CheckpointWriter).

The chaos suite proves recovery end-to-end across processes; these
tests pin the in-process contract: what goes into a checkpoint, when
files are written, that writes are atomic, and that a restored chain
is indistinguishable from the original.
"""

import json

import pytest

from repro.cep.events import Event, StreamBuilder
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import CountSlidingWindows, Window
from repro.cluster.worker import CheckpointWriter, ShardChain
from repro.core.persistence import read_json_checkpoint
from repro.core.shedder import ESpiceShedder
from repro.pipeline import Pipeline
from repro.shedding.base import DropCommand


def toy_query():
    return Query(
        name="toy",
        pattern=seq("toy", spec("A"), spec("B")),
        window_factory=lambda: CountSlidingWindows(4),
    )


def trained_shedder():
    query = toy_query()
    builder = StreamBuilder(rate=10.0)
    for _ in range(25):
        builder.emit_many(["A", "B", "X", "X"])
    pipeline = Pipeline.builder().query(query).shedder("espice").bin_size(1).build()
    model = pipeline.train(builder.stream).model
    return ESpiceShedder(model)


def make_chain():
    chain = ShardChain(toy_query(), trained_shedder(), model_version=3)
    chain.shedder.on_drop_command(
        DropCommand(x=1.0, partition_count=2, partition_size=2.0)
    )
    chain.shedder.activate()
    return chain


def window_at(window_id, close_time):
    events = [
        Event("A", window_id * 4, close_time - 0.2),
        Event("B", window_id * 4 + 1, close_time - 0.1),
    ]
    return Window(
        window_id=window_id,
        events=events,
        open_time=close_time - 1.0,
        close_time=close_time,
    )


class TestShardChainState:
    def test_roundtrip_restores_counters_and_shedder(self):
        chain = make_chain()
        for window_id in range(5):
            chain.process_window(window_at(window_id, float(window_id)), 2.0)
        state = json.loads(json.dumps(chain.state_dict()))

        fresh = make_chain()
        fresh.restore_state(state)
        assert fresh.model_version == chain.model_version
        assert fresh.windows == chain.windows
        assert fresh.memberships_kept == chain.memberships_kept
        assert fresh.memberships_dropped == chain.memberships_dropped
        assert fresh.complex_events == chain.complex_events
        assert fresh.shedder.decisions == chain.shedder.decisions
        assert fresh.shedder.drops == chain.shedder.drops
        assert fresh.shedder.active == chain.shedder.active
        assert fresh.metrics() == chain.metrics()

    def test_restored_chain_processes_identically(self):
        chain = make_chain()
        fresh = make_chain()
        for window_id in range(3):
            chain.process_window(window_at(window_id, float(window_id)), 2.0)
        fresh.restore_state(chain.state_dict())
        window = window_at(7, 9.0)
        assert [c.key for c in fresh.process_window(window, 2.0)] == [
            c.key for c in chain.process_window(window, 2.0)
        ]

    def test_model_is_not_in_the_checkpoint(self):
        """Models are coordinator-owned and re-broadcast on recovery;
        checkpoints must stay small."""
        state = make_chain().state_dict()
        text = json.dumps(state)
        assert "utility_matrix" not in text
        assert "share_matrix" not in text


class TestCheckpointWriter:
    def path(self, tmp_path):
        return str(tmp_path / "shard-0.json")

    def test_writes_only_at_the_interval(self, tmp_path):
        chain = make_chain()
        writer = CheckpointWriter(
            self.path(tmp_path), {"toy": chain}, interval=3
        )
        writer.observe_window(1.0)
        writer.observe_window(2.0)
        assert writer.checkpoints_written == 0
        writer.observe_window(3.0)
        assert writer.checkpoints_written == 1
        writer.observe_window(4.0)
        assert writer.checkpoints_written == 1

    def test_stamp_is_the_latest_virtual_close_time(self, tmp_path):
        writer = CheckpointWriter(
            self.path(tmp_path), {"toy": make_chain()}, interval=2
        )
        writer.observe_window(5.0)
        writer.observe_window(3.0)  # out-of-order close must not regress
        assert writer.checkpoints_written == 1
        payload = read_json_checkpoint(self.path(tmp_path), "shard")
        assert payload["stamp"] == 5.0

    def test_restore_resumes_chain_and_stamp(self, tmp_path):
        chain = make_chain()
        writer = CheckpointWriter(
            self.path(tmp_path), {"toy": chain}, interval=1
        )
        for window_id in range(4):
            chain.process_window(window_at(window_id, float(window_id)), 2.0)
            writer.observe_window(float(window_id))

        fresh_chain = make_chain()
        resumed = CheckpointWriter(
            self.path(tmp_path), {"toy": fresh_chain}, interval=1
        )
        assert resumed.restore() is True
        assert resumed.restored is True
        assert resumed.stamp == 3.0
        assert fresh_chain.windows == chain.windows
        assert fresh_chain.metrics() == chain.metrics()

    def test_restore_without_file_is_a_fresh_boot(self, tmp_path):
        writer = CheckpointWriter(
            self.path(tmp_path), {"toy": make_chain()}, interval=1
        )
        assert writer.restore() is False
        assert writer.restored is False

    def test_no_tmp_file_left_behind(self, tmp_path):
        writer = CheckpointWriter(
            self.path(tmp_path), {"toy": make_chain()}, interval=1
        )
        writer.observe_window(1.0)
        writer.observe_window(2.0)
        assert [p.name for p in tmp_path.iterdir()] == ["shard-0.json"]

    def test_metrics_report_progress_and_lag(self, tmp_path):
        writer = CheckpointWriter(
            self.path(tmp_path), {"toy": make_chain()}, interval=2
        )
        writer.observe_window(1.0)
        metrics = writer.metrics()
        assert metrics["checkpoints"] == 0
        assert metrics["stamp"] == 1.0
        assert metrics["checkpoint_stamp"] == 0.0
        writer.observe_window(2.0)
        metrics = writer.metrics()
        assert metrics["checkpoints"] == 1
        assert metrics["checkpoint_bytes"] > 0
        assert metrics["checkpoint_stamp"] == 2.0

    def test_rejects_non_positive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointWriter(self.path(tmp_path), {}, interval=0)
