"""Unit tests for model persistence (repro.core.persistence)."""

import json

import pytest

from repro.cep.events import StreamBuilder
from repro.cep.patterns import seq, spec
from repro.cep.patterns.query import Query
from repro.cep.windows import CountSlidingWindows
from repro.core.persistence import (
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.core.shedder import ESpiceShedder
from repro.pipeline import Pipeline
from repro.shedding.base import DropCommand


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


class TestRoundtrip:
    def test_tables_identical(self, tmp_path):
        model = trained_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.table.as_matrix() == model.table.as_matrix()
        assert restored.reference_size == model.reference_size
        assert restored.bin_size == model.bin_size
        assert restored.windows_trained == model.windows_trained

    def test_shares_identical(self, tmp_path):
        model = trained_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        for name in model.table.type_ids:
            for bin_index in range(model.shares.bins):
                assert restored.shares.share(name, bin_index) == pytest.approx(
                    model.shares.share(name, bin_index)
                )

    def test_binned_model_roundtrip(self, tmp_path):
        model = trained_model(bin_size=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.table.bins == model.table.bins

    def test_restored_model_drives_identical_shedder(self, tmp_path):
        from repro.cep.events import Event

        model = trained_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        command = DropCommand(x=1.0, partition_count=2, partition_size=2.0)
        decisions = []
        for m in (model, restored):
            shedder = ESpiceShedder(m)
            shedder.on_drop_command(command)
            shedder.activate()
            decisions.append(
                [
                    shedder.should_drop(Event(t, 0, 0.0), p, 4.0)
                    for t in ("A", "B", "X")
                    for p in range(4)
                ]
            )
        assert decisions[0] == decisions[1]

    def test_reference_size_survives_a_partial_last_bin(self, tmp_path):
        """Regression: with N = 10 and bin size 4 the last bin is
        partial; the restored model must keep N = 10 (not 3 × 4 = 12),
        or its scale-up lookups and drop masks change."""
        from repro.cep.events import Event
        from repro.core.model import UtilityModel
        from repro.core.position_shares import PositionShares
        from repro.core.utility_table import UtilityTable

        table = UtilityTable({"A": 0, "B": 1}, reference_size=10, bin_size=4)
        for type_name, row in (("A", [90, 10, 60]), ("B", [0, 100, 30])):
            for bin_index, utility in enumerate(row):
                table.set_cell(type_name, bin_index, utility)
        model = UtilityModel(
            table=table,
            shares=PositionShares.uniform(table.type_ids, 10, 4),
            reference_size=10,
            bin_size=4,
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.table.reference_size == 10
        command = DropCommand(x=2.0, partition_count=2, partition_size=5.0)
        for ws in (3.0, 5.0, 7.0, 10.0, 15.0):
            events = [Event(t, 0, 0.0) for t in ("A", "B") for _ in range(int(ws))]
            positions = [p for _ in ("A", "B") for p in range(int(ws))]
            assert [
                restored.utility(e.event_type, p, ws) for e, p in zip(events, positions)
            ] == [model.utility(e.event_type, p, ws) for e, p in zip(events, positions)]
            masks = []
            for m in (model, restored):
                shedder = ESpiceShedder(m)
                shedder.on_drop_command(command)
                shedder.activate()
                masks.append(shedder.should_drop_batch(events, positions, ws))
            assert masks[0] == masks[1], ws

    def test_cdt_identical(self, tmp_path):
        model = trained_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.whole_window_cdt().as_list() == pytest.approx(
            model.whole_window_cdt().as_list()
        )


class TestValidation:
    def test_rejects_wrong_version(self):
        payload = model_to_dict(trained_model())
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            model_from_dict(payload)

    def test_rejects_ragged_shares(self):
        payload = model_to_dict(trained_model())
        payload["share_matrix"][0] = payload["share_matrix"][0][:-1]
        with pytest.raises(ValueError):
            model_from_dict(payload)

    def test_file_is_json(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(trained_model(), path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 1
        assert "utility_matrix" in payload
