"""Unit tests for the model builder (repro.core.model)."""

import pytest

from repro.cep.events import Event
from repro.cep.windows import Window
from repro.core.model import ModelBuilder


def make_window(type_names, window_id=0, truncated=False):
    events = [Event(name, i, float(i)) for i, name in enumerate(type_names)]
    return Window(window_id=window_id, events=events, truncated=truncated)


def match_of(window, positions):
    return [(pos, window.events[pos]) for pos in positions]


class TestObservation:
    def test_counts_windows_and_matches(self):
        builder = ModelBuilder()
        w = make_window(["A", "B", "A"])
        builder.observe(w, [match_of(w, [0, 1])])
        assert builder.windows_seen == 1
        assert builder.matches_seen == 1

    def test_skips_empty_windows(self):
        builder = ModelBuilder()
        builder.observe(make_window([]), [])
        assert builder.windows_seen == 0

    def test_skips_truncated_windows(self):
        builder = ModelBuilder()
        builder.observe(make_window(["A", "B"], truncated=True), [])
        assert builder.windows_seen == 0

    def test_reset(self):
        builder = ModelBuilder()
        w = make_window(["A"])
        builder.observe(w, [])
        builder.reset()
        assert builder.windows_seen == 0
        with pytest.raises(ValueError):
            builder.build()

    def test_ring_buffer_caps_records(self):
        builder = ModelBuilder(max_records=2)
        for i in range(5):
            builder.observe(make_window(["A"], window_id=i), [])
        model = builder.build()
        assert model.windows_trained == 2


class TestBuild:
    def test_requires_observations(self):
        with pytest.raises(ValueError):
            ModelBuilder().build()

    def test_reference_size_is_average(self):
        builder = ModelBuilder()
        builder.observe(make_window(["A"] * 4), [])
        builder.observe(make_window(["A"] * 6), [])
        assert builder.average_window_size() == 5.0
        assert builder.build().reference_size == 5

    def test_pinned_reference_size(self):
        builder = ModelBuilder(reference_size=10)
        builder.observe(make_window(["A"] * 4), [])
        assert builder.build().reference_size == 10

    def test_contributors_get_high_utility(self):
        builder = ModelBuilder()
        for i in range(10):
            w = make_window(["A", "B", "C", "C"], window_id=i)
            builder.observe(w, [match_of(w, [0, 1])])
        model = builder.build()
        assert model.utility("A", 0, 4.0) == 100
        assert model.utility("B", 1, 4.0) == 100
        assert model.utility("C", 2, 4.0) == 0
        assert model.utility("C", 3, 4.0) == 0

    def test_partial_contribution_scales_utility(self):
        builder = ModelBuilder()
        for i in range(10):
            w = make_window(["A", "B"], window_id=i)
            matches = [match_of(w, [0, 1])] if i < 5 else [match_of(w, [0])]
            builder.observe(w, matches)
        model = builder.build()
        assert model.utility("A", 0, 2.0) == 100
        assert model.utility("B", 1, 2.0) == 50

    def test_shares_learned_from_windows(self):
        builder = ModelBuilder()
        builder.observe(make_window(["A", "B"]), [])
        builder.observe(make_window(["A", "A"]), [])
        model = builder.build()
        assert model.shares.share("A", 0) == pytest.approx(1.0)
        assert model.shares.share("B", 1) == pytest.approx(0.5)

    def test_variable_window_sizes_scale_to_reference(self):
        builder = ModelBuilder(reference_size=2)
        # a window of size 4: positions 0..3 map to reference 0,0,1,1
        w = make_window(["A", "A", "B", "B"])
        builder.observe(w, [match_of(w, [3])])
        model = builder.build()
        assert model.utility("B", 1, 2.0) == 100
        assert model.shares.share("A", 0) == pytest.approx(2.0)

    def test_binned_model(self):
        builder = ModelBuilder(bin_size=2, reference_size=4)
        w = make_window(["A", "A", "B", "B"])
        builder.observe(w, [match_of(w, [0, 1])])
        model = builder.build()
        assert model.table.bins == 2
        assert model.utility("A", 0, 4.0) == 100
        assert model.utility("A", 1, 4.0) == 100  # same bin

    def test_build_is_repeatable(self):
        builder = ModelBuilder()
        w = make_window(["A", "B"])
        builder.observe(w, [match_of(w, [0])])
        first = builder.build()
        second = builder.build()
        assert first.table.as_matrix() == second.table.as_matrix()

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelBuilder(bin_size=0)
        with pytest.raises(ValueError):
            ModelBuilder(reference_size=0)


class TestUtilityModel:
    def _model(self):
        builder = ModelBuilder()
        for i in range(4):
            w = make_window(["A", "B", "C", "D"], window_id=i)
            builder.observe(w, [match_of(w, [0, 1])])
        return builder.build()

    def test_whole_window_cdt_total(self):
        model = self._model()
        assert model.whole_window_cdt().total == pytest.approx(4.0)

    def test_partition_cdts(self):
        from repro.core.partitions import PartitionPlan

        model = self._model()
        plan = PartitionPlan(reference_size=4, partition_count=2, partition_size=2.0)
        parts = model.partition_cdts(plan)
        assert len(parts) == 2
        assert sum(p.total for p in parts) == pytest.approx(4.0)


class TestReferencePositionMapIsPerWindowSize:
    """``build`` maps window positions to reference positions once per
    distinct window size (``scaling.reference_positions_batch``) instead
    of once per event; the model must not notice."""

    # fingerprints recorded with the per-position mapping, before the change
    STREAMS = {
        "stock": ("e26310058559", 300),
        "soccer": ("bf2d6a266622", 306),
    }

    @staticmethod
    def _train(name):
        from repro.experiments import workloads
        from repro.pipeline import Pipeline
        from repro.queries import build_q1, build_q3

        if name == "stock":
            query = build_q3(300)
            train, _ = workloads.stock_streams_q3(ticks=150, seed=9)
        else:
            query = build_q1(pattern_size=2, window_seconds=15.0)
            train, _ = workloads.soccer_streams(duration_seconds=1500.0, seed=3)
        pipeline = Pipeline.builder().query(query).shedder("espice", f=0.8).build()
        return pipeline.train(train).model

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_fingerprint_unchanged(self, name, monkeypatch):
        from repro.core import scaling

        fingerprint, reference_size = self.STREAMS[name]
        model = self._train(name)
        assert (model.fingerprint(), model.reference_size) == (
            fingerprint,
            reference_size,
        )
        # and equal to mapping every position on its own
        monkeypatch.setattr(
            scaling,
            "reference_positions_batch",
            lambda positions, size, n: [
                scaling.reference_position(p, size, n) for p in positions
            ],
        )
        assert self._train(name).fingerprint() == fingerprint

    def test_map_is_computed_once_per_distinct_size(self, monkeypatch):
        from repro.core import scaling

        sizes = []
        batch = scaling.reference_positions_batch
        monkeypatch.setattr(
            scaling,
            "reference_positions_batch",
            lambda positions, size, n: sizes.append(size) or batch(positions, size, n),
        )
        builder = ModelBuilder()
        for window_id, size in enumerate([3, 5, 3, 5, 5, 4]):
            w = make_window(["A", "B"] * 3, window_id=window_id)
            w.events = w.events[:size]
            builder.observe(w, [match_of(w, [0, 1])])
        builder.build()
        assert sorted(sizes) == [3, 4, 5]
