"""Unit tests for the eSPICE load shedder (repro.core.shedder)."""

import pytest

from repro.cep.events import Event
from repro.core.model import UtilityModel
from repro.core.position_shares import PositionShares
from repro.core.shedder import ESpiceShedder
from repro.core.utility_table import UtilityTable
from repro.shedding.base import DropCommand


def model_from(matrix, type_names, bin_size=1):
    table = UtilityTable.from_matrix(matrix, type_names, bin_size=bin_size)
    shares = PositionShares.uniform(
        table.type_ids, table.reference_size, bin_size
    )
    return UtilityModel(
        table=table,
        shares=shares,
        reference_size=table.reference_size,
        bin_size=bin_size,
    )


def ev(type_name):
    return Event(type_name, 0, 0.0)


# A 2-type, 10-position model: A valuable early, B valuable late.
MODEL = model_from(
    [
        [90, 90, 80, 10, 0, 0, 0, 0, 0, 0],  # A
        [0, 0, 0, 0, 0, 10, 80, 90, 90, 50],  # B
    ],
    ["A", "B"],
)


def commanded_shedder(x, partitions=1, model=MODEL):
    shedder = ESpiceShedder(model)
    psize = model.reference_size / partitions
    shedder.on_drop_command(
        DropCommand(x=x, partition_count=partitions, partition_size=psize)
    )
    shedder.activate()
    return shedder


class TestLifecycle:
    def test_inactive_never_drops(self):
        shedder = ESpiceShedder(MODEL)
        assert not shedder.active
        assert not shedder.should_drop(ev("A"), 5, 10.0)

    def test_no_command_never_drops(self):
        shedder = ESpiceShedder(MODEL)
        shedder.activate()
        assert not shedder.should_drop(ev("A"), 5, 10.0)

    def test_counters(self):
        shedder = commanded_shedder(x=2.0)
        shedder.should_drop(ev("A"), 4, 10.0)  # utility 0 -> drop
        shedder.should_drop(ev("A"), 0, 10.0)  # utility 90 -> keep
        assert shedder.decisions == 2
        assert shedder.drops == 1
        assert shedder.observed_drop_rate() == 0.5
        shedder.reset_counters()
        assert shedder.decisions == 0


class TestThresholds:
    def test_threshold_covers_commanded_amount(self):
        shedder = commanded_shedder(x=2.0)
        uth = shedder.thresholds[0]
        cdt = MODEL.whole_window_cdt()
        assert cdt.value(uth) >= 2.0

    def test_drop_iff_utility_at_most_threshold(self):
        shedder = commanded_shedder(x=6.0)
        uth = shedder.thresholds[0]
        for type_name in ("A", "B"):
            for position in range(10):
                utility = MODEL.utility(type_name, position, 10.0)
                expected = utility <= uth
                assert (
                    shedder.should_drop(ev(type_name), position, 10.0) == expected
                ), (type_name, position)

    def test_zero_x_drops_nothing(self):
        shedder = commanded_shedder(x=0.0)
        assert not any(
            shedder.should_drop(ev("A"), p, 10.0) for p in range(10)
        )

    def test_huge_x_drops_everything(self):
        shedder = commanded_shedder(x=1000.0)
        assert all(shedder.should_drop(ev("A"), p, 10.0) for p in range(10))


class TestPartitions:
    def test_per_partition_thresholds_differ(self):
        # partition 0 holds A's high utilities, partition 1 holds B's:
        # to drop 2 events from each, partition thresholds diverge
        shedder = commanded_shedder(x=2.0, partitions=2)
        assert len(shedder.thresholds) == 2
        assert shedder.plan.partition_count == 2

    def test_partition_resolved_from_position(self):
        shedder = commanded_shedder(x=2.0, partitions=2)
        # B at position 0 (partition 0) has utility 0 -> dropped there
        assert shedder.should_drop(ev("B"), 0, 10.0)
        # B at position 8 (partition 1) has utility 90 -> kept
        assert not shedder.should_drop(ev("B"), 8, 10.0)

    def test_command_update_cheap_path(self):
        shedder = commanded_shedder(x=2.0, partitions=2)
        first_plan = shedder.plan
        shedder.on_drop_command(
            DropCommand(x=4.0, partition_count=2, partition_size=5.0)
        )
        assert shedder.plan is first_plan  # partitioning unchanged
        assert shedder.thresholds[0] >= 0


class TestScaling:
    def test_larger_window_scales_down(self):
        shedder = commanded_shedder(x=2.0)
        # window of 20 events: position 10 maps to reference 5 (utility 0
        # for A) -- dropped; position 0 maps to reference 0 -- kept
        assert shedder.should_drop(ev("A"), 10, 20.0)
        assert not shedder.should_drop(ev("A"), 0, 20.0)

    def test_smaller_window_scales_up_with_averaging(self):
        shedder = commanded_shedder(x=2.0)
        # window of 5 events: position 0 covers reference 0..2
        # (A utilities 90,90) -> high, kept
        assert not shedder.should_drop(ev("A"), 0, 5.0)
        # position 2 covers reference 4..6 (A utilities 0,0) -> dropped
        assert shedder.should_drop(ev("A"), 2, 5.0)

    def test_unknown_window_size_uses_reference(self):
        shedder = commanded_shedder(x=2.0)
        assert not shedder.should_drop(ev("A"), 0, 0.0)
        assert shedder.should_drop(ev("A"), 9, 0.0)

    def test_unknown_type_dropped_first(self):
        shedder = commanded_shedder(x=2.0)
        assert shedder.should_drop(ev("MYSTERY"), 0, 10.0)

    def test_position_past_window_clamped(self):
        shedder = commanded_shedder(x=2.0)
        # position 50 of a 10-event window clamps into the table
        assert shedder.should_drop(ev("A"), 50, 10.0) in (True, False)
