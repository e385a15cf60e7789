"""Unit tests for the integral shedder (repro.shedding.integral)."""

import pytest

from repro.cep.events import Event
from repro.cep.patterns import seq, spec
from repro.shedding.base import DropCommand
from repro.shedding.integral import IntegralShedder


def pattern_ab():
    return seq("p", spec("A"), spec("B"))


def ev(type_name, seq_no=0):
    return Event(type_name, seq_no, 0.0)


def warmed(composition=None, seed=0):
    shedder = IntegralShedder(pattern_ab(), seed=seed)
    composition = composition or {"A": 100, "B": 100, "X": 500, "Y": 300}
    for type_name, count in composition.items():
        for i in range(count):
            shedder.observe(ev(type_name, i))
    return shedder


class TestPlanning:
    def test_cheapest_types_dropped_wholesale(self):
        shedder = warmed()
        # window of 100 events: X=50, Y=30, A=10, B=10. demand 60 covers X
        # wholesale plus a third of Y
        shedder.on_drop_command(DropCommand(x=60.0, partition_count=1, partition_size=100.0))
        assert shedder.dropped_types == ["X"]
        assert shedder.drop_probability_of("X") == 1.0
        assert 0.0 < shedder.drop_probability_of("Y") < 1.0
        assert shedder.drop_probability_of("A") == 0.0

    def test_frequency_breaks_ties(self):
        # among zero-utility types, the most frequent goes first
        shedder = warmed()
        shedder.on_drop_command(DropCommand(x=40.0, partition_count=1, partition_size=100.0))
        assert "X" in shedder.dropped_types or shedder.drop_probability_of("X") > 0
        assert shedder.drop_probability_of("A") == 0.0

    def test_pattern_types_dropped_last(self):
        shedder = warmed()
        shedder.on_drop_command(DropCommand(x=90.0, partition_count=1, partition_size=100.0))
        # X and Y (80 events) gone; the rest comes from a pattern type
        assert set(shedder.dropped_types) >= {"X", "Y"}
        marginal = [t for t in ("A", "B") if shedder.drop_probability_of(t) > 0]
        assert len(marginal) == 1

    def test_zero_demand(self):
        shedder = warmed()
        shedder.on_drop_command(DropCommand(x=0.0, partition_count=1, partition_size=100.0))
        assert shedder.dropped_types == []

    def test_plan_resets_on_new_command(self):
        shedder = warmed()
        shedder.on_drop_command(DropCommand(x=60.0, partition_count=1, partition_size=100.0))
        shedder.on_drop_command(DropCommand(x=0.0, partition_count=1, partition_size=100.0))
        assert shedder.dropped_types == []


class TestDecision:
    def test_wholesale_type_always_dropped(self):
        shedder = warmed()
        shedder.on_drop_command(DropCommand(x=60.0, partition_count=1, partition_size=100.0))
        shedder.activate()
        assert all(shedder.should_drop(ev("X", i), i, 100.0) for i in range(50))

    def test_untouched_type_never_dropped(self):
        shedder = warmed()
        shedder.on_drop_command(DropCommand(x=60.0, partition_count=1, partition_size=100.0))
        shedder.activate()
        assert not any(shedder.should_drop(ev("A", i), i, 100.0) for i in range(50))

    def test_marginal_type_sampled(self):
        shedder = warmed(seed=1)
        shedder.on_drop_command(DropCommand(x=60.0, partition_count=1, partition_size=100.0))
        shedder.activate()
        probability = shedder.drop_probability_of("Y")
        drops = sum(1 for i in range(2000) if shedder.should_drop(ev("Y", i), i, 100.0))
        assert drops / 2000 == pytest.approx(probability, abs=0.05)

    def test_sharper_than_fractional_on_patterns(self):
        # the integral failure mode: once a pattern type is in the
        # dropped set, every single instance vanishes
        shedder = warmed()
        shedder.on_drop_command(
            DropCommand(x=95.0, partition_count=1, partition_size=100.0)
        )
        shedder.activate()
        wholesale = set(shedder.dropped_types)
        assert {"X", "Y"} <= wholesale
        for t in wholesale & {"A", "B"}:
            assert all(shedder.should_drop(ev(t, i), i, 100.0) for i in range(20))
