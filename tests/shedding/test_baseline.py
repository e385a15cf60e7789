"""Unit tests for the BL baseline shedder (repro.shedding.baseline)."""

import pytest

from repro.cep.events import Event
from repro.cep.patterns import any_of, seq, spec
from repro.shedding.base import DropCommand
from repro.shedding.baseline import BLShedder


def pattern_ab():
    return seq("p", spec("A"), spec("B"))


def ev(type_name, seq_no=0):
    return Event(type_name, seq_no, 0.0)


def warmed_shedder(pattern=None, composition=None, seed=0):
    """BL with a learned type-frequency mix."""
    shedder = BLShedder(pattern or pattern_ab(), seed=seed)
    composition = composition or {"A": 100, "B": 100, "X": 800}
    for type_name, count in composition.items():
        for i in range(count):
            shedder.observe(ev(type_name, i))
    return shedder


class TestFrequencyModel:
    def test_frequency_estimates(self):
        shedder = warmed_shedder()
        assert shedder.frequency("X") == pytest.approx(0.8)
        assert shedder.frequency("A") == pytest.approx(0.1)

    def test_frequency_unseen_type(self):
        assert warmed_shedder().frequency("NEW") == 0.0

    def test_frequency_before_observation(self):
        assert BLShedder(pattern_ab()).frequency("A") == 0.0


class TestTypeUtility:
    def test_pattern_types_have_utility(self):
        shedder = warmed_shedder()
        assert shedder.type_utility("A") == 1.0
        assert shedder.type_utility("X") == 0.0

    def test_repetition_raises_utility(self):
        pattern = seq("p", spec("A"), spec("A"), spec("B"))
        shedder = BLShedder(pattern)
        assert shedder.type_utility("A") == 2.0

    def test_any_step_shares_utility(self):
        pattern = seq("p", any_of(2, [spec("A"), spec("B"), spec("C"), spec("D")]))
        shedder = BLShedder(pattern)
        assert shedder.type_utility("A") == pytest.approx(0.5)

    def test_sampling_weight_inverse(self):
        shedder = warmed_shedder()
        assert shedder.sampling_weight("X") == 1.0
        assert shedder.sampling_weight("A") == pytest.approx(0.5)


class TestPlanning:
    def test_waterfill_meets_demand(self):
        shedder = warmed_shedder()
        window = 100.0
        demand = 20.0
        shedder.on_drop_command(
            DropCommand(x=demand, partition_count=1, partition_size=window)
        )
        expected = sum(
            shedder.drop_probability_of(t) * shedder.frequency(t) * window
            for t in ("A", "B", "X")
        )
        assert expected == pytest.approx(demand, rel=0.01)

    def test_cheap_types_dropped_more(self):
        shedder = warmed_shedder()
        shedder.on_drop_command(DropCommand(x=20.0, partition_count=1, partition_size=100.0))
        assert shedder.drop_probability_of("X") > shedder.drop_probability_of("A")

    def test_pattern_types_still_dropped_some(self):
        # weighted sampling, not strict cheapest-first: pattern types get
        # a nonzero probability once irrelevant types alone can't absorb
        # the scale
        shedder = warmed_shedder()
        shedder.on_drop_command(DropCommand(x=20.0, partition_count=1, partition_size=100.0))
        assert shedder.drop_probability_of("A") > 0.0

    def test_zero_demand_drops_nothing(self):
        shedder = warmed_shedder()
        shedder.on_drop_command(DropCommand(x=0.0, partition_count=1, partition_size=100.0))
        shedder.activate()
        assert not shedder.should_drop(ev("X"), 0, 100.0)

    def test_zero_command_after_a_plan_drops_nothing(self):
        """Regression: x = 0 issued while active (queue above f·qmax but
        the rate within throughput) must stop every drop, including the
        fallback scale of the previous plan."""
        shedder = warmed_shedder(seed=1)
        shedder.on_drop_command(DropCommand(x=20.0, partition_count=1, partition_size=100.0))
        shedder.on_drop_command(DropCommand(x=0.0, partition_count=1, partition_size=100.0))
        shedder.activate()
        events = [ev(t, i) for i, t in enumerate(["A", "B", "X", "NEW"] * 50)]
        assert shedder.should_drop_batch(events, list(range(200)), 100.0) == [False] * 200
        assert shedder.drop_probability_of("NEW") == 0.0

    def test_demand_capped_at_population(self):
        shedder = warmed_shedder()
        shedder.on_drop_command(
            DropCommand(x=1e9, partition_count=1, partition_size=100.0)
        )
        for type_name in ("A", "B", "X"):
            assert shedder.drop_probability_of(type_name) == pytest.approx(1.0)

    def test_unseen_type_uses_default_scale(self):
        shedder = warmed_shedder()
        shedder.on_drop_command(DropCommand(x=20.0, partition_count=1, partition_size=100.0))
        assert shedder.drop_probability_of("NEW") > 0.0


class TestDecision:
    def test_statistical_drop_rate(self):
        shedder = warmed_shedder(seed=42)
        shedder.on_drop_command(DropCommand(x=20.0, partition_count=1, partition_size=100.0))
        shedder.activate()
        drops = sum(
            1 for i in range(2000) if shedder.should_drop(ev("X", i), i, 100.0)
        )
        probability = shedder.drop_probability_of("X")
        assert drops / 2000 == pytest.approx(probability, abs=0.05)

    def test_deterministic_with_seed(self):
        outcomes = []
        for _ in range(2):
            shedder = warmed_shedder(seed=7)
            shedder.on_drop_command(
                DropCommand(x=30.0, partition_count=1, partition_size=100.0)
            )
            shedder.activate()
            outcomes.append(
                [shedder.should_drop(ev("X", i), i, 100.0) for i in range(50)]
            )
        assert outcomes[0] == outcomes[1]

    def test_position_blind(self):
        # same type at different positions gets the same plan probability
        shedder = warmed_shedder()
        shedder.on_drop_command(DropCommand(x=99.0, partition_count=1, partition_size=100.0))
        shedder.activate()
        assert shedder.drop_probability_of("X") == 1.0
        assert shedder.should_drop(ev("X"), 0, 100.0)
        assert shedder.should_drop(ev("X"), 99, 100.0)
