"""Unit tests for the overload detector (repro.core.overload)."""

import pytest

from repro.core.overload import OverloadDetector
from repro.shedding.base import DropCommand, LoadShedder


class RecordingShedder(LoadShedder):
    """Captures commands and activation changes."""

    def __init__(self):
        super().__init__()
        self.commands = []

    def on_drop_command(self, command):
        self.commands.append(command)

    def _decide(self, event, position, predicted_ws):
        return False


def detector(**kwargs):
    defaults = dict(
        latency_bound=1.0,
        f=0.8,
        reference_size=300,
        fixed_processing_latency=0.001,  # th = 1000 ev/s, qmax = 1000
        fixed_input_rate=1200.0,  # R1-style 20% overload
    )
    defaults.update(kwargs)
    return OverloadDetector(**defaults)


class TestEstimators:
    def test_fixed_values(self):
        d = detector()
        assert d.processing_latency == 0.001
        assert d.throughput == pytest.approx(1000.0)
        assert d.qmax() == pytest.approx(1000.0)

    def test_ema_processing_latency(self):
        d = detector(fixed_processing_latency=None)
        d.record_processing(0.002)
        assert d.processing_latency == pytest.approx(0.002)
        d.record_processing(0.004)
        assert 0.002 < d.processing_latency < 0.004

    def test_rate_measured_between_checks(self):
        d = detector(fixed_input_rate=None)
        d.check(0.0, 0)
        for _ in range(100):
            d.record_arrival(0.0)
        d.check(0.1, 0)
        assert d.input_rate == pytest.approx(1000.0)

    def test_no_estimates_before_data(self):
        d = OverloadDetector(latency_bound=1.0, f=0.8, reference_size=10)
        assert d.qmax() is None
        assert d.throughput is None


class TestTriggering:
    def test_no_shedding_below_threshold(self):
        shedder = RecordingShedder()
        d = detector(shedder=shedder)
        d.check(0.0, qsize=500)  # f*qmax = 800
        assert not shedder.active
        assert shedder.commands == []

    def test_shedding_above_threshold(self):
        shedder = RecordingShedder()
        d = detector(shedder=shedder)
        command = d.check(0.0, qsize=900)
        assert shedder.active
        assert command is not None
        assert shedder.commands == [command]

    def test_boundary_is_strict(self):
        shedder = RecordingShedder()
        d = detector(shedder=shedder)
        d.check(0.0, qsize=800)  # == f*qmax: not strictly greater
        assert not shedder.active

    def test_deactivation_when_queue_drains(self):
        shedder = RecordingShedder()
        d = detector(shedder=shedder)
        d.check(0.0, qsize=900)
        assert shedder.active
        d.check(0.1, qsize=100)
        assert not shedder.active

    def test_samples_recorded(self):
        d = detector()
        d.check(0.0, qsize=10)
        d.check(0.1, qsize=900)
        assert len(d.samples) == 2
        assert d.samples[0].shedding is False
        assert d.samples[1].shedding is True
        assert d.samples[1].drop_amount > 0

    def test_estimated_latency_in_sample(self):
        d = detector()
        d.check(0.0, qsize=99)
        assert d.samples[0].estimated_latency == pytest.approx(100 * 0.001)


class TestDropAmount:
    def test_paper_formula(self):
        # x = delta * psize / R with delta = R - th
        shedder = RecordingShedder()
        d = detector(shedder=shedder)
        command = d.check(0.0, qsize=900)
        plan = d.current_plan
        expected_x = (1200.0 - 1000.0) * plan.partition_size / 1200.0
        assert command.x == pytest.approx(expected_x)
        assert command.partition_count == plan.partition_count
        assert command.partition_size == pytest.approx(plan.partition_size)

    def test_partition_plan_follows_buffer(self):
        # buffer = qmax*(1-f) = 200 events; ws=300 -> 2 partitions
        d = detector()
        d.check(0.0, qsize=900)
        assert d.current_plan.partition_count == 2

    def test_no_surplus_no_drops(self):
        d = detector(fixed_input_rate=900.0)  # under capacity
        command = d.check(0.0, qsize=900)
        assert command.x == 0.0

    def test_partition_override(self):
        d = detector(partition_override=5)
        d.check(0.0, qsize=900)
        assert d.current_plan.partition_count == 5

    def test_partition_override_capped(self):
        d = detector(partition_override=100000)
        d.check(0.0, qsize=900)
        assert d.current_plan.partition_count == 300


class TestValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            detector(latency_bound=0.0)
        with pytest.raises(ValueError):
            detector(f=1.0)
        with pytest.raises(ValueError):
            detector(reference_size=0)
        with pytest.raises(ValueError):
            detector(partition_override=0)
