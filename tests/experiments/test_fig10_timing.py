"""Unit tests for the Fig. 10 timing wrapper (repro.experiments.fig10)."""

from repro.cep.events import Event
from repro.experiments.fig10 import Fig10Point, TimingShedder
from repro.shedding.base import DropCommand, LoadShedder


class FixedShedder(LoadShedder):
    def __init__(self, decision):
        super().__init__()
        self.decision = decision
        self.commands = []

    def on_drop_command(self, command):
        self.commands.append(command)

    def _decide(self, event, position, predicted_ws):
        return self.decision


class TestTimingShedder:
    def test_delegates_decision(self):
        events = [Event("A", i, 0.0) for i in range(3)]
        for decision in (True, False):
            timing = TimingShedder(FixedShedder(decision))
            assert timing.should_drop_batch(events, [0, 1, 2], 10.0) == [decision] * 3

    def test_accumulates_time(self):
        timing = TimingShedder(FixedShedder(True))
        for i in range(10):
            events = [Event("A", 10 * i + j, 0.0) for j in range(10)]
            timing.should_drop_batch(events, list(range(10)), 10.0)
        assert timing.elapsed_ns > 0
        assert timing.decisions == 100
        assert timing.drops == 100

    def test_forwards_commands(self):
        inner = FixedShedder(False)
        timing = TimingShedder(inner)
        command = DropCommand(x=1.0)
        timing.on_drop_command(command)
        assert inner.commands == [command]

    def test_active_by_default(self):
        assert TimingShedder(FixedShedder(True)).active


class TestFig10Point:
    def test_overhead_pct(self):
        point = Fig10Point(
            window_seconds=240.0,
            window_events=200,
            shed_time_s=1.0,
            processing_time_s=4.0,
        )
        assert point.overhead_pct == 25.0

    def test_zero_processing_time(self):
        point = Fig10Point(120.0, 100, 1.0, 0.0)
        assert point.overhead_pct == 0.0
