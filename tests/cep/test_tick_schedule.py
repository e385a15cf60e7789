"""The tick schedule every driver steps its periodic duty with.

Ticks are stepped by repeated addition, so however a non-decreasing
sequence of ``now`` values is cut, the ticks are those of one
``advance`` to the last of them, bit for bit.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep.clock import TickSchedule
from repro.pipeline import PipelineConfig


def started(interval, at=0.0):
    schedule = TickSchedule(interval)
    schedule.start(at)
    return schedule


class TestAdvance:
    @given(
        interval=st.sampled_from([1 / 256, 0.01, 0.1, 0.3, 1.7]),
        at=st.floats(-10.0, 10.0),
        steps=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_cut_yields_the_ticks_of_one_advance(self, interval, at, steps):
        nows = [at + step for step in steps]
        nows.sort()
        cut, whole = started(interval, at), started(interval, at)
        got = [tick for now in nows for tick in cut.advance(now)]
        assert got == list(whole.advance(nows[-1]))
        assert cut.next == whole.next
        assert not cut.due(nows[-1])

    def test_ticks_step_by_repeated_addition(self):
        expected, tick = [], 0.1
        while tick <= 3.0:
            expected.append(tick)
            tick += 0.1
        assert list(started(0.1).advance(3.0)) == expected
        # the closed form differs in the last bit: the two must not mix
        assert expected != [0.1 * k for k in range(1, len(expected) + 1)]

    def test_first_tick_is_one_interval_after_the_anchor(self):
        schedule = started(0.5, at=2.0)
        assert schedule.next == 2.5
        assert not schedule.due(2.4)
        assert schedule.due(2.5)

    def test_unanchored_yields_nothing(self):
        schedule = TickSchedule(0.1)
        assert schedule.next is None
        assert not schedule.due(math.inf)
        assert list(schedule.advance(1e9)) == []
        schedule.start(0.0)
        schedule.stop()
        assert list(schedule.advance(1e9)) == []

    def test_a_raising_consumer_leaves_its_tick_due(self):
        schedule = started(0.5)
        with pytest.raises(RuntimeError):
            for tick in schedule.advance(2.0):
                if tick == 1.0:
                    raise RuntimeError("on_tick failed")
        assert schedule.next == 1.0
        assert list(schedule.advance(2.0)) == [1.0, 1.5, 2.0]


class TestInterval:
    @pytest.mark.parametrize("interval", [0.0, -0.1, float("nan")])
    def test_non_positive_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="interval"):
            TickSchedule(interval)

    def test_pipeline_config_rejects_zero_interval(self):
        with pytest.raises(ValueError, match="check interval"):
            PipelineConfig(check_interval=0)
