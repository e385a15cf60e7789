"""Smoke tests for the experiment runners (tiny parameters).

Full-size runs live in ``benchmarks/``; these only verify that every
figure-table row and the two standalone measurements execute, produce
well-formed series and render their rows.
"""

from dataclasses import replace

import pytest

from repro.experiments import workloads
from repro.experiments.common import (
    ExperimentConfig,
    format_rows,
    reference_window_size,
    run_quality_point,
    strategy_pipeline,
)
from repro.experiments.figures import FIGURES
from repro.experiments.grid import GridRunner
from repro.experiments.fig10 import fig10_overhead
from repro.experiments.ablation import ablation_position_shares
from repro.queries import build_q1

FAST = ExperimentConfig(bin_size=8)


def run_row(name, pattern_size=None, runner=None, **changes):
    """Row ``name`` of the figure table, changed, through ``runner``."""
    spec = FIGURES[name]
    if pattern_size is not None:
        spec = replace(spec, query=spec.query.with_(pattern_size=pattern_size))
    return (runner or GridRunner()).run(replace(spec, **changes))


@pytest.fixture(scope="module")
def small_soccer():
    return workloads.soccer_streams(duration_seconds=1200.0, seed=17)


class TestCommon:
    def test_reference_window_size(self, small_soccer):
        train, _test = small_soccer
        n = reference_window_size(build_q1(2), train)
        assert 100 < n < 800

    def test_strategy_pipeline_rejects_unknown(self, small_soccer):
        train, _test = small_soccer
        with pytest.raises(ValueError):
            strategy_pipeline("magic", build_q1(2), train, FAST, 1.2)

    def test_run_quality_point_smoke(self, small_soccer):
        train, test = small_soccer
        outcome = run_quality_point(build_q1(2), train, test, "espice", 1.2, FAST)
        assert 0.0 <= outcome.fn_pct <= 100.0
        assert outcome.latency.count == len(test)
        assert "espice" in str(outcome)

    def test_format_rows(self):
        text = format_rows(["a", "bb"], [[1, 2], [3, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0]


class TestFigureRunners:
    def test_fig5_smoke(self):
        runner = GridRunner()
        sweep = dict(xs=(2,), rates=(1.2,), config=FAST, runner=runner)
        figure = run_row("fig5_q1_first", **sweep)
        assert len(figure.points) == 2  # espice + bl
        series = figure.series("espice", 1.2)
        assert len(series) == 1
        assert "Fig5" in figure.rows()
        assert "%FP" in run_row("fig6_q1", **sweep).rows()

    def test_fig7_smoke(self):
        result = run_row("fig7", xs=(2,), rates=(1.2,), config=FAST)
        assert len(result.points) == 1
        run = result.points[0]
        assert run.latency.count > 0
        assert not run.latency.violations > 0  # eSPICE keeps the bound
        assert len(run.timeline) > 3
        assert "Fig7" in result.rows()

    def test_fig8_smoke(self):
        result = run_row(
            "fig8_q1",
            pattern_size=2,
            xs=(12.0, 16.0),
            rates=(1.2,),
            config=FAST,
        )
        assert len(result.points) == 2
        assert {round(100 * p.x / 16.0) for p in result.points} == {75, 100}
        assert "Fig8" in result.rows()

    def test_fig9_smoke(self):
        result = run_row("fig9_q1", pattern_size=2, xs=(4, 8), rates=(1.2,), config=FAST)
        assert len(result.points) == 2
        assert "Fig9" in result.rows()

    def test_fig10_smoke(self):
        result = fig10_overhead(window_seconds=(120.0,), config=FAST)
        assert len(result.points) == 1
        point = result.points[0]
        assert point.shed_time_s > 0.0
        assert point.overhead_pct > 0.0
        assert "Fig10" in result.rows()


class TestAblations:
    def test_partitioning_ablation(self):
        result = run_row("ablation_partitioning", pattern_size=2, config=FAST)
        labels = [row.x for row in result.points]
        assert len(labels) == 3
        assert "Ablation" in result.rows()

    def test_f_sweep(self):
        result = run_row("ablation_f", pattern_size=2, xs=(0.5, 0.9), config=FAST)
        assert len(result.points) == 2

    def test_position_shares_ablation(self):
        result = ablation_position_shares(pattern_size=2, config=FAST)
        learned, full = result.rows_data
        # full-occurrence counting reaches the commanded x with fewer
        # *actual* events: it under-drops relative to learned shares
        assert full.expected_drops <= learned.expected_drops + 1e-9
        assert "shares" in result.rows()


class TestWorkloads:
    def test_streams_memoised(self):
        a = workloads.soccer_streams(duration_seconds=1200.0, seed=17)
        b = workloads.soccer_streams(duration_seconds=1200.0, seed=17)
        assert a[0] is b[0]

    def test_clear_caches(self):
        a = workloads.soccer_streams(duration_seconds=1200.0, seed=17)
        workloads.clear_caches()
        b = workloads.soccer_streams(duration_seconds=1200.0, seed=17)
        assert a[0] is not b[0]

    def test_stock_workloads(self):
        train, test = workloads.stock_streams_q2(symbols=20, ticks=100)
        assert len(train) > 0 and len(test) > 0
        train3, _ = workloads.stock_streams_q3(sequence_length=5, ticks=100, symbols=15)
        assert len(train3) > 0
        train4, _ = workloads.stock_streams_q4(ticks=100)
        assert len(train4) > 0
