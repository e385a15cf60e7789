"""Smoke tests for the burst-absorption row of the figure table."""

from dataclasses import replace

from repro.experiments.common import ExperimentConfig
from repro.experiments.figures import FIGURES
from repro.experiments.grid import GridRunner


def burst_experiment(f_values, burst_seconds, base_factor, config):
    spec = FIGURES["burst"]
    return GridRunner().run(
        replace(
            spec,
            xs=tuple((burst, f) for burst in burst_seconds for f in f_values),
            burst_base=base_factor,
            config=config,
        )
    )


class TestBurstExperiment:
    def test_smoke(self):
        result = burst_experiment(
            f_values=(0.5, 0.8),
            burst_seconds=(0.3,),
            base_factor=0.8,
            config=ExperimentConfig(bin_size=8),
        )
        assert len(result.points) == 2
        by_f = {p.x[1]: p for p in result.points}
        # the higher trigger sheds less on a short burst
        assert (
            by_f[0.8].dropped_memberships <= by_f[0.5].dropped_memberships
        )
        assert "Burst absorption" in result.rows()

    def test_all_points_have_metrics(self):
        result = burst_experiment(
            f_values=(0.8,),
            burst_seconds=(0.3,),
            base_factor=0.8,
            config=ExperimentConfig(bin_size=8),
        )
        point = result.points[0]
        assert point.latency.maximum * 1000.0 > 0
        assert 0.0 <= point.fn_pct <= 100.0
