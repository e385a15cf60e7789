"""Figure 7: event processing latency over time under R1/R2.

Paper shape: eSPICE never violates the 1 s latency bound and keeps the
event latency around ``f * LB`` once shedding engages; without any
shedder the bound is blown.
"""

from dataclasses import replace

from repro.experiments.figures import FIGURES
from repro.experiments.grid import GridRunner


def fig7_latency(pattern_size, **changes):
    spec = replace(FIGURES["fig7"], xs=(pattern_size,), **changes)
    return GridRunner().run(spec)


def _describe(result):
    lines = [result.rows(), "", "timeline (1s buckets, mean latency ms):"]
    for run in result.points:
        series = "  ".join(
            f"{t:.0f}s:{latency * 1000:.0f}" for t, latency in run.timeline[:12]
        )
        lines.append(f"  R={run.rate_factor:.1f}: {series}")
    extra = {
        f"violations_r{run.rate_factor:.1f}": run.latency.violations
        for run in result.points
    }
    return "\n".join(lines), extra


def test_fig7_espice_keeps_latency_bound(report):
    result = report(lambda: fig7_latency(pattern_size=4), _describe)
    config = result.spec.config
    assert len(result.points) == 2
    for run in result.points:
        # the headline claim: the latency bound is never violated
        assert run.latency.violations == 0
        assert run.latency.maximum <= config.latency_bound
        # and the system actually operated near the bound (not idle):
        # peak latency beyond half of f*LB shows real queueing pressure
        assert run.latency.maximum > 0.25 * config.f * config.latency_bound


def test_fig7_no_shedding_violates_bound(report):
    result = report(
        lambda: fig7_latency(pattern_size=4, rates=(1.2,), strategies=("none",)),
        _describe,
    )
    assert result.points[0].latency.violations > 0
