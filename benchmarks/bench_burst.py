"""Burst absorption vs the ``f`` parameter (paper §3.4's f discussion).

Paper claims: a high ``f`` "avoids unnecessarily dropping events [--]
in short burst situations", while pushing ``f`` too close to 1 leaves
no headroom and risks violating the latency bound.
"""

from dataclasses import replace

from repro.experiments.figures import FIGURES
from repro.experiments.grid import GridRunner

SHORT = 0.3
LONG = 6.0


def burst_experiment(f_values, burst_seconds, base_factor):
    xs = tuple((burst, f) for burst in burst_seconds for f in f_values)
    spec = replace(FIGURES["burst"], xs=xs, burst_base=base_factor)
    return GridRunner().run(spec)


def test_burst_absorption(report):
    def describe(result):
        return result.rows(), {
            f"drops_f{p.x[1]}_b{p.x[0]}": p.dropped_memberships
            for p in result.points
        }

    result = report(
        lambda: burst_experiment(
            f_values=(0.5, 0.8, 0.95), burst_seconds=(SHORT, LONG), base_factor=0.8
        ),
        describe,
    )
    by_key = {p.x: p for p in result.points}  # (burst seconds, f)

    # short burst: the higher trigger sheds far less, at no quality cost
    assert (
        by_key[(SHORT, 0.8)].dropped_memberships
        < by_key[(SHORT, 0.5)].dropped_memberships / 2
    )
    assert by_key[(SHORT, 0.8)].fn_pct < 5.0

    # sustained burst: everyone must shed heavily
    for f in (0.5, 0.8):
        assert (
            by_key[(LONG, f)].dropped_memberships
            > 10 * by_key[(SHORT, f)].dropped_memberships
        )

    # moderate f values keep the bound in both regimes; f ~ 1 leaves no
    # headroom and grazes/violates it (the paper's "appropriate f" point)
    for burst in (SHORT, LONG):
        assert by_key[(burst, 0.5)].latency.violations == 0
        assert by_key[(burst, 0.8)].latency.violations == 0
    assert by_key[(LONG, 0.95)].latency.violations > 0
