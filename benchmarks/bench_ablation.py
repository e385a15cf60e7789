"""Ablation benches for the design choices DESIGN.md calls out.

1. Partitioned CDTs vs a single whole-window threshold (paper §3.4).
2. f sweep: quality / latency-headroom trade-off.
3. Position shares vs full-occurrence counting in the CDT.
"""

from dataclasses import replace

from repro.experiments.ablation import ablation_position_shares
from repro.experiments.figures import FIGURES, PARTITIONINGS
from repro.experiments.grid import GridRunner


def _row(name, pattern_size):
    spec = FIGURES[name]
    query = spec.query.with_(pattern_size=pattern_size)
    return GridRunner().run(replace(spec, query=query))


def ablation_partitioning(pattern_size):
    return _row("ablation_partitioning", pattern_size)


def ablation_f_sweep(pattern_size):
    return _row("ablation_f", pattern_size)


def test_ablation_partitioning(report):
    # severe overload: the regime where the partition size is the
    # quality dial (see the runner's docstring)
    result = report(lambda: ablation_partitioning(pattern_size=4), _rows)
    by_label = {PARTITIONINGS[row.x]: row for row in result.points}
    paper = by_label["paper (buffer-derived rho)"]
    # the paper's buffer-derived partitioning keeps the latency bound
    assert paper.latency.violations == 0
    # degenerate per-position partitions destroy the quality advantage:
    # each single-position partition must shed regardless of utility
    finest = by_label["per-position partitions (rho=N)"]
    assert finest.fn_pct > paper.fn_pct * 1.3


def test_ablation_f_sweep(report):
    result = report(lambda: ablation_f_sweep(pattern_size=4), _rows)
    assert len(result.points) == 6
    # every f in the sweep must keep the latency bound; the trade-off
    # shows up in quality/drop aggressiveness, not in violations
    assert all(row.latency.violations == 0 for row in result.points)


def test_ablation_position_shares(report):
    result = report(lambda: ablation_position_shares(pattern_size=4), _rows)
    learned, full = result.rows_data
    # full-occurrence counting inflates the CDT and therefore stops the
    # threshold search early: it cannot remove more actual events than
    # the calibrated (learned-shares) threshold does
    assert full.expected_drops <= learned.expected_drops + 1e-9


def _rows(result):
    return result.rows(), {}
