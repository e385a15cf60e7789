"""Figure 9a/9b: impact of the bin size on quality.

Paper shape: mild degradation with growing bin size for Q1, clearer for
Q2.  NOTE: at our scaled-down training volume small
bins are *noisier* than the paper's, so the left end of the curve can
be non-monotone -- the assertable shape is that quality does not
collapse across two orders of magnitude of bin size.
"""

from dataclasses import replace

from repro.experiments.figures import FIGURES
from repro.experiments.grid import GridRunner

BIN_SIZES = (1, 2, 4, 8, 16, 32, 64)


def _panel(name, pattern_size, bin_sizes):
    spec = FIGURES[name]
    query = spec.query.with_(pattern_size=pattern_size)
    return GridRunner().run(replace(spec, query=query, xs=bin_sizes))


def fig9_q1(pattern_size, bin_sizes):
    return _panel("fig9_q1", pattern_size, bin_sizes)


def fig9_q2(pattern_size, bin_sizes):
    return _panel("fig9_q2", pattern_size, bin_sizes)


def _describe(result):
    worst = max(p.fn_pct for p in result.points)
    return result.rows(), {"worst_fn": worst}


def test_fig9a_q1_bin_size(report):
    result = report(lambda: fig9_q1(pattern_size=5, bin_sizes=BIN_SIZES), _describe)
    assert len({p.x for p in result.points}) == len(BIN_SIZES)
    # robustness claim: the quality stays usable across the whole sweep
    assert all(p.fn_pct < 50.0 for p in result.points)


def test_fig9b_q2_bin_size(report):
    result = report(lambda: fig9_q2(pattern_size=20, bin_sizes=BIN_SIZES), _describe)
    assert all(p.fn_pct < 50.0 for p in result.points)
