"""Figure 10: run-time overhead of the load shedder vs window size.

Paper shape: the O(1) per-event decision is cheap relative to event
processing and the relative overhead grows with the window size.
Absolute percentages are higher here than the paper's <1--5%: the
paper's Java matcher does far more work per event than this
pure-Python greedy matcher, so the fixed interpreter cost per decision
weighs more.
"""

from repro.experiments.fig10 import fig10_overhead

WINDOW_SECONDS = (120.0, 240.0, 480.0, 960.0)


def _describe(result):
    ordered = sorted(result.points, key=lambda p: p.window_seconds)
    extra = {
        f"overhead_ws{p.window_seconds:.0f}": round(p.overhead_pct, 2)
        for p in ordered
    }
    return result.rows(), extra


def test_fig10_overhead_small_and_growing(report):
    result = report(lambda: fig10_overhead(WINDOW_SECONDS), _describe)
    ordered = sorted(result.points, key=lambda p: p.window_seconds)
    # the decision is a bounded fraction of processing, not a multiple
    assert all(p.overhead_pct < 60.0 for p in ordered)
    # and the relative overhead grows with the window size (paper shape)
    assert ordered[-1].overhead_pct > ordered[0].overhead_pct
