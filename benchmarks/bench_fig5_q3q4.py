"""Figure 5e/5f: Q3/Q4 false negatives over window size.

Paper shape: eSPICE near zero for exact-sequence operators (with and
without repetition); BL large.  Repetition (Q4) does not hurt eSPICE.
"""

from dataclasses import replace

from repro.experiments.figures import FIGURES
from repro.experiments.grid import GridRunner

Q3_WINDOWS = (100, 200, 300, 400)
Q4_WINDOWS = (300, 400, 500, 600)


def fig5_q3(window_sizes):
    return GridRunner().run(replace(FIGURES["fig5_q3"], xs=window_sizes))


def fig5_q4(window_sizes):
    return GridRunner().run(replace(FIGURES["fig5_q4"], xs=window_sizes))


def _describe(figure):
    espice_max = max(p.fn_pct for p in figure.points if p.strategy == "espice")
    bl_min = min(p.fn_pct for p in figure.points if p.strategy == "bl")
    return figure.rows(), {"espice_max_fn": espice_max, "bl_min_fn": bl_min}


def test_fig5e_q3_sequence(report):
    figure = report(lambda: fig5_q3(Q3_WINDOWS), _describe)
    for rate in (1.2, 1.4):
        espice = figure.series("espice", rate)
        bl = figure.series("bl", rate)
        # paper: "percentage of false negatives is almost zero" for eSPICE
        assert all(p.fn_pct <= 5.0 for p in espice)
        assert all(b.fn_pct > e.fn_pct for e, b in zip(espice, bl))
        assert max(p.fn_pct for p in bl) > 20.0


def test_fig5f_q4_sequence_with_repetition(report):
    figure = report(lambda: fig5_q4(Q4_WINDOWS), _describe)
    for rate in (1.2, 1.4):
        espice = figure.series("espice", rate)
        bl = figure.series("bl", rate)
        # repetition does not impact eSPICE (paper §4.2)
        assert all(p.fn_pct <= 10.0 for p in espice)
        assert all(b.fn_pct >= e.fn_pct for e, b in zip(espice, bl))
