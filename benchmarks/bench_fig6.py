"""Figure 6a/6b: false positives for Q1 and Q3.

Paper shape: Q1 false positives mirror its false negatives (any-operator
substitutions create new, wrong matches); Q3 false positives are ~zero
for eSPICE while BL's grow with the window size.
"""

from dataclasses import replace

from repro.experiments.figures import FIGURES
from repro.experiments.grid import GridRunner

Q1_PATTERN_SIZES = (2, 3, 4, 5, 6)
Q3_WINDOWS = (100, 200, 300, 400)


def fig6_q1(pattern_sizes):
    return GridRunner().run(replace(FIGURES["fig6_q1"], xs=pattern_sizes))


def fig6_q3(window_sizes):
    return GridRunner().run(replace(FIGURES["fig6_q3"], xs=window_sizes))


def _describe(figure):
    espice_max = max(p.fp_pct for p in figure.points if p.strategy == "espice")
    bl_max = max(p.fp_pct for p in figure.points if p.strategy == "bl")
    return figure.rows(), {"espice_max_fp": espice_max, "bl_max_fp": bl_max}


def test_fig6a_q1_false_positives(report):
    figure = report(lambda: fig6_q1(Q1_PATTERN_SIZES), _describe)
    for rate in (1.2, 1.4):
        espice = figure.series("espice", rate)
        bl = figure.series("bl", rate)
        # eSPICE below BL everywhere (paper: up to 4.8x / 3.2x)
        for e_point, b_point in zip(espice, bl):
            assert e_point.fp_pct <= b_point.fp_pct


def test_fig6b_q3_false_positives(report):
    figure = report(lambda: fig6_q3(Q3_WINDOWS), _describe)
    for rate in (1.2, 1.4):
        espice = figure.series("espice", rate)
        bl = figure.series("bl", rate)
        # paper: eSPICE ~zero; BL grows with window size
        assert all(p.fp_pct <= 5.0 for p in espice)
        assert bl[-1].fp_pct >= bl[0].fp_pct
