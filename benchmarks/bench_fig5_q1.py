"""Figure 5a/5b: Q1 false negatives over pattern size (first/last).

Paper shape: eSPICE well below BL at every pattern size (up to 5--7x),
both rising with the pattern size and with the input rate.
"""

from dataclasses import replace

from repro.experiments.figures import FIGURES
from repro.experiments.grid import GridRunner

PATTERN_SIZES = (2, 3, 4, 5, 6)


def fig5_q1(selection):
    spec = FIGURES[f"fig5_q1_{selection}"]
    return GridRunner().run(replace(spec, xs=PATTERN_SIZES))


def _describe(figure):
    worst_ratio = None
    for rate in (1.2, 1.4):
        espice = {p.x: p.fn_pct for p in figure.series("espice", rate)}
        bl = {p.x: p.fn_pct for p in figure.series("bl", rate)}
        for x in espice:
            if espice[x] > 0:
                ratio = bl[x] / espice[x]
                worst_ratio = min(worst_ratio or ratio, ratio)
    extra = {"min_bl_over_espice": worst_ratio}
    return figure.rows(), extra


def test_fig5a_q1_first_selection(report):
    figure = report(
        lambda: fig5_q1("first"), _describe
    )
    for rate in (1.2, 1.4):
        espice = figure.series("espice", rate)
        bl = figure.series("bl", rate)
        # eSPICE beats BL at every point (paper: up to 5x/3.2x)
        for e_point, b_point in zip(espice, bl):
            assert e_point.fn_pct < b_point.fn_pct
        # BL degrades with pattern size (paper shape)
        assert bl[-1].fn_pct > bl[0].fn_pct


def test_fig5b_q1_last_selection(report):
    figure = report(
        lambda: fig5_q1("last"), _describe
    )
    for rate in (1.2, 1.4):
        for e_point, b_point in zip(
            figure.series("espice", rate), figure.series("bl", rate)
        ):
            assert e_point.fn_pct <= b_point.fn_pct
