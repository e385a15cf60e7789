"""Figure 5c/5d: Q2 false negatives over pattern size (first/last).

Paper shape: eSPICE an order of magnitude below BL (up to 30x at R1),
similar for both selection policies.
"""

from dataclasses import replace

from repro.experiments.figures import FIGURES
from repro.experiments.grid import GridRunner

PATTERN_SIZES = (5, 10, 15, 20, 25)


def fig5_q2(selection):
    spec = FIGURES[f"fig5_q2_{selection}"]
    return GridRunner().run(replace(spec, xs=PATTERN_SIZES))


def _describe(figure):
    best_ratio = 0.0
    for rate in (1.2, 1.4):
        espice = {p.x: p.fn_pct for p in figure.series("espice", rate)}
        bl = {p.x: p.fn_pct for p in figure.series("bl", rate)}
        for x in espice:
            ratio = bl[x] / max(espice[x], 0.1)
            best_ratio = max(best_ratio, ratio)
    return figure.rows(), {"max_bl_over_espice": best_ratio}


def test_fig5c_q2_first_selection(report):
    figure = report(
        lambda: fig5_q2("first"), _describe
    )
    for rate in (1.2, 1.4):
        espice = figure.series("espice", rate)
        bl = figure.series("bl", rate)
        for e_point, b_point in zip(espice, bl):
            assert e_point.fn_pct < b_point.fn_pct
        # eSPICE stays in single digits; BL keeps degrading with n
        assert all(p.fn_pct < 15.0 for p in espice)
        assert bl[-1].fn_pct > 2 * max(espice[-1].fn_pct, 5.0)


def test_fig5d_q2_last_selection(report):
    figure = report(
        lambda: fig5_q2("last"), _describe
    )
    for rate in (1.2, 1.4):
        for e_point, b_point in zip(
            figure.series("espice", rate), figure.series("bl", rate)
        ):
            assert e_point.fn_pct <= b_point.fn_pct
