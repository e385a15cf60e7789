"""All shedding strategies head-to-head on Q1, in two overload regimes.

Not a single paper figure, but the cross-cutting claim behind all of
them: utility-by-(type, position) dominates type-only shedding.  The
two regimes expose *why*:

- **moderate overload (R1)**: the demand fits inside the pool of
  pattern-irrelevant types.  Whole-type (integral) dropping looks
  perfect here -- dropping irrelevant types costs nothing -- while
  weighted-sampling BL already pays for spreading drops over relevant
  types.
- **severe overload (2.5x)**: the demand exceeds the irrelevant pool,
  so *some* relevant events must go.  Type-only strategies then drop
  relevant types blindly (integral: wholesale; BL: uniformly across
  positions) and collapse, while eSPICE sacrifices the relevant events
  at non-contributing *positions* and keeps most matches.
"""

from dataclasses import replace

from repro.experiments.figures import FIGURES
from repro.experiments.grid import GridRunner

STRATEGIES = ("espice", "bl", "bl-integral", "random")
MODERATE = 1.2
SEVERE = 2.5


def run_comparison(rates=(MODERATE, SEVERE), pattern_size=6):
    spec = replace(
        FIGURES["fig5_q1_first"],
        title="All shedders, Q1",
        xs=(pattern_size,),
        strategies=STRATEGIES,
        rates=rates,
    )
    return GridRunner().run(spec)


def test_strategy_ordering(report):
    def describe(figure):
        lines = ["All shedders on Q1 (n=6):"]
        extra = {}
        for point in sorted(figure.points, key=lambda p: (p.rate_factor, p.strategy)):
            lines.append(
                f"  R={point.rate_factor:<4} {point.strategy:<12} FN={point.fn_pct:5.1f}%  "
                f"FP={point.fp_pct:5.1f}%  drop={100 * point.drop_ratio:4.1f}%"
            )
            extra[f"fn_{point.strategy}_r{point.rate_factor}"] = round(point.fn_pct, 1)
        return "\n".join(lines), extra

    figure = report(run_comparison, describe)
    by_key = {(p.rate_factor, p.strategy): p for p in figure.points}

    # moderate overload: eSPICE beats the paper's BL and random;
    # integral gets a free ride on the irrelevant-type pool
    assert by_key[(MODERATE, "espice")].fn_pct < by_key[(MODERATE, "bl")].fn_pct
    assert by_key[(MODERATE, "espice")].fn_pct < by_key[(MODERATE, "random")].fn_pct

    # severe overload: the irrelevant pool is exhausted and every
    # type-only strategy collapses; position-awareness is what survives
    severe_espice = by_key[(SEVERE, "espice")].fn_pct
    assert severe_espice < by_key[(SEVERE, "bl")].fn_pct
    assert severe_espice < by_key[(SEVERE, "bl-integral")].fn_pct
    assert severe_espice < by_key[(SEVERE, "random")].fn_pct
