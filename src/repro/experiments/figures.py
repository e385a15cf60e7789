"""The paper's evaluation as one table: a :class:`FigureSpec` per sweep.

Every row is data for :class:`repro.experiments.grid.GridRunner`:
query builder and its arguments, streams, the x sweep (full and
``--quick``), strategies, rates, config, printed columns and the claim
the row supports.  ``FIGURES`` maps each row's name to it; change a row
for a smaller run with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from typing import Dict, Tuple

from repro.cep.patterns.policies import SelectionPolicy
from repro.experiments import workloads
from repro.experiments.common import R1, R2, ExperimentConfig, QualityOutcome
from repro.experiments.grid import Column, FigureSpec, call
from repro.queries import build_q1, build_q2, build_q3, build_q4

SOCCER = call(workloads.soccer_streams)
STOCK_Q2 = call(workloads.stock_streams_q2, symbols=50)


def x_value(point: QualityOutcome) -> object:
    return point.x


def fn(point: QualityOutcome) -> str:
    return f"{point.fn_pct:.1f}"


def fp(point: QualityOutcome) -> str:
    return f"{point.fp_pct:.1f}"


def ms(value: float) -> str:
    return f"{value * 1000:.0f}"


def pivot(x_header: str, metric: str) -> Tuple[Column, ...]:
    """x, then eSPICE and BL at R1 and R2: the Fig. 5/6 layout."""
    cell = fn if metric == "fn" else fp
    return (Column(x_header, x_value),) + tuple(
        Column(f"{s}@R{r:.1f} %{metric.upper()}", cell, s, r)
        for s, r in product(("bl", "espice"), (R1, R2))
    )


def by_rate(x_header: str, x_cell=x_value) -> Tuple[Column, ...]:
    """x, then eSPICE's FN at R1 and R2: the Fig. 8/9 layout."""
    return (
        Column(x_header, x_cell),
        Column("R1 %FN", fn, "espice", R1),
        Column("R2 %FN", fn, "espice", R2),
    )


QUALITY = (
    Column("%FN", fn),
    Column("%FP", fp),
    Column("%drop", lambda p: f"{100 * p.drop_ratio:.1f}"),
    Column("LB violations", lambda p: p.latency.violations),
    Column("p99 (ms)", lambda p: ms(p.latency.p99)),
)

PARTITIONINGS = {
    None: "paper (buffer-derived rho)",
    1: "single whole-window CDT (rho=1)",
    10_000: "per-position partitions (rho=N)",
}


def _fig5_q1(selection: SelectionPolicy) -> FigureSpec:
    return FigureSpec(
        name=f"fig5_q1_{selection.value}",
        title=f"Fig5 Q1 ({selection.value} selection)",
        claim="eSPICE loses fewer Q1 matches than BL at every pattern size and rate.",
        query=call(build_q1, window_seconds=15.0, selection=selection),
        streams=SOCCER,
        vary=("pattern_size",),
        xs=(2, 3, 4, 5, 6),
        quick_xs=(2, 4, 6),
        columns=pivot("pattern size", "fn"),
    )


def _fig5_q2(selection: SelectionPolicy) -> FigureSpec:
    return FigureSpec(
        name=f"fig5_q2_{selection.value}",
        title=f"Fig5 Q2 ({selection.value} selection)",
        claim="eSPICE keeps Q2 false negatives an order of magnitude below BL's.",
        query=call(build_q2, window_seconds=240.0, symbols=50, selection=selection),
        streams=STOCK_Q2,
        vary=("pattern_size",),
        xs=(5, 10, 15, 20, 25),
        quick_xs=(5, 15),
        columns=pivot("pattern size", "fn"),
    )


FIG5_Q1_FIRST = _fig5_q1(SelectionPolicy.FIRST)
FIG5_Q3 = FigureSpec(
    name="fig5_q3",
    title="Fig5 Q3 (first selection)",
    claim="eSPICE's Q3 false negatives are almost zero; BL's are large.",
    query=call(build_q3),
    streams=call(workloads.stock_streams_q3),
    vary=("window_events",),
    xs=(100, 200, 300, 400),
    quick_xs=(100, 300),
    columns=pivot("window size", "fn"),
)

TABLE: Tuple[FigureSpec, ...] = (
    FIG5_Q1_FIRST,
    _fig5_q1(SelectionPolicy.LAST),
    _fig5_q2(SelectionPolicy.FIRST),
    _fig5_q2(SelectionPolicy.LAST),
    FIG5_Q3,
    FigureSpec(
        name="fig5_q4",
        title="Fig5 Q4 (first selection)",
        claim="Repetition in the pattern (Q4) does not hurt eSPICE.",
        query=call(build_q4, slide_events=100),
        streams=call(workloads.stock_streams_q4),
        vary=("window_events",),
        xs=(300, 400, 500, 600),
        quick_xs=(300, 500),
        columns=pivot("window size", "fn"),
    ),
    replace(
        FIG5_Q1_FIRST,
        name="fig6_q1",
        title="Fig6 Q1 false positives (first selection)",
        claim="eSPICE creates fewer false Q1 matches than BL.",
        columns=pivot("pattern size", "fp"),
    ),
    replace(
        FIG5_Q3,
        name="fig6_q3",
        title="Fig6 Q3 false positives (first selection)",
        claim="eSPICE's Q3 false positives are about zero; BL's grow with the window.",
        columns=pivot("window size", "fp"),
    ),
    FigureSpec(
        name="fig7",
        title="Fig7 latency under overload",
        claim="eSPICE holds event latency under the 1 s bound at R1 and R2.",
        query=call(build_q1),
        streams=SOCCER,
        vary=("pattern_size",),
        xs=(4,),
        quick_xs=(4,),
        strategies=("espice",),
        columns=(
            Column("rate", lambda p: f"R={p.rate_factor:.1f}"),
            Column("mean (ms)", lambda p: ms(p.latency.mean)),
            Column("p99 (ms)", lambda p: ms(p.latency.p99)),
            Column("max (ms)", lambda p: ms(p.latency.maximum)),
            Column("violations", lambda p: p.latency.violations),
            Column("bound (ms)", lambda p: ms(p.latency.bound)),
        ),
        footer=lambda p: f"timeline R={p.rate_factor:.1f}: "
        + "  ".join(f"{t:.0f}s:{ms(latency)}ms" for t, latency in p.timeline[:15]),
    ),
    FigureSpec(
        name="fig8_q1",
        title="Fig8a Q1 variable window size",
        claim="Q1 quality is only mildly influenced by the shedding-time window size.",
        query=call(build_q1, pattern_size=5),
        streams=SOCCER,
        vary=("window_seconds",),
        xs=(12.0, 14.0, 16.0, 18.0, 20.0),
        quick_xs=(12.0, 16.0, 20.0),
        strategies=("espice",),
        columns=by_rate("window %", lambda p: round(100 * p.x / 16.0)),
        mixed_window=True,
    ),
    FigureSpec(
        name="fig8_q2",
        title="Fig8b Q2 variable window size",
        claim="Q2 quality is best at the reference window size.",
        query=call(build_q2, pattern_size=10, symbols=50),
        streams=STOCK_Q2,
        vary=("window_seconds",),
        xs=(180.0, 200.0, 240.0, 260.0, 300.0),
        quick_xs=(180.0, 240.0, 300.0),
        strategies=("espice",),
        columns=by_rate("window %", lambda p: round(100 * p.x / 240.0)),
        mixed_window=True,
    ),
    FigureSpec(
        name="fig9_q1",
        title="Fig9a Q1 bin size",
        claim="Q1 quality stays usable over two orders of magnitude of bin size.",
        query=call(build_q1, pattern_size=5, window_seconds=15.0),
        streams=SOCCER,
        vary=("bin_size",),
        xs=(1, 2, 4, 8, 16, 32, 64),
        quick_xs=(1, 8, 64),
        strategies=("espice",),
        columns=by_rate("bin size"),
    ),
    FigureSpec(
        name="fig9_q2",
        title="Fig9b Q2 bin size",
        claim="Q2 quality stays usable over two orders of magnitude of bin size.",
        query=call(build_q2, pattern_size=20, window_seconds=240.0, symbols=50),
        streams=STOCK_Q2,
        vary=("bin_size",),
        xs=(1, 2, 4, 8, 16, 32, 64),
        quick_xs=(1, 8, 64),
        strategies=("espice",),
        columns=by_rate("bin size"),
    ),
    FigureSpec(
        # severe overload on purpose: at R1/R2 the drop demand fits in
        # every partition's zero-utility population, so all
        # partitionings choose threshold 0 and tie; under severe demand
        # the partition size is the quality dial of paper §3.4
        name="ablation_partitioning",
        title="Ablation: dropping interval (partitioning)",
        claim="Per-position partitions must shed regardless of utility and lose quality.",
        query=call(build_q1, pattern_size=4),
        streams=SOCCER,
        vary=("partition_override",),
        xs=tuple(PARTITIONINGS),
        quick_xs=tuple(PARTITIONINGS),
        strategies=("espice",),
        rates=(2.5,),
        columns=(Column("config", lambda p: PARTITIONINGS[p.x]),) + QUALITY,
    ),
    FigureSpec(
        name="ablation_f",
        title="Ablation: f value sweep",
        claim="Every f keeps the latency bound; f trades quality for headroom.",
        query=call(build_q1, pattern_size=4),
        streams=SOCCER,
        vary=("f",),
        xs=(0.5, 0.6, 0.7, 0.8, 0.9, 0.95),
        quick_xs=(0.5, 0.8, 0.95),
        strategies=("espice",),
        rates=(R1,),
        columns=(Column("config", lambda p: f"f={p.x:.2f}"),) + QUALITY,
    ),
    FigureSpec(
        # a short burst at 3x throughput over a sustainable 0.8x: a high
        # f absorbs it without shedding, a low f sheds needlessly; a
        # sustained burst forces everyone to shed (paper §3.4)
        name="burst",
        title="Burst absorption vs f",
        claim="A high f sheds far less on a short burst, at no quality cost.",
        query=call(build_q1, pattern_size=3),
        streams=SOCCER,
        vary=("burst_seconds", "f"),
        xs=tuple(product((0.3, 6.0), (0.5, 0.8, 0.95))),
        quick_xs=tuple(product((0.3, 6.0), (0.5, 0.8))),
        strategies=("espice",),
        rates=(3.0,),
        config=ExperimentConfig(bin_size=8),
        burst_base=0.8,
        columns=(
            Column("burst (s)", lambda p: f"{p.x[0]:.1f}"),
            Column("f", lambda p: f"{p.x[1]:.2f}"),
            Column("dropped", lambda p: p.dropped_memberships),
            Column("%FN", fn),
            Column("LB violations", lambda p: p.latency.violations),
            Column("max lat (ms)", lambda p: ms(p.latency.maximum)),
        ),
    ),
)

FIGURES: Dict[str, FigureSpec] = {spec.name: spec for spec in TABLE}
