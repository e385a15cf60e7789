"""Regenerate every paper table/figure from the command line.

Usage::

    python -m repro.experiments.run_all              # everything
    python -m repro.experiments.run_all fig5 fig7    # a subset
    python -m repro.experiments.run_all --quick      # reduced sweeps

Prints the same series the benchmarks assert on.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List

from repro.cep.patterns.policies import SelectionPolicy
from repro.experiments.ablation import (
    ablation_f_sweep,
    ablation_partitioning,
    ablation_position_shares,
)
from repro.experiments.fig5 import fig5_q1, fig5_q2, fig5_q3, fig5_q4
from repro.experiments.fig6 import fig6_q1, fig6_q3
from repro.experiments.fig7 import fig7_latency
from repro.experiments.fig8 import fig8_q1, fig8_q2
from repro.experiments.fig9 import fig9_q1, fig9_q2
from repro.experiments.burst import burst_experiment
from repro.experiments.fig10 import fig10_overhead


def _fig5(quick: bool) -> List[str]:
    q1_sizes = (2, 4, 6) if quick else (2, 3, 4, 5, 6)
    q2_sizes = (5, 15) if quick else (5, 10, 15, 20, 25)
    q34_sizes = (100, 300) if quick else (100, 200, 300, 400)
    q4_sizes = (300, 500) if quick else (300, 400, 500, 600)
    out = [
        fig5_q1(q1_sizes, SelectionPolicy.FIRST).rows("fn"),
        fig5_q1(q1_sizes, SelectionPolicy.LAST).rows("fn"),
        fig5_q2(q2_sizes, SelectionPolicy.FIRST).rows("fn"),
        fig5_q2(q2_sizes, SelectionPolicy.LAST).rows("fn"),
        fig5_q3(q34_sizes).rows("fn"),
        fig5_q4(q4_sizes).rows("fn"),
    ]
    return out


def _fig6(quick: bool) -> List[str]:
    q1_sizes = (2, 4, 6) if quick else (2, 3, 4, 5, 6)
    q3_sizes = (100, 300) if quick else (100, 200, 300, 400)
    return [fig6_q1(q1_sizes).rows("fp"), fig6_q3(q3_sizes).rows("fp")]


def _fig7(quick: bool) -> List[str]:
    result = fig7_latency()
    lines = [result.rows()]
    for run in result.runs:
        series = "  ".join(
            f"{t:.0f}s:{latency * 1000:.0f}ms" for t, latency in run.timeline[:15]
        )
        lines.append(f"timeline R={run.rate_factor:.1f}: {series}")
    return ["\n".join(lines)]


def _fig8(quick: bool) -> List[str]:
    sizes_q1 = (12.0, 16.0, 20.0) if quick else (12.0, 14.0, 16.0, 18.0, 20.0)
    sizes_q2 = (180.0, 240.0, 300.0) if quick else (180.0, 200.0, 240.0, 260.0, 300.0)
    return [
        fig8_q1(window_seconds=sizes_q1).rows(),
        fig8_q2(window_seconds=sizes_q2).rows(),
    ]


def _fig9(quick: bool) -> List[str]:
    bins = (1, 8, 64) if quick else (1, 2, 4, 8, 16, 32, 64)
    return [fig9_q1(bin_sizes=bins).rows(), fig9_q2(bin_sizes=bins).rows()]


def _fig10(quick: bool) -> List[str]:
    sizes = (120.0, 480.0) if quick else (120.0, 240.0, 480.0, 960.0)
    return [fig10_overhead(window_seconds=sizes).rows()]


def _ablations(quick: bool) -> List[str]:
    f_values = (0.5, 0.8, 0.95) if quick else (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
    return [
        ablation_partitioning().rows(),
        ablation_f_sweep(f_values=f_values).rows(),
        ablation_position_shares().rows(),
    ]


def _burst(quick: bool) -> List[str]:
    f_values = (0.5, 0.8) if quick else (0.5, 0.8, 0.95)
    return [
        burst_experiment(
            f_values=f_values, burst_seconds=(0.3, 6.0), base_factor=0.8
        ).rows()
    ]


RUNNERS: Dict[str, Callable[[bool], List[str]]] = {
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "ablations": _ablations,
    "burst": _burst,
}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "figures",
        nargs="*",
        choices=[*RUNNERS, []],
        help="figures to run (default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced sweeps for a fast pass"
    )
    args = parser.parse_args(argv)
    selected = args.figures or list(RUNNERS)
    for figure in selected:
        start = time.time()
        print(f"=== {figure} " + "=" * (60 - len(figure)))
        for block in RUNNERS[figure](args.quick):
            print(block)
            print()
        print(f"[{figure}: {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
