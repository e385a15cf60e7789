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
from dataclasses import replace
from typing import Dict, List, Tuple

from repro.experiments.ablation import ablation_position_shares
from repro.experiments.fig10 import fig10_overhead
from repro.experiments.figures import FIGURES
from repro.experiments.grid import GridRunner

#: each figure's blocks: rows of the figure table, plus the two
#: measurements that simulate no quality point (fig10, position shares)
RUNNERS: Dict[str, Tuple[str, ...]] = {
    "fig5": (
        "fig5_q1_first",
        "fig5_q1_last",
        "fig5_q2_first",
        "fig5_q2_last",
        "fig5_q3",
        "fig5_q4",
    ),
    "fig6": ("fig6_q1", "fig6_q3"),
    "fig7": ("fig7",),
    "fig8": ("fig8_q1", "fig8_q2"),
    "fig9": ("fig9_q1", "fig9_q2"),
    "fig10": ("fig10",),
    "ablations": ("ablation_partitioning", "ablation_f", "ablation_shares"),
    "burst": ("burst",),
}


def render(block: str, runner: GridRunner, quick: bool) -> str:
    """One printed block, computed through ``runner``'s memo."""
    if block == "fig10":
        sizes = (120.0, 480.0) if quick else (120.0, 240.0, 480.0, 960.0)
        return fig10_overhead(window_seconds=sizes).rows()
    if block == "ablation_shares":
        return ablation_position_shares(runner=runner).rows()
    spec = FIGURES[block]
    if quick:
        spec = replace(spec, xs=spec.quick_xs)
    return runner.run(spec).rows()


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
    runner = GridRunner()
    for figure in selected:
        start = time.time()
        print(f"=== {figure} " + "=" * (60 - len(figure)))
        for block in RUNNERS[figure]:
            print(render(block, runner, args.quick))
            print()
        print(f"[{figure}: {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
