"""Position-shares ablation of eSPICE's CDT.

Counting each utility cell as a full occurrence (ignoring ``S(T, P)``)
over-estimates the number of droppable events per window and
under-drops.  The other two ablations (partitioned vs whole-window CDT,
the f sweep) are rows of :mod:`repro.experiments.figures`; this one
simulates nothing: it is CDT arithmetic on one trained model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.cdt import build_partition_cdts
from repro.core.partitions import plan_partitions
from repro.core.position_shares import PositionShares
from repro.experiments.common import ExperimentConfig, format_rows
from repro.experiments.figures import SOCCER
from repro.experiments.grid import GridRunner, call
from repro.queries import build_q1


@dataclass
class SharesAblationRow:
    """Threshold accuracy with vs without learned position shares."""

    label: str
    commanded_x: float
    expected_drops: float  # CDT-predicted drops at the chosen threshold


@dataclass
class SharesAblationResult:
    """Comparison of CDT calibration strategies."""

    title: str
    rows_data: List[SharesAblationRow] = field(default_factory=list)

    def rows(self) -> str:
        header = ["config", "commanded x", "CDT drops at threshold"]
        body = [
            [r.label, f"{r.commanded_x:.1f}", f"{r.expected_drops:.1f}"]
            for r in self.rows_data
        ]
        return f"{self.title}\n" + format_rows(header, body)


def ablation_position_shares(
    pattern_size: int = 4,
    drop_fraction: float = 0.2,
    config: Optional[ExperimentConfig] = None,
    runner: Optional[GridRunner] = None,
) -> SharesAblationResult:
    """Learned ``S(T,P)`` vs counting every cell as a full occurrence.

    Full-occurrence counting inflates the CDT (each position counts
    once per *type* instead of summing to one event), so the threshold
    search stops at a lower utility than needed and under-drops.  The
    comparison reports the expected drops per partition at the chosen
    threshold for the same commanded ``x``.  The model (bin size 1) is
    ``runner``'s, so a sweep that trained it already shares it.
    """
    cfg = config or ExperimentConfig()
    query = call(build_q1, pattern_size=pattern_size)
    model = (runner or GridRunner()).model((query,), SOCCER, 1)
    plan = plan_partitions(
        model.reference_size, cfg.latency_bound * cfg.throughput, cfg.f
    )
    x = drop_fraction * plan.partition_size

    learned_cdts = build_partition_cdts(model.table, model.shares, plan)
    ones = PositionShares.uniform(
        model.table.type_ids, model.reference_size, model.bin_size
    )
    # full occurrence = every (type, bin) cell counts 1.0, i.e. uniform
    # shares scaled by the number of types
    for row in ones._counts:  # test-only poke, documented ablation
        for index in range(len(row)):
            row[index] = float(model.bin_size)
    full_cdts = build_partition_cdts(model.table, ones, plan)

    result = SharesAblationResult(title="Ablation: position shares in the CDT")
    for label, cdts in (("learned shares", learned_cdts), ("full occurrences", full_cdts)):
        threshold = cdts[0].threshold_for(x)
        expected = learned_cdts[0].value(max(threshold, 0)) if threshold >= 0 else 0.0
        result.rows_data.append(
            SharesAblationRow(
                label=label, commanded_x=x, expected_drops=expected
            )
        )
    return result
