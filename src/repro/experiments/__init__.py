"""Experiment runners -- one module per paper table/figure.

Each runner returns plain dataclasses with a ``rows()`` method that
prints the same series the paper's figure plots; the benchmarks in
``benchmarks/`` are generated from these runners.

- :mod:`repro.experiments.common` -- shared machinery: build streams,
  train models, run one (strategy, rate) quality point.
- :mod:`repro.experiments.fig5` -- %false negatives, Q1/Q2/Q3/Q4.
- :mod:`repro.experiments.fig6` -- %false positives, Q1/Q3.
- :mod:`repro.experiments.fig7` -- latency timeline under R1/R2.
- :mod:`repro.experiments.fig8` -- variable window size impact.
- :mod:`repro.experiments.fig9` -- bin size impact.
- :mod:`repro.experiments.fig10` -- load-shedder overhead.
- :mod:`repro.experiments.ablation` -- design-choice ablations
  (partitioned CDT, position shares, f sweep).
"""

from repro.experiments.common import (
    ExperimentConfig,
    QualityOutcome,
    R1,
    R2,
    run_quality_point,
)

__all__ = [
    "ExperimentConfig",
    "QualityOutcome",
    "R1",
    "R2",
    "run_quality_point",
]
