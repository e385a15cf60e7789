"""The paper's evaluation (§4): one figure table, one memoising runner.

Every simulated figure is one protocol -- train, overload at R1/R2,
compare with the ground truth -- over a different sweep, so each is a
row of data and one runner interprets them all.

- :mod:`repro.experiments.common` -- the protocol: one (strategy, rate)
  quality point (:func:`run_quality_point`) and its outcome.
- :mod:`repro.experiments.grid` -- :class:`FigureSpec` rows and the
  :class:`GridRunner` that computes each model, truth and point once.
- :mod:`repro.experiments.figures` -- the table: Fig. 5--9, the
  partitioning and f ablations, burst absorption.
- :mod:`repro.experiments.fig10` -- load-shedder overhead (wall clock).
- :mod:`repro.experiments.ablation` -- position shares in the CDT.
- :mod:`repro.experiments.workloads` -- the scaled-down streams.
- :mod:`repro.experiments.run_all` -- the command line.
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
