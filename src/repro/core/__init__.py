"""eSPICE: the paper's contribution -- probabilistic load shedding.

The public entry point of the project is :mod:`repro.pipeline`
(``Pipeline.builder() ... .build()``); the pieces below are the
building blocks it composes.

Building blocks
---------------

- :class:`~repro.core.model.UtilityModel` /
  :class:`~repro.core.model.ModelBuilder` -- the learned model: the
  utility table ``UT(T, P)``, position shares ``S(T, P)`` and
  per-partition ``CDT`` tables (paper §3.2--§3.3).
- :class:`~repro.core.shedder.ESpiceShedder` -- the O(1) load shedder
  (Algorithm 2).
- :class:`~repro.core.overload.OverloadDetector` -- queue monitoring,
  ``qmax``/``f`` logic and drop-amount computation (paper §3.4).
- :func:`~repro.core.fvalue.select_f` -- utility-clustering based
  choice of the ``f`` parameter (paper §3.4, "appropriate f value").
"""

from repro.core.adaptive import AdaptiveController, RetrainEvent
from repro.core.cdt import CDT, build_cdt
from repro.core.drift import DriftDetector, DriftStatus
from repro.core.fvalue import select_f
from repro.core.model import ModelBuilder, UtilityModel
from repro.core.overload import OverloadDetector, OverloadSample
from repro.core.partitions import PartitionPlan, plan_partitions
from repro.core.persistence import load_model, save_model
from repro.core.position_shares import PositionShares
from repro.core.shedder import ESpiceShedder
from repro.core.utility_table import UtilityTable

__all__ = [
    "AdaptiveController",
    "CDT",
    "DriftDetector",
    "DriftStatus",
    "RetrainEvent",
    "ESpiceShedder",
    "ModelBuilder",
    "OverloadDetector",
    "OverloadSample",
    "PartitionPlan",
    "PositionShares",
    "UtilityModel",
    "UtilityTable",
    "build_cdt",
    "load_model",
    "plan_partitions",
    "save_model",
    "select_f",
]
