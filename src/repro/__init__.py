"""eSPICE reproduction: probabilistic load shedding for CEP.

A complete Python implementation of "eSPICE: Probabilistic Load
Shedding from Input Event Streams in Complex Event Processing"
(Slo, Bhowmik, Rothermel -- Middleware '19), together with every
substrate the paper's system depends on.

**Public API**: :mod:`repro.pipeline` -- composable middleware-stage
pipelines (``Pipeline.builder().query(q).shedder("espice", f=0.8)
.latency_bound(1.0).build()``) covering training, deployment, live
ingestion, virtual-time overload simulation and hot model retraining.

Subsystems:

- :mod:`repro.pipeline` -- **the public API**: builder, pipeline and
  middleware stages.
- :mod:`repro.cluster` -- the scale-out runtime: sharded multi-process
  execution of a pipeline (window routing, batched IPC transport, a
  coordinator owning the model and coordinated shedding), built via
  ``Pipeline.builder()...distributed(shards=N)``.
- :mod:`repro.cep` -- a window-based CEP engine (events, windows, a
  Tesla/SASE-like pattern language and matcher, the operator).
- :mod:`repro.core` -- eSPICE itself: the utility model, overload
  detector and O(1) load shedder.
- :mod:`repro.shedding` -- the shedder interface, the paper's
  comparators (BL, random) and the named strategy registry.
- :mod:`repro.datasets` -- synthetic stand-ins for the NYSE and RTLS
  soccer datasets.
- :mod:`repro.queries` -- the evaluation queries Q1..Q4.
- :mod:`repro.runtime` -- deterministic virtual-time overload
  simulation (a driver stepping a pipeline), latency and quality
  metrics.
- :mod:`repro.experiments` -- one runner per paper figure.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
