"""Choosing an appropriate ``f`` value (paper §3.4).

A high ``f`` avoids shedding on short bursts but shrinks the buffer
``qmax − f·qmax`` and hence the partition size; too-small partitions
may contain only high-utility events, forcing quality-damaging drops.

The paper proposes clustering the utilities in ``UT`` into importance
classes and choosing the largest ``f`` whose induced partitioning still
guarantees at least ``x`` *low-class* events per partition.  This
module implements that procedure with a 1-D k-means over the utility
values present in the table, weighted by their position shares.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.cdt import build_partition_cdts
from repro.core.model import UtilityModel
from repro.core.partitions import plan_partitions

DEFAULT_CANDIDATES: Tuple[float, ...] = (0.95, 0.9, 0.85, 0.8, 0.7, 0.6, 0.5)


def cluster_utilities_1d(
    values: Sequence[float],
    weights: Optional[Sequence[float]] = None,
    classes: int = 3,
    iterations: int = 50,
) -> List[int]:
    """Weighted 1-D k-means; returns the cluster index of each value.

    Clusters are ordered by centre, so index 0 is the lowest-utility
    class.  Degenerate inputs (fewer distinct values than classes)
    yield fewer effective clusters.
    """
    if not values:
        return []
    if classes <= 0:
        raise ValueError("need at least one class")
    if weights is None:
        weights = [1.0] * len(values)
    if len(weights) != len(values):
        raise ValueError("weights must align with values")

    distinct = sorted(set(values))
    k = min(classes, len(distinct))
    # seed centres evenly over the distinct values
    centres = [distinct[int(i * (len(distinct) - 1) / max(k - 1, 1))] for i in range(k)]

    assignment = [0] * len(values)
    for _round in range(iterations):
        changed = False
        for i, value in enumerate(values):
            nearest = min(range(k), key=lambda c: abs(value - centres[c]))
            if nearest != assignment[i]:
                assignment[i] = nearest
                changed = True
        for c in range(k):
            total_weight = sum(
                weights[i] for i in range(len(values)) if assignment[i] == c
            )
            if total_weight > 0.0:
                centres[c] = (
                    sum(
                        values[i] * weights[i]
                        for i in range(len(values))
                        if assignment[i] == c
                    )
                    / total_weight
                )
        if not changed:
            break
    # re-order clusters by centre so index 0 = lowest utility
    order = sorted(range(k), key=lambda c: centres[c])
    rank = {cluster: index for index, cluster in enumerate(order)}
    return [rank[a] for a in assignment]


def low_class_boundary(model: UtilityModel, classes: int = 3) -> int:
    """Largest utility value belonging to the lowest importance class.

    Returns -1 when the table has no distinguishable low class (every
    cell carries the same positive utility): dropping anything then
    costs quality, and no partitioning can guarantee cheap events.
    """
    values: List[float] = []
    weights: List[float] = []
    for type_name in model.table.type_ids:
        for bin_index in range(model.table.bins):
            values.append(float(model.table.cell(type_name, bin_index)))
            weights.append(model.shares.share(type_name, bin_index))
    if not values:
        return 0
    distinct = set(values)
    if len(distinct) == 1:
        only = distinct.pop()
        return 0 if only == 0.0 else -1
    assignment = cluster_utilities_1d(values, weights, classes)
    low_values = [v for v, a in zip(values, assignment) if a == 0]
    return int(max(low_values)) if low_values else 0


def select_f(
    model: UtilityModel,
    qmax: float,
    expected_x_per_second: float,
    input_rate: float,
    candidates: Sequence[float] = DEFAULT_CANDIDATES,
    classes: int = 3,
) -> float:
    """Largest candidate ``f`` keeping ≥ ``x`` low-class events/partition.

    Parameters
    ----------
    model:
        Trained utility model.
    qmax:
        ``LB / l(p)`` -- maximum tolerable queue size.
    expected_x_per_second:
        Anticipated surplus event rate ``δ = R − th`` the shedder will
        have to remove (events/second).
    input_rate:
        Anticipated input rate ``R`` (events/second), to convert the
        partition size to seconds.
    candidates:
        ``f`` values to try, best (largest) first.

    Falls back to the smallest candidate when none satisfies the
    low-class criterion.
    """
    if qmax <= 0.0:
        raise ValueError("qmax must be positive")
    if input_rate <= 0.0:
        raise ValueError("input rate must be positive")
    boundary = low_class_boundary(model, classes)
    ordered = sorted(candidates, reverse=True)
    for f in ordered:
        plan = plan_partitions(model.reference_size, qmax, f)
        x = expected_x_per_second * plan.partition_size / input_rate
        if x <= 0.0:
            return f
        if boundary < 0:
            continue  # no low-utility class exists at any partitioning
        cdts = build_partition_cdts(model.table, model.shares, plan)
        if all(cdt.value(boundary) >= x for cdt in cdts):
            return f
    return ordered[-1]


def effective_f(
    model: Optional[UtilityModel],
    latency_bound: float,
    configured_f: Optional[float],
    expected_processing_latency: Optional[float],
    expected_input_rate: Optional[float],
) -> float:
    """The configured ``f``, or the auto-selected one when unset.

    Single home of the guard/selection logic of a
    :mod:`repro.pipeline` deployment: a configured ``f`` wins outright;
    automatic selection (paper §3.4) needs a trained model plus
    expected processing latency / input rate hints and derives
    ``qmax`` and the surplus rate from them before delegating to
    :func:`select_f`.
    """
    if configured_f is not None:
        return configured_f
    if expected_processing_latency is None or expected_input_rate is None:
        raise ValueError("automatic f selection needs fixed latency and rate hints")
    if model is None:
        raise ValueError("automatic f selection needs a trained model")
    if expected_processing_latency <= 0.0:
        raise ValueError("processing latency must be positive to select f")
    qmax = latency_bound / expected_processing_latency
    throughput = 1.0 / expected_processing_latency
    surplus = max(0.0, expected_input_rate - throughput)
    return select_f(model, qmax, surplus, expected_input_rate)
