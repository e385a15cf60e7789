"""Executable spec of eSPICE's shedding decision (paper §3.2-§3.6).

The one oracle the shedding kernel's backends are held to.  It is
written naively, pair by pair, from the paper's rule:

    drop  ⇔  UT(T, scaled(P)) ≤ uth(partition(scaled(P)))

It reads only what a trained model holds -- the utility cells, the
type ids, the position shares, the reference window size ``N`` and the
bin size -- and shares no code with ``repro.core.scaling``, ``cdt``,
``partitions`` or ``kernel``, nor with ``UtilityTable.utility``.  The
float expressions are written in the same order as the implementation
(``p * N / ws`` and ``p * (N / ws)`` round differently), because a
threshold compare may sit exactly on a float boundary.
"""

import math
from typing import List, NamedTuple, Sequence

MAX_UTILITY = 100
#: Clamp of a scaled position just below ``N`` (paper §3.6: a position
#: covers the half-open reference interval ``[lo, hi)``).
EPSILON = 1e-9


class Decision(NamedTuple):
    """The rule's inputs and outcome for one (event, window) pair."""

    utility: int
    partition: int
    threshold: int
    drop: bool


# ----------------------------------------------------------------------
# the model, as plain data
# ----------------------------------------------------------------------
def cells(model) -> dict:
    """``{type name: [utility per bin]}``."""
    matrix = model.table.as_matrix()
    return {name: matrix[row] for name, row in model.table.type_ids.items()}


def bin_count(model) -> int:
    return -(-model.reference_size // model.bin_size)


# ----------------------------------------------------------------------
# Algorithm 1 + Algorithm 2, lines 1-7: thresholds per partition
# ----------------------------------------------------------------------
def partitioning(model, command) -> tuple:
    """``(ρ, psize)`` of a drop command, in reference positions."""
    count = max(1, command.partition_count)
    if command.partition_size > 0:
        return count, command.partition_size
    return count, model.reference_size / count


def partition_of_bin(model, bin_index: int, count: int, psize: float) -> int:
    """A bin belongs to the partition holding its centre position."""
    if count <= 1:
        return 0
    centre = bin_index * model.bin_size + model.bin_size / 2.0
    return min(max(int(centre / psize), 0), count - 1)


def cdt(model, partition: int, count: int, psize: float) -> List[float]:
    """``CDT(u)``: expected events per window partition with utility ≤ u.

    Every cell of the partition adds its share ``S(T, bin)`` to the
    occurrence count of its utility; the counts then accumulate over
    ascending utility.
    """
    occurrences = [0.0] * (MAX_UTILITY + 1)
    table = cells(model)
    for name in model.table.type_ids:
        for bin_index in range(bin_count(model)):
            if partition_of_bin(model, bin_index, count, psize) == partition:
                occurrences[table[name][bin_index]] += model.shares.share(
                    name, bin_index
                )
    cumulative, running = [], 0.0
    for value in occurrences:
        running += value
        cumulative.append(running)
    return cumulative


def threshold(cumulative: Sequence[float], x: float) -> int:
    """``uth``: the smallest ``u`` with ``CDT(u) ≥ x``.

    ``x ≤ 0`` drops nothing (-1: no utility is ≤ -1); if the whole
    partition holds fewer than ``x`` events, everything goes (100).
    """
    if x <= 0.0:
        return -1
    for utility, value in enumerate(cumulative):
        if value >= x:
            return utility
    return MAX_UTILITY


def thresholds(model, command) -> List[int]:
    """``uth(part)`` for every partition of the command."""
    count, psize = partitioning(model, command)
    return [
        threshold(cdt(model, part, count, psize), command.x)
        for part in range(count)
    ]


# ----------------------------------------------------------------------
# Algorithm 2, lines 8-17: one pair
# ----------------------------------------------------------------------
def scaled(model, position: int, window_size: float) -> tuple:
    """``(reference position, covered bins)`` of a window position.

    - ``N - 1 ≤ ws ≤ N + 1`` (near identity): the position is only
      clamped into the reference window;
    - ``ws > N + 1`` (scale down): several window positions share one
      reference position;
    - ``ws < N - 1`` (scale up): the position covers the reference
      interval ``[lo, hi)``, possibly several bins.
    """
    n, bs = model.reference_size, model.bin_size
    if n - 1.0 <= window_size <= n + 1.0:
        ref = min(position, n - 1)
        return ref, [ref // bs]
    if window_size > n + 1.0:
        ref = min(int(position * n / window_size), n - 1)
        return ref, [ref // bs]
    factor = n / window_size
    lo = min(position * factor, n - EPSILON)
    hi = min(max((position + 1) * factor, lo + EPSILON), float(n))
    top = bin_count(model) - 1
    first = min(int(lo) // bs, top)
    last = min(max((math.ceil(hi) - 1) // bs, first), top)
    return int(lo), list(range(first, last + 1))


def average(values: Sequence[int]) -> int:
    """Mean of the covered cells, rounded half to even (paper §3.6)."""
    return round(sum(values) / len(values))


def decide(model, uth: Sequence[int], command, event, position: int,
           predicted_ws: float) -> Decision:
    """The rule for one pair under installed thresholds ``uth``.

    An unknown window size (``predicted_ws ≤ 0``) is taken to be ``N``;
    an unknown type has utility 0 (no evidence it ever contributed).
    """
    window_size = predicted_ws if predicted_ws > 0 else model.reference_size
    ref, bins = scaled(model, position, window_size)
    row = cells(model).get(event.event_type)
    utility = 0 if row is None else average([row[b] for b in bins])
    count, psize = partitioning(model, command)
    partition = min(int(ref / psize), count - 1)
    return Decision(utility, partition, uth[partition], utility <= uth[partition])


def decisions(model, command, events, positions, predicted_ws) -> List[Decision]:
    """The rule for a batch of pairs of one window prediction."""
    uth = thresholds(model, command)
    return [
        decide(model, uth, command, event, position, predicted_ws)
        for event, position in zip(events, positions)
    ]


def drop_mask(model, command, events, positions, predicted_ws) -> List[bool]:
    return [d.drop for d in decisions(model, command, events, positions, predicted_ws)]


# ----------------------------------------------------------------------
# the drift detector's lookup (not the decision)
# ----------------------------------------------------------------------
def table_utility(model, type_name: str, position: int, window_size: float) -> int:
    """``UtilityTable.utility``: what the drift detector scores against.

    It scales by ``N / ws`` for every known ``ws > 0`` -- also inside
    ``N ± 1``, where the decision only clamps -- so it can differ from
    :func:`decide`'s utility there.  Aligning the two would move
    adaptive retraining, so the difference is recorded here, not fixed.
    """
    row = cells(model).get(type_name)
    if row is None:
        return 0
    n, bs = model.reference_size, model.bin_size
    if window_size <= 0.0:
        lo = float(min(position, n - 1))
        hi = lo + 1.0
    else:
        factor = n / window_size
        lo = min(position * factor, n - EPSILON)
        hi = min(max((position + 1) * factor, lo + EPSILON), float(n))
    top = bin_count(model) - 1
    first = min(int(lo) // bs, top)
    last = min(max((math.ceil(hi) - 1) // bs, first), top)
    return average(row[first : last + 1])
