"""Position scaling: mapping window positions onto the utility table.

The utility table has a fixed number of *reference* positions ``N``
(the average seen window size), grouped into bins of ``bs`` neighbouring
positions (paper §3.6).  Incoming windows may be larger or smaller than
``N``; an event at position ``P`` of a window of size ``ws`` is mapped
to reference positions via the scaling factor ``sf = ws / N``:

- ``ws > N`` (scale down): several window positions share one reference
  position;
- ``ws < N`` (scale up): one window position covers several reference
  positions, and the event's utility is the *average* of the covered
  cells.

All of that reduces to: position ``P`` covers the reference interval
``[P/sf, (P+1)/sf)``, which in turn covers a contiguous range of bins.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple


def bin_count(reference_size: int, bin_size: int) -> int:
    """Number of bins covering ``reference_size`` positions."""
    if reference_size <= 0:
        raise ValueError("reference size must be positive")
    if bin_size <= 0:
        raise ValueError("bin size must be positive")
    return math.ceil(reference_size / bin_size)


def scale_position(
    position: int, window_size: float, reference_size: int
) -> Tuple[float, float]:
    """Reference-position interval ``[lo, hi)`` covered by ``position``.

    ``window_size`` is the (possibly predicted, hence float) size of the
    incoming window.  With ``window_size <= 0`` the window size is
    unknown; the position is passed through unscaled and clamped.
    """
    if position < 0:
        raise ValueError("position must be non-negative")
    if window_size <= 0.0:
        lo = float(min(position, reference_size - 1))
        return lo, lo + 1.0
    factor = reference_size / window_size  # = 1 / sf
    lo = position * factor
    hi = (position + 1) * factor
    # clamp into [0, reference_size)
    lo = min(lo, reference_size - 1e-9)
    hi = min(max(hi, lo + 1e-9), float(reference_size))
    return lo, hi


def position_to_bins(
    position: int, window_size: float, reference_size: int, bin_size: int
) -> Tuple[int, int]:
    """Inclusive bin range ``(first_bin, last_bin)`` covered by a position."""
    lo, hi = scale_position(position, window_size, reference_size)
    first = int(lo) // bin_size
    last = int(math.ceil(hi) - 1) // bin_size
    top = bin_count(reference_size, bin_size) - 1
    return min(first, top), min(max(last, first), top)


def bin_of_reference_position(
    reference_position: int, reference_size: int, bin_size: int
) -> int:
    """Bin index of an exact reference position (training-time mapping)."""
    if not 0 <= reference_position < reference_size:
        reference_position = min(max(reference_position, 0), reference_size - 1)
    return reference_position // bin_size


def reference_position(
    position: int, window_size: float, reference_size: int
) -> int:
    """Single representative reference position for ``position``.

    Used at training time, where a point mapping is sufficient (the
    paper maps each window position to one UT position when building
    the model).
    """
    lo, _hi = scale_position(position, window_size, reference_size)
    return min(int(lo), reference_size - 1)


# ----------------------------------------------------------------------
# batch-level scaling (the vectorized shedding kernel's fallback path)
# ----------------------------------------------------------------------
def reference_positions_batch(
    positions: Sequence[int], window_size: float, reference_size: int
) -> List[int]:
    """``int(scale_position(p, ws, N)[0])`` for every position at once.

    One pass with the scaling factor hoisted out of the loop; produces
    exactly the per-position values of the scalar function (used by the
    shedding kernel's partition computation).
    """
    if window_size <= 0.0:
        top = reference_size - 1
        return [position if position < top else top for position in positions]
    factor = reference_size / window_size
    clamp = reference_size - 1e-9
    return [
        int(lo if (lo := position * factor) < clamp else clamp)
        for position in positions
    ]


def positions_to_bins_batch(
    positions: Sequence[int],
    window_size: float,
    reference_size: int,
    bin_size: int,
) -> List[Tuple[int, int]]:
    """Inclusive bin ranges for a batch of positions (one pass).

    Bit-identical to calling :func:`position_to_bins` per position,
    with the scaling factor and clamps hoisted out of the loop.
    """
    top = bin_count(reference_size, bin_size) - 1
    if window_size <= 0.0:
        return [position_to_bins(p, window_size, reference_size, bin_size)
                for p in positions]
    factor = reference_size / window_size
    lo_clamp = reference_size - 1e-9
    hi_clamp = float(reference_size)
    ceil = math.ceil
    out: List[Tuple[int, int]] = []
    for position in positions:
        lo = position * factor
        hi = (position + 1) * factor
        if lo > lo_clamp:
            lo = lo_clamp
        lo_eps = lo + 1e-9
        if hi < lo_eps:
            hi = lo_eps
        if hi > hi_clamp:
            hi = hi_clamp
        first = int(lo) // bin_size
        last = int(ceil(hi) - 1) // bin_size
        out.append((min(first, top), min(max(last, first), top)))
    return out

