"""The shedding kernel: eSPICE's decision rule, batched (paper §3.5-§3.6).

This module is the only place the rule of Algorithm 2 is computed.
The decision's state -- the utility table rows and the per-partition
thresholds -- is flattened into contiguous arrays once, so a *batch*
of (type, position) pairs resolves to a boolean drop mask in a single
pass:

    drop[i]  ⇔  UT(T_i, scaled(P_i)) ≤ uth(partition(scaled(P_i)))

Two interchangeable backends produce **bit-for-bit identical masks**,
each held to the naive executable spec of eSPICE under ``tests/``:

- ``numpy``: the whole batch is resolved with vectorized array ops;
  auto-selected when NumPy is importable.
- ``fallback``: pure stdlib -- the flattened rows live in one Python
  list and a tight loop with hoisted locals resolves the batch.  No
  third-party dependency, so ``install_requires`` stays empty.

Select explicitly via the ``backend=`` argument or the
``REPRO_KERNEL_BACKEND`` environment variable (``numpy`` |
``fallback``); the default is auto-detection.
"""

from __future__ import annotations

import os
from operator import le
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import scaling

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    _np = None
    HAVE_NUMPY = False

#: Environment variable that forces a backend (``numpy`` | ``fallback``).
BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: Below this batch size the numpy backend routes to the stdlib loop:
#: array construction overhead dominates tiny batches (the two paths
#: are bit-identical, so this is purely a constant-factor choice;
#: measured crossover on CPython 3.11 is ~32-64 pairs).
NUMPY_MIN_BATCH = 32


def default_backend() -> str:
    """The backend a kernel built without ``backend=`` will use."""
    forced = os.environ.get(BACKEND_ENV, "").strip().lower()
    if forced in ("numpy", "fallback"):
        if forced == "numpy" and not HAVE_NUMPY:
            raise RuntimeError(
                f"{BACKEND_ENV}=numpy requested but numpy is not importable"
            )
        return forced
    return "numpy" if HAVE_NUMPY else "fallback"


class SheddingKernel:
    """Flattened utility rows + thresholds with batched drop resolution.

    Parameters
    ----------
    rows:
        The utility matrix, one row of bin utilities per type (the
        order of ``type_ids``).
    type_ids:
        Mapping from type name to row index (``UtilityTable.type_ids``).
    reference / bin_size:
        The model's reference window size ``N`` and bin size -- the one
        ``N`` every position is scaled onto, for both the utility
        lookup and the partition (a :class:`UtilityModel` guarantees
        its table was built with the same values).
    backend:
        ``"numpy"`` | ``"fallback"`` | ``None`` (auto-detect).

    Thresholds arrive separately via :meth:`set_thresholds` (they change
    with every drop command; the flattened rows only change on a model
    swap, which rebuilds the kernel).
    """

    __slots__ = (
        "backend",
        "bins",
        "bin_size",
        "reference",
        "partition_size",
        "partition_count",
        "_type_rows",
        "_unknown_row",
        "_flat",
        "_np_rows",
        "_np_cumrows",
        "_thresholds",
        "_np_thresholds",
        "_partition_at",
        "_np_partition_at",
    )

    def __init__(
        self,
        rows: Sequence[Sequence[int]],
        type_ids: Dict[str, int],
        reference: int,
        bin_size: int,
        backend: Optional[str] = None,
    ) -> None:
        if backend is None:
            backend = default_backend()
        if backend not in ("numpy", "fallback"):
            raise ValueError(f"unknown kernel backend {backend!r}")
        if backend == "numpy" and not HAVE_NUMPY:
            raise RuntimeError("numpy backend requested but numpy is missing")
        self.backend = backend
        self.reference = reference
        self.bin_size = bin_size
        self.bins = scaling.bin_count(reference, bin_size)
        self.partition_size = float(reference)
        self.partition_count = 0
        # type name -> row index; unknown types resolve to an all-zero
        # row appended after the real ones (utility 0: no evidence the
        # type ever contributed, so it is safe to drop first)
        self._type_rows = dict(type_ids)
        self._unknown_row = len(rows)
        flat: List[int] = []
        for row in rows:
            flat.extend(int(v) for v in row)
        flat.extend(0 for _ in range(self.bins))  # the unknown-type row
        self._flat = flat
        self._thresholds: List[int] = []
        self._np_thresholds = None
        self._partition_at: List[int] = []
        self._np_partition_at = None
        if backend == "numpy":
            matrix = _np.zeros((len(rows) + 1, self.bins), dtype=_np.int64)
            if rows:
                matrix[:-1, :] = _np.asarray(rows, dtype=_np.int64)
            self._np_rows = matrix
            # per-row prefix sums for the scale-up averaging path:
            # sum(row[first..last]) = cum[row, last+1] - cum[row, first]
            cum = _np.zeros((len(rows) + 1, self.bins + 1), dtype=_np.int64)
            _np.cumsum(matrix, axis=1, out=cum[:, 1:])
            self._np_cumrows = cum
        else:
            self._np_rows = None
            self._np_cumrows = None

    # ------------------------------------------------------------------
    def set_thresholds(
        self, thresholds: Sequence[int], partition_size: float
    ) -> None:
        """Install the per-partition ``uth`` array of the current drop
        command (cheap: thresholds change per command, rows do not).

        The partition of every reference position, ``min(int(ref /
        psize), ρ - 1)``, is tabulated whenever ρ or ``psize`` change,
        so a decision looks it up instead of computing it.
        """
        self._thresholds = [int(t) for t in thresholds]
        plan = (len(self._thresholds), float(partition_size))
        if plan != (self.partition_count, self.partition_size):
            self.partition_count, self.partition_size = plan
            top = self.partition_count - 1
            self._partition_at = [
                min(int(ref / self.partition_size), top)
                for ref in range(self.reference if top >= 0 else 0)
            ]
            if self.backend == "numpy":
                self._np_partition_at = _np.asarray(self._partition_at, dtype=_np.int64)
        if self.backend == "numpy":
            self._np_thresholds = _np.asarray(self._thresholds, dtype=_np.int64)

    @property
    def thresholds(self) -> List[int]:
        """Current per-partition thresholds (diagnostics, tests)."""
        return list(self._thresholds)

    # ------------------------------------------------------------------
    def decide(
        self,
        events: Sequence,
        positions: Sequence[int],
        predicted_ws: float,
    ) -> List[bool]:
        """Drop mask for a batch of (event, position) pairs.

        ``events[i]`` sits at (unshedded) window position
        ``positions[i]`` of a window predicted to span ``predicted_ws``
        events (``≤ 0``: unknown, the reference size is assumed) -- the
        contract of :meth:`repro.shedding.base.LoadShedder.should_drop_batch`.
        Both backends return the same mask.
        """
        n = len(positions)
        if n == 0:
            return []
        if not self._thresholds:
            return [False] * n
        if self.backend == "numpy" and n >= NUMPY_MIN_BATCH:
            return self._mask_numpy(events, positions, predicted_ws)
        utilities, refs = self._resolve(events, positions, predicted_ws)
        # utility <= thresholds[partition_at[ref]], pair by pair
        partitions = map(self._partition_at.__getitem__, refs)
        return list(map(le, utilities, map(self._thresholds.__getitem__, partitions)))

    def explain(
        self, event: object, position: int, predicted_ws: float
    ) -> Tuple[int, int]:
        """``(utility, partition)`` of one pair: the inputs :meth:`decide`
        compares (read by :meth:`ESpiceShedder.explain`; needs installed
        thresholds)."""
        utilities, refs = self._resolve((event,), (position,), predicted_ws)
        return utilities[0], self._partition_at[refs[0]]

    # ------------------------------------------------------------------
    # numpy backend
    # ------------------------------------------------------------------
    def _mask_numpy(
        self, events: Sequence, positions: Sequence[int], predicted_ws: float
    ) -> List[bool]:
        np = _np
        reference = self.reference
        window_size = predicted_ws if predicted_ws > 0 else reference
        row_of = self._type_rows
        unknown = self._unknown_row
        rows = np.fromiter(
            (row_of.get(e.event_type, unknown) for e in events),
            dtype=np.int64,
            count=len(positions),
        )
        pos = np.asarray(positions, dtype=np.int64)

        if window_size >= reference - 1.0:
            if window_size <= reference + 1.0:
                # identity/near-identity: clamp into the reference range
                ref_pos = np.minimum(pos, reference - 1)
            else:
                # scale down: several window positions share a cell
                ref_pos = (pos * reference / window_size).astype(np.int64)
                np.minimum(ref_pos, reference - 1, out=ref_pos)
            utility = self._np_rows[rows, ref_pos // self.bin_size]
        else:
            # scale up (ws < N - 1): a position covers the reference
            # interval [lo, hi), whose cells' utilities are averaged
            # (paper §3.6); the partition comes from the same lo
            factor = reference / window_size
            lo = pos * factor
            np.minimum(lo, reference - 1e-9, out=lo)
            hi = (pos + 1) * factor
            np.maximum(hi, lo + 1e-9, out=hi)
            np.minimum(hi, float(reference), out=hi)
            ref_pos = lo.astype(np.int64)
            first = ref_pos // self.bin_size
            last = (np.ceil(hi).astype(np.int64) - 1) // self.bin_size
            top = self.bins - 1
            np.minimum(first, top, out=first)
            np.maximum(last, first, out=last)
            np.minimum(last, top, out=last)
            count = last - first + 1
            cum = self._np_cumrows
            span_sum = cum[rows, last + 1] - cum[rows, first]
            utility = np.where(
                count == 1,
                self._np_rows[rows, first],
                np.rint(span_sum / count).astype(np.int64),
            )

        uth = self._np_thresholds[self._np_partition_at[ref_pos]]
        return (utility <= uth).tolist()

    # ------------------------------------------------------------------
    # stdlib fallback backend (and :meth:`explain` on both backends)
    # ------------------------------------------------------------------
    def _resolve(
        self, events: Sequence, positions: Sequence[int], predicted_ws: float
    ) -> Tuple[List[int], List[int]]:
        """Per pair, its utility and its reference position: one loop
        per scaling regime."""
        reference = self.reference
        window_size = predicted_ws if predicted_ws > 0 else reference
        bins = self.bins
        bin_size = self.bin_size
        flat = self._flat
        row_of = self._type_rows
        unknown = self._unknown_row
        utilities: List[int] = []
        refs: List[int] = []
        add_utility = utilities.append
        add_ref = refs.append

        if window_size >= reference - 1.0:
            if window_size <= reference + 1.0:
                last_pos = reference - 1
                for event, position in zip(events, positions):
                    ref = position if position < reference else last_pos
                    base = row_of.get(event.event_type, unknown) * bins
                    add_utility(flat[base + ref // bin_size])
                    add_ref(ref)
            else:
                for event, position in zip(events, positions):
                    ref = int(position * reference / window_size)
                    if ref >= reference:
                        ref = reference - 1
                    base = row_of.get(event.event_type, unknown) * bins
                    add_utility(flat[base + ref // bin_size])
                    add_ref(ref)
            return utilities, refs

        # scale up (ws < N - 1): batch-compute the covered bin ranges and
        # reference positions, then average the covered cells
        spans = scaling.positions_to_bins_batch(
            positions, window_size, reference, bin_size
        )
        for event, (first, last) in zip(events, spans):
            base = row_of.get(event.event_type, unknown) * bins
            if first == last:
                add_utility(flat[base + first])
            else:
                span = flat[base + first : base + last + 1]
                add_utility(round(sum(span) / len(span)))
        return utilities, scaling.reference_positions_batch(
            positions, window_size, reference
        )

    def __repr__(self) -> str:
        return (
            f"SheddingKernel(backend={self.backend}, types={self._unknown_row}, "
            f"bins={self.bins}, partitions={self.partition_count})"
        )
