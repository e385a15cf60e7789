"""The utility model and its builder (paper §3.3, "Model Building").

Training is *not* time-critical (paper §3.1): the model builder watches
the operator during normal (non-overloaded) processing, records which
(event-type, window-position) pairs contributed to detected complex
events as well as the overall distribution of types over positions, and
periodically produces a :class:`UtilityModel`:

- the utility table ``UT(T, P)`` -- normalised contribution counts,
- the position shares ``S(T, P)`` -- expected per-window type counts,
- the reference window size ``N`` -- the average seen window size,
  which also handles variable-size windows (§3.6).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cep.events import Event
from repro.cep.patterns.matcher import Match
from repro.cep.windows import Window
from repro.core import scaling
from repro.core.cdt import CDT, build_cdt, build_partition_cdts
from repro.core.partitions import PartitionPlan
from repro.core.position_shares import PositionShares
from repro.core.utility_table import UtilityTable


@dataclass
class UtilityModel:
    """Everything the load shedder needs, frozen after training."""

    table: UtilityTable
    shares: PositionShares
    reference_size: int
    bin_size: int = 1
    windows_trained: int = 0
    matches_trained: int = 0

    def __post_init__(self) -> None:
        # one N: the decision scales every position onto this model's
        # reference window, so the table must be laid out on it too
        table = (self.table.reference_size, self.table.bin_size)
        if table != (self.reference_size, self.bin_size):
            raise ValueError(f"table (N, bs) {table} differs from the model's")

    def utility(self, type_name: str, position: int, window_size: float) -> int:
        """``U(T, P)`` for an event at ``position`` of a window predicted
        to hold ``window_size`` events."""
        return self.table.utility(type_name, position, window_size)

    def whole_window_cdt(self) -> CDT:
        """CDT over the complete reference window (``ρ = 1``)."""
        return build_cdt(self.table, self.shares)

    def partition_cdts(self, plan: PartitionPlan) -> List[CDT]:
        """One CDT per partition of ``plan``."""
        return build_partition_cdts(self.table, self.shares, plan)

    def fingerprint(self) -> str:
        """Short content hash of the model's decision-relevant state.

        Two models with equal fingerprints make identical shedding
        decisions; the cluster coordinator uses this to verify that a
        broadcast hot swap actually landed on every shard.
        """
        payload = repr(
            (
                sorted(self.table.type_ids.items()),
                self.table.as_matrix(),
                self.reference_size,
                self.bin_size,
            )
        )
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]

    def __repr__(self) -> str:
        return (
            f"UtilityModel(N={self.reference_size}, bs={self.bin_size}, "
            f"windows={self.windows_trained}, matches={self.matches_trained})"
        )


@dataclass
class _WindowRecord:
    """Compact training record of one completed window."""

    event_types: List[str]  # type of every event; the index is its position
    match_positions: List[Tuple[str, int]]  # (type, window position), contributors

    @property
    def size(self) -> int:
        return len(self.event_types)


class ModelBuilder:
    """Collects statistics from completed windows and builds the model.

    Use as an operator window listener::

        builder = ModelBuilder(bin_size=1)
        operator.add_window_listener(builder.observe)
        operator.detect_all(training_stream)
        model = builder.build()

    ``reference_size`` may be pinned up-front (count-based windows);
    otherwise the builder buffers compact per-window records and derives
    ``N`` as the average seen window size at :meth:`build` time.
    """

    def __init__(
        self,
        bin_size: int = 1,
        reference_size: Optional[int] = None,
        max_records: int = 100_000,
    ) -> None:
        if bin_size <= 0:
            raise ValueError("bin size must be positive")
        if reference_size is not None and reference_size <= 0:
            raise ValueError("reference size must be positive")
        self.bin_size = bin_size
        self.pinned_reference_size = reference_size
        self.max_records = max_records
        self._records: List[_WindowRecord] = []
        self._windows_seen = 0
        self._matches_seen = 0

    # ------------------------------------------------------------------
    # observation (operator listener)
    # ------------------------------------------------------------------
    def observe(self, window: Window, matches: Sequence[Match]) -> None:
        """Record one completed window and the matches found in it.

        Truncated windows (end-of-stream flushes) are skipped: their
        partial sizes would skew the reference window size and their
        position statistics are incomplete.
        """
        if window.size == 0 or window.truncated:
            return
        event_types = [event.event_type for event in window.events]
        match_positions: List[Tuple[str, int]] = []
        for match in matches:
            for pos, event in match:
                match_positions.append((event.event_type, pos))
        record = _WindowRecord(event_types, match_positions)
        if len(self._records) >= self.max_records:
            # ring behaviour: oldest training data ages out
            self._records.pop(0)
        self._records.append(record)
        self._windows_seen += 1
        self._matches_seen += len(matches)

    @property
    def windows_seen(self) -> int:
        """Completed windows observed so far."""
        return self._windows_seen

    @property
    def matches_seen(self) -> int:
        """Matches observed so far."""
        return self._matches_seen

    def reset(self) -> None:
        """Discard all collected statistics (model retraining, §3.6)."""
        self._records.clear()
        self._windows_seen = 0
        self._matches_seen = 0

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def average_window_size(self) -> float:
        """Mean size of the observed windows (0.0 when none)."""
        if not self._records:
            return 0.0
        return sum(r.size for r in self._records) / len(self._records)

    def build(self) -> UtilityModel:
        """Produce a :class:`UtilityModel` from the collected statistics.

        Raises ``ValueError`` when no window has been observed.
        """
        if not self._records:
            raise ValueError("cannot build a model from zero observed windows")
        reference_size = self.pinned_reference_size
        if reference_size is None:
            reference_size = max(1, round(self.average_window_size()))

        type_ids: Dict[str, int] = {}
        for record in self._records:
            for type_name in record.event_types:
                if type_name not in type_ids:
                    type_ids[type_name] = len(type_ids)

        shares = PositionShares(type_ids, reference_size, self.bin_size)
        contribution: Dict[str, Dict[int, float]] = {}
        # the window-position -> reference-position map depends only on
        # the window's size: computed once per distinct size, not once
        # per event of every window
        top = reference_size - 1
        reference_of: Dict[int, List[int]] = {}
        for record in self._records:
            size = record.size
            ref_pos_of = reference_of.get(size)
            if ref_pos_of is None:
                ref_pos_of = reference_of[size] = [
                    min(ref_pos, top)
                    for ref_pos in scaling.reference_positions_batch(
                        range(size), size, reference_size
                    )
                ]
            shares.observe_window(list(zip(record.event_types, ref_pos_of)))
            for type_name, pos in record.match_positions:
                bin_index = scaling.bin_of_reference_position(
                    ref_pos_of[pos], reference_size, self.bin_size
                )
                per_bin = contribution.setdefault(type_name, {})
                per_bin[bin_index] = per_bin.get(bin_index, 0.0) + 1.0

        table = UtilityTable.from_counts(
            contribution, type_ids, reference_size, self.bin_size
        )
        return UtilityModel(
            table=table,
            shares=shares,
            reference_size=reference_size,
            bin_size=self.bin_size,
            windows_trained=len(self._records),
            matches_trained=self._matches_seen,
        )
