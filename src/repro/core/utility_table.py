"""The utility table ``UT(T, P)`` (paper §3.2--§3.3).

``UT`` is an ``M x Nb`` integer matrix -- ``M`` event types by ``Nb``
position bins -- whose cells hold the utility of an event of type ``T``
in (binned, reference-scaled) window position ``P``.  Utilities are the
normalised counts of (type, position) occurrences *inside detected
complex events*, discretised to integers in ``[0, 100]`` to bound the
number of distinct utility values (and hence the CDT size).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core import scaling


class UtilityTable:
    """Integer utility matrix with O(1) lookup.

    Parameters
    ----------
    type_ids:
        Mapping from event-type name to row index.
    reference_size:
        ``N``: the reference window size in positions.
    bin_size:
        ``bs``: positions per bin (paper §3.6); 1 disables binning.
    """

    MAX_UTILITY = 100

    def __init__(
        self,
        type_ids: Dict[str, int],
        reference_size: int,
        bin_size: int = 1,
    ) -> None:
        if reference_size <= 0:
            raise ValueError("reference size must be positive")
        if bin_size <= 0:
            raise ValueError("bin size must be positive")
        self.type_ids = dict(type_ids)
        self.reference_size = reference_size
        self.bin_size = bin_size
        self.bins = scaling.bin_count(reference_size, bin_size)
        self._cells: List[List[int]] = [
            [0] * self.bins for _ in range(len(self.type_ids))
        ]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_counts(
        cls,
        counts: Dict[str, Dict[int, float]],
        type_ids: Dict[str, int],
        reference_size: int,
        bin_size: int = 1,
    ) -> "UtilityTable":
        """Build a table from raw contribution counts.

        ``counts[type_name][bin_index]`` is how often events of that
        type, in that bin, contributed to a detected complex event.
        Counts are normalised by the global maximum and discretised to
        ``[0, 100]`` (paper §3.3).  A cell that contributed at least
        once never rounds down to 0: utility 0 is reserved for "no
        evidence of contribution", so the shedder's lowest threshold
        cannot wipe out rarely-but-genuinely contributing cells.
        """
        table = cls(type_ids, reference_size, bin_size)
        peak = 0.0
        for per_bin in counts.values():
            for value in per_bin.values():
                peak = max(peak, value)
        if peak <= 0.0:
            return table
        for type_name, per_bin in counts.items():
            row = table._cells[table.type_ids[type_name]]
            for bin_index, value in per_bin.items():
                if 0 <= bin_index < table.bins and value > 0.0:
                    row[bin_index] = max(1, round(value / peak * cls.MAX_UTILITY))
        return table

    @classmethod
    def from_matrix(
        cls,
        matrix: Sequence[Sequence[int]],
        type_names: Sequence[str],
        bin_size: int = 1,
        reference_size: Optional[int] = None,
    ) -> "UtilityTable":
        """Build directly from an explicit integer matrix (tests, Table 1,
        persisted models); ``reference_size`` defaults to
        ``bins × bin_size`` (pass ``N`` when the last bin is partial)."""
        if len(matrix) != len(type_names):
            raise ValueError("one row per type name required")
        if reference_size is None:
            reference_size = len(matrix[0]) * bin_size if matrix else bin_size
        type_ids = {name: i for i, name in enumerate(type_names)}
        table = cls(type_ids, reference_size, bin_size)
        for row_index, row in enumerate(matrix):
            if len(row) != table.bins:
                raise ValueError("ragged utility matrix")
            for bin_index, value in enumerate(row):
                if not 0 <= value <= cls.MAX_UTILITY:
                    raise ValueError(f"utility {value} outside [0, 100]")
                table._cells[row_index][bin_index] = int(value)
        return table

    def set_cell(self, type_name: str, bin_index: int, utility: int) -> None:
        """Directly set one cell (model retraining, tests)."""
        if not 0 <= utility <= self.MAX_UTILITY:
            raise ValueError(f"utility {utility} outside [0, 100]")
        self._cells[self.type_ids[type_name]][bin_index] = utility

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def type_count(self) -> int:
        """``M``: number of event types."""
        return len(self.type_ids)

    def row(self, type_name: str) -> List[int]:
        """Utility row of a type (a copy)."""
        return list(self._cells[self.type_ids[type_name]])

    def cell(self, type_name: str, bin_index: int) -> int:
        """Raw cell value ``UT(T, bin)``."""
        return self._cells[self.type_ids[type_name]][bin_index]

    def utility(self, type_name: str, position: int, window_size: float) -> int:
        """Utility of type ``type_name`` at window ``position``.

        The position is scaled from the incoming window (of
        ``window_size`` events, possibly a prediction) onto the
        reference positions and bins.  When a position covers several
        bins (scale-up, ``ws < N``), the utility is the average of the
        covered cells (paper §3.6); an unknown type has utility 0 (no
        evidence it ever contributed, hence safe to drop first).  The
        drift detector's lookup, not the decision: it scales even inside
        ``N ± 1``, where the kernel only clamps the position.
        """
        row_index = self.type_ids.get(type_name)
        if row_index is None:
            return 0
        first, last = scaling.position_to_bins(
            position, window_size, self.reference_size, self.bin_size
        )
        row = self._cells[row_index]
        if first == last:
            return row[first]
        span = row[first : last + 1]
        return round(sum(span) / len(span))

    def utilities_in_bin(self, bin_index: int) -> List[int]:
        """Column slice: each type's utility in ``bin_index``."""
        return [row[bin_index] for row in self._cells]

    def distinct_utilities(self) -> List[int]:
        """Sorted distinct utility values present in the table."""
        values = {value for row in self._cells for value in row}
        return sorted(values)

    def as_matrix(self) -> List[List[int]]:
        """Copy of the underlying matrix (row per type)."""
        return [list(row) for row in self._cells]

    def rows_by_type(self) -> Dict[str, List[int]]:
        """Live views of the rows keyed by type name.

        The returned lists are the table's own storage -- callers must
        treat them as read-only (diagnostics, tests).
        """
        return {name: self._cells[i] for name, i in self.type_ids.items()}

    def __repr__(self) -> str:
        return (
            f"UtilityTable(types={self.type_count}, N={self.reference_size}, "
            f"bs={self.bin_size}, bins={self.bins})"
        )
