"""Integral load shedding: drop whole event types (He et al., §5).

He et al. (ICDT'14), the paper BL is modelled on, distinguish
*integral* load shedding -- entire event types are dropped -- from
*fractional* load shedding -- uniform sampling keeps a portion of each
type.  :class:`~repro.shedding.baseline.BLShedder` is the fractional /
weighted-sampling reading; this module supplies the integral reading as
a second comparator: types are dropped wholesale, cheapest (lowest
pattern repetition, then most frequent) first, until the commanded
amount is covered; at most one marginal type is sampled fractionally.

Against position-sensitive workloads this behaves like BL with a
sharper failure mode: either a type survives completely or it vanishes,
so patterns referencing a dropped type produce no matches at all.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.cep.events import Event
from repro.cep.patterns.ast import Conjunction, Pattern
from repro.shedding.base import DropCommand, LoadShedder


class IntegralShedder(LoadShedder):
    """Whole-type dropping, cheapest types first."""

    def __init__(
        self,
        pattern: Union[Pattern, Conjunction],
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.pattern = pattern
        self._rng = random.Random(seed)
        self._repetitions: Mapping[str, float] = pattern.event_type_repetitions()
        self._type_counts: Dict[str, int] = {}
        self._total_seen = 0
        self._dropped_types: set = set()
        self._marginal: Optional[Tuple[str, float]] = None  # (type, probability)
        self._pending: Optional[DropCommand] = None

    # ------------------------------------------------------------------
    def observe(self, event: Event) -> None:
        """Update the per-type frequency estimate."""
        self._type_counts[event.event_type] = (
            self._type_counts.get(event.event_type, 0) + 1
        )
        self._total_seen += 1

    def frequency(self, type_name: str) -> float:
        """Estimated probability that a stream event has this type."""
        if self._total_seen == 0:
            return 0.0
        return self._type_counts.get(type_name, 0) / self._total_seen

    def _priority(self, type_name: str) -> Tuple[float, float]:
        """Drop order: lowest repetition first, most frequent first."""
        return (
            self._repetitions.get(type_name, 0.0),
            -self.frequency(type_name),
        )

    # ------------------------------------------------------------------
    def on_drop_command(self, command: DropCommand) -> None:
        self._pending = command
        self._dropped_types = set()
        self._marginal = None
        if command.per_window <= 0.0 or self._total_seen == 0:
            return
        window_size = command.partition_size * command.partition_count
        if window_size <= 0.0:
            return
        to_drop = command.per_window
        for type_name in sorted(self._type_counts, key=self._priority):
            population = self.frequency(type_name) * window_size
            if population <= 0.0:
                continue
            if population <= to_drop:
                self._dropped_types.add(type_name)
                to_drop -= population
            else:
                self._marginal = (type_name, to_drop / population)
                break

    @property
    def dropped_types(self) -> List[str]:
        """Types currently dropped wholesale (diagnostics, tests)."""
        return sorted(self._dropped_types)

    def drop_probability_of(self, type_name: str) -> float:
        """Effective drop probability of a type under the current plan."""
        if type_name in self._dropped_types:
            return 1.0
        if self._marginal is not None and self._marginal[0] == type_name:
            return self._marginal[1]
        return 0.0

    # ------------------------------------------------------------------
    def _decide(self, event: Event, position: int, predicted_ws: float) -> bool:
        self.observe(event)
        if event.event_type in self._dropped_types:
            return True
        if self._marginal is not None and self._marginal[0] == event.event_type:
            return self._rng.random() < self._marginal[1]
        return False
