"""BL: the paper's state-of-the-art baseline shedder (§4.1).

The paper describes its baseline as "similar to the strategy in [He et
al., ICDT'14]" and says it "also captures the notion of weighted
sampling techniques in stream processing": event *types* get utility
values proportional to their repetition in the pattern, BL decides how
many events to drop from each type per window, and removes them by
uniform sampling within the type.  Crucially -- and this is the axis
eSPICE wins on -- BL ignores the order/position of events in windows.

Concretely, this implementation:

- assigns type utility ``u(T)`` = the type's repetition weight in the
  pattern (0 for unreferenced types);
- converts utilities to sampling weights ``w(T) = 1 / (1 + u(T))`` --
  cheaper types are dropped more aggressively, but *no* type is exempt
  (weighted sampling, not strict cheapest-first greedy);
- water-fills a scale ``c`` such that the expected number of drops per
  window matches the commanded amount:
  ``Σ_T min(1, c·w(T)) · freq(T) · ws = x·ρ``;
- drops each event of type ``T`` independently with probability
  ``min(1, c·w(T))``.

Per-type frequencies are learned from observed events, so BL needs no
utility model: the pipeline feeds it the training stream (``train()`` /
``warm()``), and every active decision observes its event.  An inactive
BL is never consulted, so it learns nothing while the system is not
overloaded.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional, Union

from repro.cep.events import Event
from repro.cep.patterns.ast import Conjunction, Pattern
from repro.shedding.base import DropCommand, LoadShedder


class BLShedder(LoadShedder):
    """Type-utility weighted-sampling baseline.

    Parameters
    ----------
    pattern:
        The deployed pattern; its ``event_type_repetitions()`` supply
        the per-type repetition weights.
    seed:
        RNG seed for the uniform sampling.
    """

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
        self._drop_probability: Dict[str, float] = {}
        self._default_weight = 1.0  # weight of a type never seen in training
        self._pending: Optional[DropCommand] = None

    # ------------------------------------------------------------------
    # online frequency model
    # ------------------------------------------------------------------
    def observe(self, event: Event) -> None:
        """Update the per-type frequency estimate with one event."""
        self._type_counts[event.event_type] = (
            self._type_counts.get(event.event_type, 0) + 1
        )
        self._total_seen += 1

    def frequency(self, type_name: str) -> float:
        """Estimated probability that a stream event has this type."""
        if self._total_seen == 0:
            return 0.0
        return self._type_counts.get(type_name, 0) / self._total_seen

    def type_utility(self, type_name: str) -> float:
        """Repetition-based utility of a type (0 if not in the pattern)."""
        return self._repetitions.get(type_name, 0.0)

    def sampling_weight(self, type_name: str) -> float:
        """``w(T) = 1 / (1 + u(T))`` -- drop-eagerness of the type."""
        return 1.0 / (1.0 + self.type_utility(type_name))

    # ------------------------------------------------------------------
    # drop planning
    # ------------------------------------------------------------------
    def on_drop_command(self, command: DropCommand) -> None:
        self._pending = command
        self._recompute_plan()

    def _recompute_plan(self) -> None:
        """Water-fill per-type drop probabilities to meet the command."""
        command = self._pending
        self._drop_probability = {}
        if command is None or command.per_window <= 0.0:
            return
        window_size = command.partition_size * command.partition_count
        if window_size <= 0.0 or self._total_seen == 0:
            return

        demand = command.per_window
        populations = {
            type_name: self.frequency(type_name) * window_size
            for type_name in self._type_counts
        }
        weights = {
            type_name: self.sampling_weight(type_name)
            for type_name in self._type_counts
        }
        total_population = sum(populations.values())
        if total_population <= 0.0:
            return
        demand = min(demand, total_population)

        def expected_drops(scale: float) -> float:
            return sum(
                min(1.0, scale * weights[t]) * populations[t] for t in populations
            )

        # binary search the water-filling scale c
        low, high = 0.0, 1.0
        while expected_drops(high) < demand and high < 1e9:
            high *= 2.0
        for _ in range(60):
            mid = (low + high) / 2.0
            if expected_drops(mid) < demand:
                low = mid
            else:
                high = mid
        scale = high
        self._drop_probability = {
            type_name: min(1.0, scale * weights[type_name])
            for type_name in populations
        }
        # types first seen after planning drop at the scaled default weight
        self._default_scale = scale

    def drop_probability_of(self, type_name: str) -> float:
        """Planned drop probability for a type (diagnostics, tests)."""
        if type_name in self._drop_probability:
            return self._drop_probability[type_name]
        scale = getattr(self, "_default_scale", 0.0)
        return min(1.0, scale * self.sampling_weight(type_name))

    # ------------------------------------------------------------------
    # decision
    # ------------------------------------------------------------------
    def _decide(self, event: Event, position: int, predicted_ws: float) -> bool:
        self.observe(event)
        probability = self.drop_probability_of(event.event_type)
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability
