"""Load-shedder interface shared by eSPICE and the baselines.

The overload detector issues :class:`DropCommand` objects ("drop ``x``
events from every partition of every window"); the operator then asks
the shedder, for a batch of (event, window) pairs, whether to drop each
event from its window.  The decision must be O(1) per pair -- it runs
on the hot path of a system that is already overloaded (paper §3.5).
eSPICE's rule lives in :mod:`repro.core.kernel`, held to the
executable spec ``tests/core/espice_spec.py``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence

from repro.cep.events import Event


@dataclass(frozen=True)
class DropCommand:
    """Instruction from the overload detector to the shedder.

    Attributes
    ----------
    x:
        Number of events to drop from each partition of each window
        (paper §3.4, "dropping amount").  May be fractional; shedders
        treat it as an expected value.
    partition_count:
        ``ρ``: partitions per window.
    partition_size:
        ``psize``: events per partition, in reference-window positions.
    """

    x: float
    partition_count: int = 1
    partition_size: float = 0.0

    @property
    def per_window(self) -> float:
        """Total events to drop per window."""
        return self.x * self.partition_count


class LoadShedder(abc.ABC):
    """Per-(event, window) drop decision plus activation lifecycle."""

    def __init__(self) -> None:
        self._active = False
        self.decisions = 0
        self.drops = 0

    @property
    def active(self) -> bool:
        """Whether shedding is currently enabled."""
        return self._active

    def activate(self) -> None:
        """Enable shedding (overload detected)."""
        self._active = True

    def deactivate(self) -> None:
        """Disable shedding (overload cleared)."""
        self._active = False

    @abc.abstractmethod
    def on_drop_command(self, command: DropCommand) -> None:
        """Receive a new dropping amount from the overload detector."""

    def should_drop_batch(
        self,
        events: Sequence[Event],
        positions: Sequence[int],
        predicted_ws: float,
    ) -> List[bool]:
        """Drop decisions (True = drop) for a batch of (event, position)
        pairs -- the decision contract every caller uses.

        ``events[i]`` sits at (unshedded) position ``positions[i]`` of a
        window predicted to span ``predicted_ws`` events (one prediction
        per batch).  Inactive: nothing drops and nothing counts.  The
        default asks :meth:`_decide` once per pair, in order (sampling
        shedders' RNG advances per decision); eSPICE overrides this
        with its batch kernel.
        """
        n = len(positions)
        if not self._active or n == 0:
            return [False] * n
        decide = self._decide
        mask = [
            decide(event, position, predicted_ws)
            for event, position in zip(events, positions)
        ]
        self.decisions += n
        self.drops += mask.count(True)
        return mask

    def _decide(self, event: Event, position: int, predicted_ws: float) -> bool:
        """Per-pair hook of the default :meth:`should_drop_batch`."""
        raise NotImplementedError(f"{type(self).__name__}._decide")

    def should_drop(self, event: Event, position: int, predicted_ws: float) -> bool:
        """:meth:`should_drop_batch` for one pair."""
        return self.should_drop_batch((event,), (position,), predicted_ws)[0]

    def explain(self, event: Event, position: int, predicted_ws: float) -> dict:
        """Why the last decision for this (event, window) pair went the
        way it did -- the shed-decision explainability hook of
        :mod:`repro.obs`.

        Returns the decision inputs as a dict whose keys mirror
        :class:`repro.obs.tracer.ShedExplanation`: ``strategy`` plus
        ``utility``/``threshold``/``partition``/``partition_count``/
        ``drop_amount`` where the strategy has such notions (``None``
        otherwise).  Must be side-effect free -- it re-derives, never
        re-decides, so counters and RNG state stay untouched.  The base
        implementation names the strategy only; utility-table shedders
        override it with their exact lookup.
        """
        return {
            "strategy": type(self).__name__,
            "utility": None,
            "threshold": None,
            "partition": None,
            "partition_count": None,
            "drop_amount": None,
        }

    def observed_drop_rate(self) -> float:
        """Fraction of decisions that dropped (diagnostics)."""
        return self.drops / self.decisions if self.decisions else 0.0

    def reset_counters(self) -> None:
        """Zero the decision/drop counters."""
        self.decisions = 0
        self.drops = 0


class NoShedder(LoadShedder):
    """Keeps every event; used for ground-truth runs."""

    def on_drop_command(self, command: DropCommand) -> None:  # pragma: no cover
        pass

    def _decide(self, event: Event, position: int, predicted_ws: float) -> bool:
        return False
