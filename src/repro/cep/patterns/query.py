"""Query: a pattern plus windowing and policies, ready to deploy.

A :class:`Query` is what gets handed to the CEP operator: the pattern
to detect, a factory for the window assigner (a fresh assigner per run,
so ground truth and shedding runs see identical windowing) and the
selection/consumption policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from repro.cep.patterns.ast import Conjunction, Pattern
from repro.cep.patterns.matcher import PatternMatcher
from repro.cep.patterns.policies import ConsumptionPolicy, SelectionPolicy
from repro.cep.windows import WindowAssigner


@dataclass
class Query:
    """A deployable CEP query.

    Attributes
    ----------
    name:
        Identifier used in complex events and experiment reports.
    pattern:
        Sequence or conjunction pattern to detect.
    window_factory:
        Zero-argument callable producing a fresh window assigner.
    selection / consumption:
        Matching policies (paper §2).
    max_matches_per_window:
        Complex events emitted per window; the paper's evaluation
        setting is 1.
    """

    name: str
    pattern: Union[Pattern, Conjunction]
    window_factory: Callable[[], WindowAssigner]
    selection: SelectionPolicy = SelectionPolicy.FIRST
    consumption: ConsumptionPolicy = ConsumptionPolicy.CONSUMED
    max_matches_per_window: int = 1

    def new_assigner(self) -> WindowAssigner:
        """A fresh window assigner for one run over a stream."""
        return self.window_factory()

    def new_matcher(self) -> PatternMatcher:
        """A matcher configured with this query's policies."""
        return PatternMatcher(
            self.pattern,
            selection=self.selection,
            consumption=self.consumption,
            max_matches=self.max_matches_per_window,
        )

    def pattern_size(self) -> int:
        """Number of primitive events per full match."""
        return self.pattern.match_size()
