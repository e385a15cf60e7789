"""Pattern matching over windows with skip-till-next/any-match semantics.

The matcher evaluates one *window content*: the ordered events the
operator processes for that window, after shedding if any.  A match is
a list of ``(position, event)`` pairs in position order; ``position``
is the event's index in the **unshedded** window, so the utility model
learns true window positions even when events were shed.

Each sequence pattern is compiled once, at construction, into a tuple
of guarded steps: every positive step with the scan that binds it, the
negation guarding the gap before it and the positive step after it.
Every selection policy walks that tuple; *last* walks its mirror over
the reversed window.  Scans return view indices (indices into the
events passed in), mapped to positions only when a match is reported.

Semantics (the executable spec ``tests/cep/matcher_spec.py`` pins them):

- **Runs.**  A step's run starts at an event the step accepts.  A
  single step binds just that event.  ``any(n, ...)`` goes on taking,
  in window order, each event that can join until it holds ``n``: with
  ``distinct_specs`` an event joins when the run's events and it can
  each be given a spec of their own (earlier events may trade specs),
  without it when it matches any spec.  A kleene step takes every event
  its spec matches until it holds ``max_count``, or until -- holding at
  least ``min_count`` -- it meets an event that the following positive
  step accepts and its own spec does not; it fails below ``min_count``.
- **Negation.**  A guard fails the binding when it accepts an event
  after the previous step's last event, up to *and including* the
  guarded step's first event: when one event is accepted by both the
  guard and the step it guards, the guard wins.  (*last* scans
  backwards, so there the guarded step is the one before the guard.)
- **first** (skip-till-next-match): the first step's run may start at
  any accepted event, earliest first; every later step starts at the
  first event after the previous step that it accepts.  The match is
  the binding with the earliest *anchor* (the first step's first
  event).  **last** is *first* on the reversed window with the steps
  reversed.
- **each** (skip-till-any-match): every step's run may start at any
  accepted event after the previous step; bindings are reported in
  window order.
- **cumulative**: one composite match.  Step ``j``'s instances are all
  events after step ``j-1``'s first instance (the whole window for the
  first step) that it accepts; each step needs its minimal count
  (1, ``n`` or ``min_count``), and a guard fails the match when it
  accepts an event after the previous step's first instance, up to and
  including its own step's first instance.  Each event is listed once.
- **Consumption** (with ``max_matches > 1``): under *consumed* the
  events of a reported match are invisible to everything after it --
  scans, guards and kleene stops -- and *first*/*last* search the
  remaining events afresh.  Under *zero* events are reused, and each
  next match must lie strictly later: a later anchor for *first*/*last*,
  a later binding in window order for *each*.
- **Conjunctions** bind one event per spec, no event to two specs:
  *first* takes the earliest such set of events, *last* the latest (an
  any step over the whole window, compiled as such).  Only *first* and
  *last* with ``max_matches=1`` are supported; any other setting is
  rejected at construction.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

from repro.cep.events import Event
from repro.cep.patterns.ast import (
    AnyStep,
    Conjunction,
    EventSpec,
    KleeneStep,
    NegationStep,
    Pattern,
    SingleStep,
    Step,
    minimal_count,
)
from repro.cep.patterns.policies import ConsumptionPolicy, SelectionPolicy

# One binding of the pattern: (window position, event) in position order.
Match = List[Tuple[int, Event]]

# (events, start, guard, step, following, consumed) -> the run's indices or None
Scan = Callable[..., Optional[List[int]]]

# One compiled step: (scan, negation guard, positive step, following step).
Guarded = Tuple[Scan, Optional[EventSpec], Step, Optional[Step]]


class PatternMatcher:
    """Matches one pattern against window contents.

    Parameters
    ----------
    pattern:
        A sequence :class:`Pattern` or a :class:`Conjunction`.
    selection:
        Selection policy; default ``FIRST``.
    consumption:
        Consumption policy; default ``CONSUMED``.  Only relevant when
        ``max_matches > 1``.
    max_matches:
        Maximum complex events detected per window.  The paper's
        evaluation uses 1.
    """

    def __init__(
        self,
        pattern: Union[Pattern, Conjunction],
        selection: SelectionPolicy = SelectionPolicy.FIRST,
        consumption: ConsumptionPolicy = ConsumptionPolicy.CONSUMED,
        max_matches: int = 1,
    ) -> None:
        if max_matches <= 0:
            raise ValueError("max_matches must be positive")
        self.pattern = pattern
        self.selection = selection
        self.consumption = consumption
        self.max_matches = max_matches
        steps: Sequence[Step]
        if isinstance(pattern, Conjunction):
            if selection not in (SelectionPolicy.FIRST, SelectionPolicy.LAST) or (
                max_matches != 1
            ):
                raise ValueError(
                    "a conjunction supports only first or last selection with "
                    f"max_matches=1, not {selection.value} with "
                    f"max_matches={max_matches}"
                )
            # one event per spec, each its own: an any step over the window
            steps = (AnyStep(len(pattern.specs), pattern.specs),)
        else:
            steps = pattern.steps
        self._steps = _compile(steps)
        self._mirrored = _compile(tuple(reversed(steps)))

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def match_window(
        self,
        events: Sequence[Event],
        positions: Optional[Sequence[int]] = None,
    ) -> List[Match]:
        """Return up to ``max_matches`` matches in ``events``.

        ``positions[i]`` is the unshedded-window position of
        ``events[i]``; defaults to ``range(len(events))`` when the
        window was not shed.
        """
        if positions is None:
            positions = range(len(events))
        elif len(positions) != len(events):
            raise ValueError("positions and events must align")

        selection = self.selection
        if selection is SelectionPolicy.FIRST:
            return [
                [(positions[i], events[i]) for i in bound]
                for bound in self._select(events, self._steps)
            ]
        if selection is SelectionPolicy.LAST:
            last = len(events) - 1
            mirrored = events[::-1]
            return [
                [(positions[last - i], mirrored[i]) for i in reversed(bound)]
                for bound in self._select(mirrored, self._mirrored)
            ]
        if selection is SelectionPolicy.EACH:
            found: List[List[int]] = []
            self._each(events, 0, 0, [], set(), found)
            return [[(positions[i], events[i]) for i in bound] for bound in found]
        return self._cumulative(events, positions)

    # ------------------------------------------------------------------
    # sequence patterns
    # ------------------------------------------------------------------
    def _select(
        self, events: Sequence[Event], steps: Tuple[Guarded, ...]
    ) -> List[List[int]]:
        """*first* over ``events``: each match as ascending view indices."""
        zero = self.consumption is ConsumptionPolicy.ZERO
        matches: List[List[int]] = []
        consumed: Set[int] = set()
        start = 0
        while len(matches) < self.max_matches:
            bound: List[int] = []
            cursor = start
            for scan, guard, step, following in steps:
                taken = scan(events, cursor, guard, step, following, consumed)
                if taken is None:
                    break
                bound += taken
                cursor = taken[-1] + 1
            else:
                matches.append(bound)
                if zero:
                    start = bound[0] + 1
                else:
                    consumed.update(bound)
                    start = 0
                continue
            if not bound:
                break  # no run of the first step starts at or after start
            # the run died after its anchor (a guard, or events ran out):
            # retry past the dead anchor
            start = bound[0] + 1
        return matches

    def _each(
        self,
        events: Sequence[Event],
        index: int,
        cursor: int,
        bound: List[int],
        consumed: Set[int],
        found: List[List[int]],
    ) -> None:
        """Extend ``bound`` by step ``index`` in every way, in window order."""
        if index == len(self._steps):
            found.append(bound)
            if self.consumption is ConsumptionPolicy.CONSUMED:
                consumed.update(bound)
            return
        scan, guard, step, following = self._steps[index]
        for i in range(cursor, len(events)):
            if len(found) >= self.max_matches or (bound and bound[0] in consumed):
                return  # capped, or a match consumed this prefix
            if i in consumed:
                continue
            event = events[i]
            if guard is not None and guard.matches(event):
                return
            if step.accepts(event):
                taken = scan(events, i, None, step, following, consumed)
                if taken is not None:
                    self._each(
                        events, index + 1, taken[-1] + 1, bound + taken, consumed, found
                    )

    def _cumulative(
        self, events: Sequence[Event], positions: Sequence[int]
    ) -> List[Match]:
        """Fold every instance of every step into one composite match."""
        chosen: Set[int] = set()
        cursor = 0
        for _scan, guard, step, _following in self._steps:
            instances = [
                i for i in range(cursor, len(events)) if step.accepts(events[i])
            ]
            if len(instances) < minimal_count(step):
                return []
            first = instances[0]
            if guard is not None:
                for i in range(cursor, first + 1):
                    if guard.matches(events[i]):
                        return []
            chosen.update(instances)
            cursor = first + 1
        return [[(positions[i], events[i]) for i in sorted(chosen)]]


# ----------------------------------------------------------------------
# compiling and scanning steps
# ----------------------------------------------------------------------
def _compile(steps: Sequence[Step]) -> Tuple[Guarded, ...]:
    """Pair each positive step with its guard, its scan and its follower."""
    positive: List[Tuple[Scan, Optional[EventSpec], Step]] = []
    guard: Optional[EventSpec] = None
    for step in steps:
        if isinstance(step, NegationStep):
            guard = step.spec
            continue
        if isinstance(step, SingleStep):
            scan: Scan = _scan_single
        elif isinstance(step, AnyStep):
            shared = step.distinct_specs and _specs_meet(step.specs)
            scan = partial(_scan_any, shared=True) if shared else _scan_any
        elif isinstance(step, KleeneStep):
            scan = _scan_kleene
        else:
            raise ValueError(f"unknown step type {step!r}")
        positive.append((scan, guard, step))
        guard = None
    following: List[Optional[Step]] = [step for _s, _g, step in positive[1:]]
    following.append(None)
    return tuple(
        (scan, guard, step, after)
        for (scan, guard, step), after in zip(positive, following)
    )


def _specs_meet(specs: Sequence[EventSpec]) -> bool:
    """Whether one event may match two of ``specs``."""
    types = [s.types for s in specs]
    if None in types:  # a spec of any type meets every other spec
        return len(types) > 1
    return len(frozenset().union(*types)) < sum(len(t) for t in types)


def _scan_single(
    events: Sequence[Event],
    start: int,
    guard: Optional[EventSpec],
    step: SingleStep,
    following: Optional[Step],
    consumed: Set[int],
) -> Optional[List[int]]:
    matches = step.spec.matches
    for i in range(start, len(events)):
        if i in consumed:
            continue
        event = events[i]
        if guard is not None and guard.matches(event):
            return None
        if matches(event):
            return [i]
    return None


def _scan_any(
    events: Sequence[Event],
    start: int,
    guard: Optional[EventSpec],
    step: AnyStep,
    following: Optional[Step],
    consumed: Set[int],
    shared: bool = False,
) -> Optional[List[int]]:
    specs = step.specs
    owner: List[Optional[int]] = [None] * len(specs)
    taken: List[int] = []
    for i in range(start, len(events)):
        if i in consumed:
            continue
        event = events[i]
        if guard is not None and not taken and guard.matches(event):
            return None
        if step.distinct_specs:
            for k, s in enumerate(specs):
                if owner[k] is None and s.matches(event):
                    owner[k] = i
                    break
            else:
                # taken specs only: a join needs earlier events to trade
                if not shared or not _assign(i, events, specs, owner):
                    continue
        elif not step.accepts(event):
            continue
        taken.append(i)
        if len(taken) == step.n:
            return taken
    return None


def _assign(
    i: int,
    events: Sequence[Event],
    specs: Sequence[EventSpec],
    owner: List[Optional[int]],
    tried: Optional[Set[int]] = None,
) -> bool:
    """Give event ``i`` a spec of its own: a free one it matches, else
    one whose owner can move to another spec (an augmenting path)."""
    event = events[i]
    for k, s in enumerate(specs):
        if owner[k] is None and s.matches(event):
            owner[k] = i
            return True
    tried = set() if tried is None else tried
    for k, s in enumerate(specs):
        if k in tried or not s.matches(event):
            continue
        tried.add(k)
        holder = owner[k]
        if holder is not None and _assign(holder, events, specs, owner, tried):
            owner[k] = i
            return True
    return False


def _scan_kleene(
    events: Sequence[Event],
    start: int,
    guard: Optional[EventSpec],
    step: KleeneStep,
    following: Optional[Step],
    consumed: Set[int],
) -> Optional[List[int]]:
    matches = step.spec.matches
    taken: List[int] = []
    for i in range(start, len(events)):
        if i in consumed:
            continue
        event = events[i]
        if guard is not None and not taken and guard.matches(event):
            return None
        if matches(event):
            taken.append(i)
            if len(taken) == step.max_count:
                break
        elif (
            following is not None
            and len(taken) >= step.min_count
            and following.accepts(event)
        ):
            break  # the following step takes it from here
    return taken if len(taken) >= step.min_count else None
