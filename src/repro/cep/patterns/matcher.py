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

The specs are compiled too, so a scan tests an event's type with one
lookup and calls no spec method.  A single or kleene step's scan tests
its spec's ``(types, predicate)`` inline.  Every positive step,
negation guard and kleene "following" step also compiles to a table
``type -> ((spec index, predicate or None), ...)`` in spec order, with
each wildcard (``types=None``) spec merged into every entry and into
the default entry of the types no spec names: an event of such a type
reaches no predicate unless a wildcard asks for it.

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
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

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

Predicate = Callable[[Event], bool]

# One type's specs, in spec order: ((spec index, predicate or None), ...).
Entries = Tuple[Tuple[int, Optional[Predicate]], ...]

# Specs as one lookup: (type -> its entries, the entries of any other type).
Table = Tuple[Dict[str, Entries], Entries]

# (events, start, guard, consumed) -> the run's indices or None; the
# step's compiled specs and counts are bound in.
Scan = Callable[..., Optional[List[int]]]

# One compiled step: (scan, negation guard, positive step, its table).
Guarded = Tuple[Scan, Optional[Table], Step, Table]


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
            for scan, guard, _step, _table in steps:
                taken = scan(events, cursor, guard, consumed)
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
        scan, guard, _step, table = self._steps[index]
        for i in range(cursor, len(events)):
            if len(found) >= self.max_matches or (bound and bound[0] in consumed):
                return  # capped, or a match consumed this prefix
            if consumed and i in consumed:
                continue
            event = events[i]
            if guard is not None and _accepts(guard, event):
                return
            if _accepts(table, event):
                taken = scan(events, i, None, consumed)
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
        for _scan, guard, step, table in self._steps:
            instances = [
                i for i in range(cursor, len(events)) if _accepts(table, events[i])
            ]
            if len(instances) < minimal_count(step):
                return []
            first = instances[0]
            if guard is not None:
                for i in range(cursor, first + 1):
                    if _accepts(guard, events[i]):
                        return []
            chosen.update(instances)
            cursor = first + 1
        return [[(positions[i], events[i]) for i in sorted(chosen)]]


# ----------------------------------------------------------------------
# compiling and scanning steps
# ----------------------------------------------------------------------
def _compile(steps: Sequence[Step]) -> Tuple[Guarded, ...]:
    """Pair each positive step with its guard, its scan and its table."""
    positive: List[Tuple[Optional[Table], Step, Table]] = []
    guard: Optional[Table] = None
    for step in steps:
        if isinstance(step, NegationStep):
            guard = _table((step.spec,))
            continue
        if not isinstance(step, (SingleStep, AnyStep, KleeneStep)):
            raise ValueError(f"unknown step type {step!r}")
        specs = step.specs if isinstance(step, AnyStep) else (step.spec,)
        positive.append((guard, step, _table(specs)))
        guard = None
    following: List[Optional[Table]] = [table for _g, _s, table in positive[1:]]
    following.append(None)
    compiled: List[Guarded] = []
    for (guard, step, table), after in zip(positive, following):
        if isinstance(step, SingleStep):
            scan: Scan = partial(_scan_single, step.spec.types, step.spec.predicate)
        elif isinstance(step, AnyStep):
            # whether one event may match two specs (then specs may trade)
            lookups = (table[1], *table[0].values())
            shared = step.distinct_specs and any(len(e) > 1 for e in lookups)
            scan = partial(_scan_any, step, table, shared)
        else:
            scan = partial(_scan_kleene, step, after)
        compiled.append((scan, guard, step, table))
    return tuple(compiled)


def _table(specs: Sequence[EventSpec]) -> Table:
    """``specs`` as one lookup, wildcards merged (see the module docstring)."""

    def entries(name: Optional[str]) -> Entries:
        return tuple(
            (k, s.predicate)
            for k, s in enumerate(specs)
            if s.types is None or name in s.types
        )

    named = frozenset().union(*(s.types for s in specs if s.types is not None))
    return {name: entries(name) for name in named}, entries(None)


def _accepts(table: Table, event: Event) -> bool:
    """Whether a spec of ``table`` matches ``event``."""
    by_type, default = table
    for _k, predicate in by_type.get(event.event_type, default):
        if predicate is None or predicate(event):
            return True
    return False


def _scan_single(
    types: Optional[FrozenSet[str]],
    predicate: Optional[Predicate],
    events: Sequence[Event],
    start: int,
    guard: Optional[Table],
    consumed: Set[int],
) -> Optional[List[int]]:
    for i in range(start, len(events)):
        if consumed and i in consumed:
            continue
        event = events[i]
        if guard is not None and _accepts(guard, event):
            return None
        if (types is None or event.event_type in types) and (
            predicate is None or predicate(event)
        ):
            return [i]
    return None


def _scan_any(
    step: AnyStep,
    table: Table,
    shared: bool,
    events: Sequence[Event],
    start: int,
    guard: Optional[Table],
    consumed: Set[int],
) -> Optional[List[int]]:
    by_type, default = table
    distinct, n = step.distinct_specs, step.n
    owner: List[Optional[int]] = [None] * len(step.specs)
    taken: List[int] = []
    for i in range(start, len(events)):
        if consumed and i in consumed:
            continue
        event = events[i]
        if guard is not None and not taken and _accepts(guard, event):
            return None
        entries = by_type.get(event.event_type, default)
        if distinct:
            for k, predicate in entries:
                if owner[k] is None and (predicate is None or predicate(event)):
                    owner[k] = i
                    break
            else:
                # taken specs only: a join needs earlier events to trade
                if not shared or not _assign(i, events, table, owner):
                    continue
        elif not any(p is None or p(event) for _k, p in entries):
            continue
        taken.append(i)
        if len(taken) == n:
            return taken
    return None


def _assign(
    i: int,
    events: Sequence[Event],
    table: Table,
    owner: List[Optional[int]],
    tried: Optional[Set[int]] = None,
) -> bool:
    """Give event ``i`` a spec of its own: a free one it matches, else
    one whose owner can move to another spec (an augmenting path)."""
    event = events[i]
    entries = table[0].get(event.event_type, table[1])
    for k, predicate in entries:
        if owner[k] is None and (predicate is None or predicate(event)):
            owner[k] = i
            return True
    tried = set() if tried is None else tried
    for k, predicate in entries:
        if k in tried or not (predicate is None or predicate(event)):
            continue
        tried.add(k)
        holder = owner[k]
        if holder is not None and _assign(holder, events, table, owner, tried):
            owner[k] = i
            return True
    return False


def _scan_kleene(
    step: KleeneStep,
    following: Optional[Table],
    events: Sequence[Event],
    start: int,
    guard: Optional[Table],
    consumed: Set[int],
) -> Optional[List[int]]:
    types, predicate = step.spec.types, step.spec.predicate
    low, high = step.min_count, step.max_count
    taken: List[int] = []
    for i in range(start, len(events)):
        if consumed and i in consumed:
            continue
        event = events[i]
        if guard is not None and not taken and _accepts(guard, event):
            return None
        if (types is None or event.event_type in types) and (
            predicate is None or predicate(event)
        ):
            taken.append(i)
            if len(taken) == high:
                break
        elif following is not None and len(taken) >= low and _accepts(following, event):
            break  # the following step takes it from here
    return taken if len(taken) >= low else None
