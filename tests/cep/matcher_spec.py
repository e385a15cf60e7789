"""Executable spec of pattern matching (``PatternMatcher.match_window``).

The one oracle the matcher is held to.  It is written naively from the
documented semantics (``repro.cep.patterns.matcher``'s module
docstring), by brute force: it lists every candidate binding of the
pattern -- every choice of window events for every step -- keeps the
ones the rules below allow, and picks from them in window order.  It
reads only the pattern's AST (steps, specs, counts, ``accepts`` and
``matches``) and shares no code with the matcher: no compiled step
list, no scan cursor, no retry past a dead anchor, no per-step scans,
no spec re-assignment.

A binding is a tuple of view indices (indices into the events passed
in), ascending; bindings compare as tuples, which is "window order".

The rules, per step ``j`` of a binding (``prev`` is the last index of
step ``j-1``, or -1 for the first step; ``s`` is the step's first index):

- run: the step's indices from ``s`` on are a run (:func:`runs`);
- guard: a negation before step ``j`` accepts no visible event in
  ``(prev, s]`` -- the guard wins on an event the step accepts too;
- first: ``s`` is the first visible event after ``prev`` that step
  ``j`` accepts (``j > 0``); each: any accepted event after ``prev``.

*last* is *first* on the reversed window with the steps reversed.

Where this spec and the matcher at the time of writing disagreed, the
spec is right and the matcher was changed:

- cumulative ignored negation guards;
- cumulative listed an event twice when two steps accepted it;
- each under consumed went on extending a prefix whose events a match
  had just consumed, so two reported matches shared events;
- each bound an any/kleene step only from the first event after the
  previous step, while its single steps ranged over every event;
- an any step with distinct specs gave each event its first free spec,
  and a conjunction gave each spec, in order, its earliest free event:
  both missed matches when specs overlap (``any(2, A|B, A)`` and
  ``and(A|B, A)`` over ``A B``);
- a conjunction ignored ``max_matches``, ``consumption`` and
  each/cumulative without saying so -- those settings are now rejected.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import List, Optional, Sequence, Tuple

from repro.cep.patterns.ast import (
    AnyStep,
    Conjunction,
    KleeneStep,
    NegationStep,
    Pattern,
)
from repro.cep.patterns.policies import ConsumptionPolicy, SelectionPolicy

Binding = Tuple[int, ...]


def supported(pattern, selection, max_matches) -> bool:
    """Whether the matcher accepts this setting (conjunctions: not all)."""
    if not isinstance(pattern, Conjunction):
        return True
    return max_matches == 1 and selection in (
        SelectionPolicy.FIRST,
        SelectionPolicy.LAST,
    )


def matches(
    pattern,
    events: Sequence,
    positions: Optional[Sequence[int]] = None,
    selection: SelectionPolicy = SelectionPolicy.FIRST,
    consumption: ConsumptionPolicy = ConsumptionPolicy.CONSUMED,
    max_matches: int = 1,
) -> List[List[tuple]]:
    """What ``match_window`` must return: ``[[(position, event), ...]]``."""
    if positions is None:
        positions = range(len(events))
    view = list(events)
    steps = [] if isinstance(pattern, Conjunction) else list(pattern.steps)
    if selection is SelectionPolicy.LAST:
        # the mirror image: reversed window, reversed steps, then back
        last = len(view) - 1
        found = _first(pattern, steps[::-1], view[::-1], consumption, max_matches)
        found = [tuple(last - i for i in binding) for binding in found]
    elif selection is SelectionPolicy.FIRST:
        found = _first(pattern, steps, view, consumption, max_matches)
    elif selection is SelectionPolicy.EACH:
        found = _each(steps, view, consumption, max_matches)
    else:
        found = _cumulative(steps, view)
    return [[(positions[i], events[i]) for i in sorted(b)] for b in found]


# ----------------------------------------------------------------------
# selection and consumption
# ----------------------------------------------------------------------
def _first(pattern, steps, view, consumption, max_matches) -> List[Binding]:
    """Earliest-anchored bindings, one after another."""
    found: List[Binding] = []
    consumed: set = set()
    while len(found) < max_matches:
        visible = [i for i in range(len(view)) if i not in consumed]
        if isinstance(pattern, Conjunction):
            candidates = _conjunction_bindings(pattern.specs, view, visible)
        else:
            candidates = _bindings(steps, view, visible, next_only=True)
        if consumption is ConsumptionPolicy.ZERO and found:
            candidates = [b for b in candidates if b[0] > found[-1][0]]
        if not candidates:
            break
        found.append(candidates[0])
        if consumption is ConsumptionPolicy.CONSUMED:
            consumed.update(candidates[0])
    return found


def _each(steps, view, consumption, max_matches) -> List[Binding]:
    """Every binding in window order; under consumed, none reuses an event."""
    found: List[Binding] = []
    consumed: set = set()
    while len(found) < max_matches:
        visible = [i for i in range(len(view)) if i not in consumed]
        candidates = [
            b
            for b in _bindings(steps, view, visible, next_only=False)
            if not found or b > found[-1]
        ]
        if not candidates:
            break
        found.append(candidates[0])
        if consumption is ConsumptionPolicy.CONSUMED:
            consumed.update(candidates[0])
    return found


def _cumulative(steps, view) -> List[Binding]:
    """One match holding every instance of every step.

    Step ``j``'s instances are the events after step ``j-1``'s first
    instance that it accepts.  Each step needs its minimal count, and
    its guard must accept nothing from just after the previous first
    instance up to and including its own first instance.
    """
    chosen: set = set()
    previous_first = -1
    for guard, step, _following in _guarded(steps):
        instances = [
            i for i in range(len(view))
            if i > previous_first and step.accepts(view[i])
        ]
        if len(instances) < _least(step):
            return []
        gap = range(previous_first + 1, instances[0] + 1)
        if guard is not None and any(guard.accepts(view[i]) for i in gap):
            return []
        chosen.update(instances)
        previous_first = instances[0]
    return [tuple(sorted(chosen))]


# ----------------------------------------------------------------------
# candidate bindings
# ----------------------------------------------------------------------
def _guarded(steps) -> list:
    """``(negation just before it or None, positive step, next positive
    step or None)`` for every positive step, in pattern order."""
    steps = list(steps)
    out = []
    for k, step in enumerate(steps):
        if isinstance(step, NegationStep):
            continue
        before = steps[k - 1] if k > 0 else None
        guard = before if isinstance(before, NegationStep) else None
        later = [t for t in steps[k + 1:] if not isinstance(t, NegationStep)]
        out.append((guard, step, later[0] if later else None))
    return out


def _least(step) -> int:
    return Pattern("least", (step,)).match_size()


def _bindings(steps, view, visible, next_only: bool) -> List[Binding]:
    """Every binding the rules allow, in window order."""
    guarded = _guarded(steps)
    out: List[Binding] = []

    def extend(j: int, prev: int, bound: Binding) -> None:
        if j == len(guarded):
            out.append(bound)
            return
        guard, step, following = guarded[j]
        after = [i for i in visible if i > prev]
        starts = [i for i in after if step.accepts(view[i])]
        if next_only and j > 0:
            starts = starts[:1]
        for s in starts:
            gap = [i for i in after if i <= s]
            if guard is not None and any(guard.accepts(view[i]) for i in gap):
                continue
            for run in runs(step, following, view, visible, s):
                extend(j + 1, run[-1], bound + run)

    extend(0, -1, ())
    return sorted(out)


def runs(step, following, view, visible, s) -> List[Binding]:
    """Every run ``step`` may bind that starts at visible index ``s``.

    - single: ``(s,)``.
    - any(n): ``n`` indices from ``s``; walking the visible events from
      the first to the last, an event is in the run exactly when it can
      join the run's earlier events: with distinct specs, when all of
      them can each have a spec of their own; without, when it matches
      any spec.
    - kleene: every visible event its spec matches from ``s`` to the
      run's end; ``min_count`` to ``max_count`` of them; no event inside
      the run is a *stop* (accepted by the following step, not by the
      kleene spec, with ``min_count`` already held); and the run cannot
      grow: it holds ``max_count``, or the next visible event the spec
      or the following step accepts is a stop, or there is none.
    """
    later = [i for i in visible if i > s]
    if isinstance(step, AnyStep):
        return [
            (s,) + rest
            for rest in combinations(later, step.n - 1)
            if _any_run(step, view, visible, (s,) + rest)
        ]
    if isinstance(step, KleeneStep):
        found = []
        for end in [s] + later:
            run = tuple(
                i for i in [s] + later if i <= end and step.spec.matches(view[i])
            )
            if run[-1] == end and _kleene_run(step, following, view, visible, run):
                found.append(run)
        return found
    return [(s,)]


def _any_run(step: AnyStep, view, visible, run: Binding) -> bool:
    joined: list = []
    for i in visible:
        if not run[0] <= i <= run[-1]:
            continue
        if step.distinct_specs:
            fits = _assignable(step.specs, view, joined + [i])
        else:
            fits = step.accepts(view[i])
        if (i in run) != fits:
            return False
        if fits:
            joined.append(i)
    return True


def _assignable(specs, view, indices) -> bool:
    """Whether each event can have a spec of its own that it matches."""
    return any(
        all(specs[k].matches(view[i]) for k, i in zip(chosen, indices))
        for chosen in permutations(range(len(specs)), len(indices))
    )


def _kleene_run(step: KleeneStep, following, view, visible, run: Binding) -> bool:
    if len(run) < step.min_count:
        return False
    if step.max_count is not None and len(run) > step.max_count:
        return False

    def is_stop(i: int, held: int) -> bool:
        return (
            following is not None
            and held >= step.min_count
            and following.accepts(view[i])
            and not step.spec.matches(view[i])
        )

    inside = [i for i in visible if run[0] < i < run[-1] and i not in run]
    if any(is_stop(i, sum(1 for r in run if r < i)) for i in inside):
        return False
    if step.max_count is not None and len(run) == step.max_count:
        return True
    beyond = [
        i for i in visible
        if i > run[-1]
        and (step.spec.matches(view[i]) or is_stop(i, len(run)))
    ]
    return not beyond or is_stop(beyond[0], len(run))


def _conjunction_bindings(specs, view, visible) -> List[Binding]:
    """Every set of events giving each spec its own event, in window order."""
    return [
        chosen
        for chosen in combinations(visible, len(specs))
        if _assignable(specs, view, chosen)
    ]
