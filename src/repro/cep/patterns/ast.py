"""Pattern abstract syntax: event specs, sequence steps, conjunction.

The constructors :func:`spec`, :func:`seq` and :func:`any_of` form a
small builder API::

    # Q1: a striker possession followed by any 3 defender events
    pattern = seq(
        "man_marking",
        spec("STR"),
        any_of(3, [spec(f"DF{i}") for i in range(1, 8)]),
    )

Specs match on the event type name and, optionally, an attribute
predicate.  A spec with ``types=None`` matches any type (used by
wildcard steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Union

from repro.cep.events import Event


@dataclass(frozen=True)
class EventSpec:
    """Matches a primitive event by type and optional predicate.

    Attributes
    ----------
    types:
        Frozen set of accepted type names, or ``None`` for any type.
    predicate:
        Optional attribute predicate; the event must satisfy it.
    label:
        Human-readable name used in reprs and complex-event payloads.
    """

    types: Optional[FrozenSet[str]]
    predicate: Optional[Callable[[Event], bool]] = field(
        default=None, compare=False, hash=False
    )
    label: str = ""

    def matches(self, event: Event) -> bool:
        """True iff ``event`` satisfies this spec."""
        if self.types is not None and event.event_type not in self.types:
            return False
        if self.predicate is not None and not self.predicate(event):
            return False
        return True

    def __repr__(self) -> str:
        if self.label:
            return f"Spec({self.label})"
        if self.types is None:
            return "Spec(*)"
        return f"Spec({'|'.join(sorted(self.types))})"


def spec(
    types: Union[str, Iterable[str], None],
    predicate: Optional[Callable[[Event], bool]] = None,
    label: str = "",
) -> EventSpec:
    """Build an :class:`EventSpec` from a type name, iterable or ``None``."""
    if types is None:
        frozen: Optional[FrozenSet[str]] = None
    elif isinstance(types, str):
        frozen = frozenset([types])
    else:
        frozen = frozenset(types)
    if not label:
        label = "*" if frozen is None else "|".join(sorted(frozen))
    return EventSpec(frozen, predicate, label)


class Step:
    """Base class for one step of a sequence pattern."""

    def accepts(self, event: Event) -> bool:
        """True iff ``event`` can participate in this step."""
        raise NotImplementedError


@dataclass(frozen=True)
class SingleStep(Step):
    """A step matched by exactly one event."""

    spec: EventSpec

    def accepts(self, event: Event) -> bool:
        return self.spec.matches(event)

    def __repr__(self) -> str:
        return f"Single({self.spec!r})"


@dataclass(frozen=True)
class AnyStep(Step):
    """The ``any(n, s1..sm)`` operator: ``n`` events, each matching any spec.

    With ``distinct_specs=True`` (default, matching Q1/Q2 semantics: "any
    *n* defenders", "any *n* rising stocks") each spec may contribute at
    most one event to the step.
    """

    n: int
    specs: tuple
    distinct_specs: bool = True

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("any-step requires n >= 1")
        if self.distinct_specs and self.n > len(self.specs):
            raise ValueError(
                f"any({self.n}) over {len(self.specs)} distinct specs can never match"
            )

    def accepts(self, event: Event) -> bool:
        return any(s.matches(event) for s in self.specs)

    def __repr__(self) -> str:
        return f"Any({self.n} of {len(self.specs)} specs)"


@dataclass(frozen=True)
class NegationStep(Step):
    """An event that must *not* occur between the adjacent steps."""

    spec: EventSpec

    def accepts(self, event: Event) -> bool:
        return self.spec.matches(event)

    def __repr__(self) -> str:
        return f"Not({self.spec!r})"


@dataclass(frozen=True)
class KleeneStep(Step):
    """SASE's Kleene-plus: one or more consecutive-relevant events.

    Matches a maximal greedy run of events satisfying ``spec`` (with
    skip-till-next semantics, irrelevant events between occurrences are
    skipped, but once ``min_count`` occurrences are held an event that
    the *next* step accepts and ``spec`` does not ends the run).  At
    least ``min_count`` occurrences are required; ``max_count`` bounds
    greed (``None`` = unbounded).
    """

    spec: EventSpec
    min_count: int = 1
    max_count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_count <= 0:
            raise ValueError("kleene step needs min_count >= 1")
        if self.max_count is not None and self.max_count < self.min_count:
            raise ValueError("max_count cannot be below min_count")

    def accepts(self, event: Event) -> bool:
        return self.spec.matches(event)

    def __repr__(self) -> str:
        bound = "∞" if self.max_count is None else str(self.max_count)
        return f"Kleene({self.spec!r}, {self.min_count}..{bound})"


@dataclass(frozen=True)
class Pattern:
    """A named sequence pattern.

    ``steps`` are matched in order with skip-till-next/any-match
    semantics: events not relevant to the current step are skipped.
    """

    name: str
    steps: tuple

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("pattern needs at least one step")
        negated = [isinstance(step, NegationStep) for step in self.steps]
        if negated[0] or negated[-1] or any(
            a and b for a, b in zip(negated, negated[1:])
        ):
            raise ValueError("negation must sit between two positive steps")

    @property
    def positive_steps(self) -> List[Step]:
        """Steps that consume events (everything but negations)."""
        return [s for s in self.steps if not isinstance(s, NegationStep)]

    def match_size(self) -> int:
        """Number of primitive events in one *minimal* full match."""
        return sum(minimal_count(step) for step in self.positive_steps)

    def event_type_repetitions(self) -> dict:
        """Count how often each type name is referenced by the pattern.

        Used by the BL baseline shedder, which assigns utility
        proportional to a type's repetition in the pattern.  Types
        referenced through an any-step contribute the step's share
        ``n / len(specs)`` to each referenced type.
        """
        counts: dict = {}
        for step in self.positive_steps:
            if isinstance(step, SingleStep):
                for name in step.spec.types or ():
                    counts[name] = counts.get(name, 0.0) + 1.0
            elif isinstance(step, KleeneStep):
                for name in step.spec.types or ():
                    counts[name] = counts.get(name, 0.0) + float(step.min_count)
            elif isinstance(step, AnyStep):
                share = step.n / len(step.specs)
                for s in step.specs:
                    for name in s.types or ():
                        counts[name] = counts.get(name, 0.0) + share
        return counts

    def referenced_types(self) -> FrozenSet[str]:
        """All type names referenced by any positive step."""
        names: set = set()
        for step in self.positive_steps:
            specs = step.specs if isinstance(step, AnyStep) else (step.spec,)
            for s in specs:
                if s.types is not None:
                    names.update(s.types)
        return frozenset(names)

    def __repr__(self) -> str:
        return f"Pattern({self.name}, {len(self.steps)} steps)"


def minimal_count(step: Step) -> int:
    """Events one step binds at least: ``n``, ``min_count``, else 1."""
    if isinstance(step, AnyStep):
        return step.n
    if isinstance(step, KleeneStep):
        return step.min_count
    return 1


def kleene(
    types: Union[str, Iterable[str], None],
    min_count: int = 1,
    max_count: Optional[int] = None,
    predicate: Optional[Callable[[Event], bool]] = None,
) -> KleeneStep:
    """Build a Kleene-plus step over a type set."""
    return KleeneStep(spec(types, predicate), min_count, max_count)


def seq(name: str, *steps: Union[Step, EventSpec]) -> Pattern:
    """Build a sequence pattern; bare specs are wrapped in single steps."""
    wrapped: List[Step] = []
    for s in steps:
        if isinstance(s, EventSpec):
            wrapped.append(SingleStep(s))
        elif isinstance(s, Step):
            wrapped.append(s)
        else:
            raise TypeError(f"not a step or spec: {s!r}")
    return Pattern(name, tuple(wrapped))


def any_of(
    n: int, specs: Sequence[EventSpec], distinct_specs: bool = True
) -> AnyStep:
    """Build an ``any(n, ...)`` step."""
    return AnyStep(n, tuple(specs), distinct_specs)


@dataclass(frozen=True)
class Conjunction:
    """Unordered co-occurrence of specs within one window.

    This models the paper's introductory QE example (``B() and A()
    within 1min``).  A match is one event per spec, in any order.
    """

    name: str
    specs: tuple

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("conjunction needs at least one spec")

    def match_size(self) -> int:
        """Number of primitive events in one full match."""
        return len(self.specs)

    def event_type_repetitions(self) -> dict:
        counts: dict = {}
        for s in self.specs:
            for name in s.types or ():
                counts[name] = counts.get(name, 0.0) + 1.0
        return counts

    def referenced_types(self) -> FrozenSet[str]:
        names: set = set()
        for s in self.specs:
            if s.types is not None:
                names.update(s.types)
        return frozenset(names)

    def __repr__(self) -> str:
        return f"Conjunction({self.name}, {len(self.specs)} specs)"
