"""``PatternMatcher`` against its executable spec (``matcher_spec.py``).

Hypothesis draws small patterns over a 4-type alphabet -- single,
``any`` (with and without distinct specs), kleene (min and max counts),
negation guards, conjunctions; specs that accept one or two types, so
steps overlap -- and windows of at most 12 events, optionally with the
non-contiguous positions a shed window has.  Every selection x
consumption x ``max_matches`` in 1..3 must give exactly the spec's
matches.  A second draw adds what the matcher's type dispatch rewrites:
an event type no spec names, wildcard specs, attribute predicates and
guards typed apart from the step they guard.  The named tests below pin
the cases where the spec found the matcher wrong.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matcher_spec
from repro.cep.events import Event
from repro.cep.patterns import (
    AnyStep,
    Conjunction,
    ConsumptionPolicy,
    EventSpec,
    NegationStep,
    PatternMatcher,
    SelectionPolicy,
    any_of,
    kleene,
    seq,
    spec,
)

TYPES = "ABCD"

type_sets = st.sampled_from(
    [frozenset(t) for t in TYPES] + [frozenset("AB"), frozenset("BC"), frozenset("AD")]
)
specs = type_sets.map(spec)


@st.composite
def positive_steps(draw):
    kind = draw(st.sampled_from(["single", "single", "any", "kleene"]))
    if kind == "single":
        return draw(specs)
    if kind == "any":
        distinct = draw(st.booleans())
        options = draw(st.lists(specs, min_size=1, max_size=3))
        n = draw(st.integers(1, len(options) if distinct else 3))
        return any_of(n, options, distinct_specs=distinct)
    low = draw(st.integers(1, 2))
    high = draw(st.one_of(st.none(), st.integers(low, low + 1)))
    return kleene(sorted(draw(type_sets)), min_count=low, max_count=high)


@st.composite
def patterns(draw):
    if draw(st.integers(0, 5)) == 0:
        return Conjunction("c", tuple(draw(st.lists(specs, min_size=1, max_size=3))))
    steps = [draw(positive_steps())]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            steps.append(NegationStep(draw(specs)))
        steps.append(draw(positive_steps()))
    return seq("p", *steps)


@st.composite
def windows(draw):
    names = draw(st.lists(st.sampled_from(TYPES), max_size=12))
    events = [Event(name, i, float(i)) for i, name in enumerate(names)]
    if not draw(st.booleans()):
        return events, None
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(events), max_size=len(events)))
    positions, at = [], -1
    for gap in gaps:
        at += gap
        positions.append(at)
    return events, positions


def seqs(found):
    return [[(pos, event.seq) for pos, event in match] for match in found]


class TestMatcherAgainstSpec:
    @given(
        patterns(),
        windows(),
        st.sampled_from(list(SelectionPolicy)),
        st.sampled_from(list(ConsumptionPolicy)),
        st.integers(1, 3),
    )
    @settings(max_examples=400, deadline=None)
    def test_match_window_equals_spec(
        self, pattern, window, selection, consumption, max_matches
    ):
        events, positions = window
        if not matcher_spec.supported(pattern, selection, max_matches):
            with pytest.raises(ValueError, match="conjunction"):
                PatternMatcher(pattern, selection, consumption, max_matches)
            return
        matcher = PatternMatcher(pattern, selection, consumption, max_matches)
        expected = matcher_spec.matches(
            pattern, events, positions, selection, consumption, max_matches
        )
        assert seqs(matcher.match_window(events, positions)) == seqs(expected)


# ----------------------------------------------------------------------
# the dispatch draw: no spec names "E", None is the wildcard, and a spec
# may also test the event's attribute v == 1
# ----------------------------------------------------------------------
def v_is_1(event):
    return event.attr("v") == 1


wide_type_sets = st.sampled_from(
    [None, frozenset("A"), frozenset("B"), frozenset("C"), frozenset("AB")]
)
wide_specs = st.builds(
    lambda types, tested: spec(types, v_is_1 if tested else None),
    wide_type_sets,
    st.booleans(),
)


def spec_types(step):
    if isinstance(step, EventSpec):
        return {step.types}
    if isinstance(step, AnyStep):
        return {s.types for s in step.specs}
    return {step.spec.types}


@st.composite
def wide_positive_steps(draw):
    kind = draw(st.sampled_from(["single", "any", "kleene"]))
    if kind == "single":
        return draw(wide_specs)
    if kind == "any":
        distinct = draw(st.booleans())
        options = draw(st.lists(wide_specs, min_size=1, max_size=3))
        n = draw(st.integers(1, len(options) if distinct else 3))
        return any_of(n, options, distinct_specs=distinct)
    low = draw(st.integers(1, 2))
    high = draw(st.one_of(st.none(), st.integers(low, low + 1)))
    types = draw(wide_type_sets)
    tested = v_is_1 if draw(st.booleans()) else None
    return kleene(types, min_count=low, max_count=high, predicate=tested)


@st.composite
def wide_patterns(draw):
    if draw(st.integers(0, 5)) == 0:
        specs = draw(st.lists(wide_specs, min_size=1, max_size=3))
        return Conjunction("c", tuple(specs))
    steps = [draw(wide_positive_steps())]
    for _ in range(draw(st.integers(0, 2))):
        step = draw(wide_positive_steps())
        if draw(st.booleans()):
            # a guard typed apart from the step it guards
            types = [None, *map(frozenset, "ABCD")]
            foreign = [t for t in types if t not in spec_types(step)]
            tested = v_is_1 if draw(st.booleans()) else None
            steps.append(NegationStep(spec(draw(st.sampled_from(foreign)), tested)))
        steps.append(step)
    return seq("p", *steps)


@st.composite
def wide_windows(draw):
    drawn = draw(
        st.lists(st.tuples(st.sampled_from("ABCDE"), st.integers(0, 1)), max_size=12)
    )
    return [Event(name, i, float(i), {"v": v}) for i, (name, v) in enumerate(drawn)]


class TestDispatchAgainstSpec:
    @given(
        wide_patterns(),
        wide_windows(),
        st.sampled_from(list(SelectionPolicy)),
        st.sampled_from(list(ConsumptionPolicy)),
        st.integers(1, 3),
    )
    @settings(max_examples=400, deadline=None)
    def test_wildcards_predicates_unnamed_types_and_foreign_guards_equal_spec(
        self, pattern, window, selection, consumption, max_matches
    ):
        if not matcher_spec.supported(pattern, selection, max_matches):
            return
        matcher = PatternMatcher(pattern, selection, consumption, max_matches)
        expected = matcher_spec.matches(
            pattern, window, None, selection, consumption, max_matches
        )
        assert seqs(matcher.match_window(window)) == seqs(expected)


def events(*type_names):
    return [Event(name, i, float(i)) for i, name in enumerate(type_names)]


def match_seqs(found):
    return [[e.seq for _pos, e in match] for match in found]


class TestSpecFindings:
    """Each case disagreed with the matcher before it was fixed."""

    def test_cumulative_honours_negation(self):
        pattern = seq("n", spec("A"), NegationStep(spec("X")), spec("B"))
        window = events("A", "X", "B")
        for selection in SelectionPolicy:
            matcher = PatternMatcher(pattern, selection)
            assert matcher.match_window(window) == [], selection

    def test_cumulative_lists_each_event_once(self):
        matcher = PatternMatcher(
            seq("p", spec("A"), spec("A")), SelectionPolicy.CUMULATIVE
        )
        assert match_seqs(matcher.match_window(events("A", "A"))) == [[0, 1]]

    @pytest.mark.parametrize(
        "selection", [SelectionPolicy.EACH, SelectionPolicy.CUMULATIVE]
    )
    def test_conjunction_rejects_unsupported_selection(self, selection):
        with pytest.raises(ValueError, match=selection.value):
            PatternMatcher(Conjunction("c", (spec("A"), spec("B"))), selection)

    def test_conjunction_rejects_max_matches(self):
        conjunction = Conjunction("c", (spec("A"), spec("B")))
        with pytest.raises(ValueError, match="max_matches=2"):
            PatternMatcher(conjunction, max_matches=2)

    def test_conjunction_with_overlapping_specs(self):
        conjunction = Conjunction("c", (spec(["A", "B"]), spec("A")))
        matcher = PatternMatcher(conjunction)
        assert match_seqs(matcher.match_window(events("A", "B"))) == [[0, 1]]

    def test_any_with_overlapping_specs(self):
        step = any_of(2, [spec(["A", "B"]), spec("A")])
        matcher = PatternMatcher(seq("p", spec("S"), step))
        assert match_seqs(matcher.match_window(events("S", "A", "B"))) == [[0, 1, 2]]

    def test_each_consumed_never_shares_events(self):
        matcher = PatternMatcher(
            seq("p", spec("A"), spec("B"), spec("C")),
            SelectionPolicy.EACH,
            ConsumptionPolicy.CONSUMED,
            max_matches=3,
        )
        window = events("A", "B", "C", "C")
        assert match_seqs(matcher.match_window(window)) == [[0, 1, 2]]

    def test_each_ranges_over_any_step_starts(self):
        matcher = PatternMatcher(
            seq("p", spec("S"), any_of(1, [spec("A")])),
            SelectionPolicy.EACH,
            ConsumptionPolicy.ZERO,
            max_matches=3,
        )
        window = events("S", "A", "A")
        assert match_seqs(matcher.match_window(window)) == [[0, 1], [0, 2]]

    def test_guard_wins_over_the_step_it_guards(self):
        # one event accepted by both the guard and the step after it;
        # last scans backwards, so there the guarded step is the one
        # before the guard
        pattern = seq("p", spec("A"), NegationStep(spec(["B", "C"])), spec("B"))
        for selection in SelectionPolicy:
            matcher = PatternMatcher(pattern, selection)
            expected = [[0, 1]] if selection is SelectionPolicy.LAST else []
            assert match_seqs(matcher.match_window(events("A", "B"))) == expected
        backwards = seq("p", spec("A"), NegationStep(spec(["A", "C"])), spec("B"))
        matcher = PatternMatcher(backwards, SelectionPolicy.LAST)
        assert matcher.match_window(events("A", "B")) == []

