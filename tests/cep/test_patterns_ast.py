"""Unit tests for the pattern AST (repro.cep.patterns.ast)."""

import pytest

from repro.cep.events import Event
from repro.cep.patterns.ast import (
    AnyStep,
    Conjunction,
    NegationStep,
    Pattern,
    SingleStep,
    any_of,
    seq,
    spec,
)


def ev(type_name, **attrs):
    return Event(type_name, 0, 0.0, attrs)


class TestEventSpec:
    def test_single_type(self):
        s = spec("A")
        assert s.matches(ev("A"))
        assert not s.matches(ev("B"))

    def test_multiple_types(self):
        s = spec(["A", "B"])
        assert s.matches(ev("A"))
        assert s.matches(ev("B"))
        assert not s.matches(ev("C"))

    def test_wildcard(self):
        s = spec(None)
        assert s.matches(ev("anything"))

    def test_predicate(self):
        s = spec("A", predicate=lambda e: e.attr("v", 0) > 5)
        assert s.matches(ev("A", v=6))
        assert not s.matches(ev("A", v=3))
        assert not s.matches(ev("B", v=6))

    def test_default_label(self):
        assert spec(["B", "A"]).label == "A|B"
        assert spec(None).label == "*"


class TestSteps:
    def test_single_step_accepts(self):
        step = SingleStep(spec("A"))
        assert step.accepts(ev("A"))
        assert not step.accepts(ev("B"))

    def test_any_step_accepts_any_spec(self):
        step = any_of(2, [spec("A"), spec("B"), spec("C")])
        assert step.accepts(ev("B"))
        assert not step.accepts(ev("Z"))

    def test_any_step_validates_n(self):
        with pytest.raises(ValueError):
            AnyStep(0, (spec("A"),))
        with pytest.raises(ValueError):
            any_of(3, [spec("A"), spec("B")])  # distinct specs, n too big

    def test_any_step_without_distinct_allows_large_n(self):
        step = any_of(5, [spec("A")], distinct_specs=False)
        assert step.n == 5


class TestPattern:
    def test_requires_steps(self):
        with pytest.raises(ValueError):
            Pattern("p", ())

    def test_negation_cannot_be_first_or_last(self):
        neg = NegationStep(spec("X"))
        with pytest.raises(ValueError):
            Pattern("p", (neg, SingleStep(spec("A"))))
        with pytest.raises(ValueError):
            Pattern("p", (SingleStep(spec("A")), neg))

    def test_negations_cannot_be_adjacent(self):
        a, b = SingleStep(spec("A")), SingleStep(spec("B"))
        with pytest.raises(ValueError, match="negation"):
            Pattern("p", (a, NegationStep(spec("X")), NegationStep(spec("Y")), b))

    def test_match_size_counts_any_steps(self):
        pattern = seq("p", spec("A"), any_of(3, [spec(f"B{i}") for i in range(5)]))
        assert pattern.match_size() == 4

    def test_match_size_ignores_negation(self):
        pattern = seq("p", spec("A"), NegationStep(spec("X")), spec("B"))
        assert pattern.match_size() == 2

    def test_repetitions_single_steps(self):
        pattern = seq("p", spec("A"), spec("B"), spec("A"))
        reps = pattern.event_type_repetitions()
        assert reps == {"A": 2.0, "B": 1.0}

    def test_repetitions_any_step_shares(self):
        pattern = seq("p", any_of(2, [spec("A"), spec("B"), spec("C"), spec("D")]))
        reps = pattern.event_type_repetitions()
        assert reps["A"] == pytest.approx(0.5)
        assert sum(reps.values()) == pytest.approx(2.0)

    def test_referenced_types(self):
        pattern = seq("p", spec("A"), any_of(1, [spec("B"), spec("C")]))
        assert pattern.referenced_types() == frozenset({"A", "B", "C"})

    def test_seq_wraps_bare_specs(self):
        pattern = seq("p", spec("A"), spec("B"))
        assert all(isinstance(s, SingleStep) for s in pattern.steps)

    def test_seq_rejects_garbage(self):
        with pytest.raises(TypeError):
            seq("p", "not-a-spec")


class TestConjunction:
    def test_requires_specs(self):
        with pytest.raises(ValueError):
            Conjunction("c", ())

    def test_match_size(self):
        conj = Conjunction("c", (spec("A"), spec("B")))
        assert conj.match_size() == 2

    def test_repetitions(self):
        conj = Conjunction("c", (spec("A"), spec("A"), spec("B")))
        assert conj.event_type_repetitions() == {"A": 2.0, "B": 1.0}

    def test_referenced_types(self):
        conj = Conjunction("c", (spec("A"), spec(["B", "C"])))
        assert conj.referenced_types() == frozenset({"A", "B", "C"})
