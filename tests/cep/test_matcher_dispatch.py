"""The matcher tests an event's type with one table lookup.

No scan calls ``EventSpec.matches`` or ``Step.accepts`` (those serve the
spec oracle), and an event whose type no step or guard names reaches no
predicate.  The calls are counted by wrapping the methods, so this pins
the structure of the matching path independently of timing.
"""

import pytest

from repro.cep.events import Event
from repro.cep.operator.operator import CEPOperator
from repro.cep.patterns import (
    AnyStep,
    ConsumptionPolicy,
    EventSpec,
    KleeneStep,
    NegationStep,
    PatternMatcher,
    SelectionPolicy,
    SingleStep,
    Step,
    any_of,
    kleene,
    seq,
    spec,
)
from repro.datasets import SoccerStreamConfig, generate_soccer_stream
from repro.experiments import workloads as datasets
from repro.pipeline import Pipeline
from repro.queries import build_q1, build_q3


@pytest.fixture
def spec_calls(monkeypatch):
    """Counts ``EventSpec.matches`` and ``Step.accepts`` calls."""
    count = {"calls": 0}
    for owner in (EventSpec, Step, SingleStep, AnyStep, NegationStep, KleeneStep):
        name = "matches" if owner is EventSpec else "accepts"
        method = getattr(owner, name)

        def counting(self, event, method=method):
            count["calls"] += 1
            return method(self, event)

        monkeypatch.setattr(owner, name, counting)
    return count


def test_q1_feed_many_calls_no_spec_method(spec_calls):
    stream = list(generate_soccer_stream(SoccerStreamConfig(duration_seconds=300)))
    pipeline = (
        Pipeline.builder()
        .query(build_q1(pattern_size=2, window_seconds=15.0))
        .batch(16)
        .build()
    )
    name = pipeline.chains[0].query.name
    detected = []
    for at in range(0, len(stream), 64):
        detected += pipeline.feed_many(stream[at : at + 64])[name]
    detected += pipeline.finish()[name]
    assert detected
    assert spec_calls["calls"] == 0


@pytest.mark.parametrize("selection", [SelectionPolicy.FIRST, SelectionPolicy.LAST])
def test_q3_detect_all_calls_no_spec_method(spec_calls, selection):
    _train, live = datasets.stock_streams_q3(ticks=120, seed=3)
    assert CEPOperator(build_q3(300, selection=selection)).detect_all(live)
    assert spec_calls["calls"] == 0


def test_the_counter_sees_spec_calls(spec_calls):
    assert SingleStep(spec("A")).accepts(Event("A", 0, 0.0))
    assert spec_calls["calls"] == 2  # the step's accepts and its spec's matches


@pytest.mark.parametrize("selection", list(SelectionPolicy))
@pytest.mark.parametrize("consumption", list(ConsumptionPolicy))
def test_an_unnamed_type_reaches_no_predicate(selection, consumption):
    seen = []

    def tested(event):
        seen.append(event.event_type)
        return True

    pattern = seq(
        "p",
        spec("A", tested),
        NegationStep(spec("N", tested)),
        any_of(2, [spec("B", tested), spec(["B", "C"], tested)]),
        kleene("C", min_count=1, predicate=tested),
        spec("D", tested),
    )
    window = [Event(t, i, float(i)) for i, t in enumerate("AZBZBZCZDZ")]
    matcher = PatternMatcher(pattern, selection, consumption, max_matches=2)
    assert matcher.match_window(window)
    assert seen and "Z" not in seen
