"""The virtual-time driver's batch budget: counts, not timings.

Replaying the paper's experiment should cost the operator's work plus a
scheduler round per batch boundary, not per event.  Over a deployed Q3
run on a 3 000-event stock stream at R = 1.4 th, the driver may hand
each chain one ingress batch per detector tick interval (plus the
first), and one egress batch per window-closing item (shedding cuts
there), per tick on either side of which a segment must stop, plus one.
A per-event driver makes one ingress call per arrival run and one
egress call per item -- thousands here -- so the budget fails loudly if
per-item stepping ever comes back.
"""

import pytest

from repro.experiments import workloads as datasets
from repro.pipeline import Pipeline
from repro.pipeline.pipeline import QueryChain
from repro.queries import build_q3


@pytest.fixture(scope="module")
def budget():
    train, stream = datasets.stock_streams_q3(ticks=120, seed=3)
    assert len(stream) == 3000
    pipeline = (
        Pipeline.builder()
        .query(build_q3(300))
        .shedder("espice", f=0.8, seed=3)
        .latency_bound(1.0)
        .build()
        .train(train)
        .deploy(expected_throughput=1000.0, expected_input_rate=1400.0)
    )
    chain = pipeline.chains[0]
    calls = {"ingress": 0, "egress": 0}
    ingest_batch, decide = chain.ingest_batch, chain.decide

    def counted_ingest(batch):
        calls["ingress"] += 1
        return ingest_batch(batch)

    def counted_decide(segment):
        calls["egress"] += 1
        decide(segment)

    chain.ingest_batch = counted_ingest
    chain.decide = counted_decide  # every egress batch is decided once
    result = pipeline.simulate(stream, input_rate=1400.0, throughput=1000.0)
    closing = sum(1 for r in chain.query.new_assigner().on_events(stream) if r.closed)
    return calls, len(result.detector.samples), closing, result


def test_the_run_is_overloaded_and_shedding(budget):
    _calls, checks, closing, result = budget
    assert result.operator_stats.events_processed == 3000
    assert result.operator_stats.memberships_dropped > 0
    assert checks > 10 and closing > 10


def test_ingress_once_per_tick_interval(budget):
    calls, checks, _closing, _result = budget
    assert calls["ingress"] <= checks + 1


def test_egress_once_per_segment(budget):
    calls, checks, closing, _result = budget
    assert calls["egress"] <= closing + 2 * checks + 1


def test_no_per_item_egress_entry_point():
    assert not hasattr(QueryChain, "process_item")
