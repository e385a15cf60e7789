"""Unit tests of the harness's pure helpers (no workload runs here)."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

from helpers import (  # noqa: E402
    Spans,
    detect_latencies,
    digest,
    latency_summary,
    percentile,
    recall_pct,
    self_time_by_name,
    segmented_p95_ms,
    self_times,
    supported_tail,
    worsening,
)


# ----------------------------------------------------------------------
# the ">= 10 samples beyond" percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [
        (39, None),  # p75 would leave 9.75 samples beyond
        (40, 0.75),
        (100, 0.9),
        (199, 0.9),
        (200, 0.95),
        (999, 0.95),
        (1000, 0.99),
        (10000, 0.999),
    ],
)
def test_supported_tail_needs_ten_samples_beyond(count, expected):
    assert supported_tail(count) == expected


def test_latency_summary_reports_ms_and_sample_count():
    summary = latency_summary(i / 1000.0 for i in range(1, 1001))
    assert summary["n"] == 1000
    assert summary["p50_ms"] == pytest.approx(500.5)
    assert summary["tail_pct"] == 99.0
    assert summary["tail_ms"] == pytest.approx(percentile([float(i) for i in range(1, 1001)], 0.99))


def test_latency_summary_of_a_short_series_states_no_tail():
    summary = latency_summary([0.001, 0.002, 0.003])
    assert summary["tail_pct"] is None and summary["tail_ms"] is None
    assert summary["p50_ms"] == pytest.approx(2.0)


def test_percentile_interpolates_and_tolerates_empty_input():
    assert percentile([], 0.5) == 0.0
    assert percentile([1.0, 3.0], 0.5) == 2.0
    assert percentile([1.0, 2.0, 3.0], 1.0) == 3.0


# ----------------------------------------------------------------------
# trigger index -> the chunk (frame) that carried it
# ----------------------------------------------------------------------
def test_detection_latency_counts_from_the_trigger_chunks_offer():
    offered_at = [10.0, 20.0, 30.0]  # three 8-event frames
    triggers = [0, 7, 8, 23]
    stamps = [10.5, 10.6, 20.25, 31.0]
    assert detect_latencies(triggers, stamps, offered_at, 8) == [0.5, pytest.approx(0.6), 0.25, 1.0]


def test_flush_detections_carry_no_latency():
    # a 4th and 5th emission without trigger: end-of-stream flush
    latencies = detect_latencies([3], [1.5, 9.0, 9.1], [1.0], 8)
    assert latencies == [0.5]


def test_a_sliced_pass_stops_at_the_last_offered_chunk():
    # trigger 17 lives in chunk 2, which the slice never offered
    assert detect_latencies([1, 17], [5.5, 9.0], [5.0, 6.0], 8) == [0.5]


def test_digest_is_order_sensitive():
    keys = [("q", 1, (1, 2)), ("q", 2, (3, 4))]
    assert digest(keys) == digest(list(keys))
    assert digest(keys) != digest(reversed(keys))


def test_recall_counts_reference_detections_as_a_multiset():
    reference = [("q", 1, (1, 2)), ("q", 1, (1, 2)), ("q", 2, (3, 4)), ("q", 3, (5, 6))]
    assert recall_pct(reference, reference) == 100.0
    # one of the two twins is missing; an extra detection earns nothing
    assert recall_pct(reference, reference[1:] + [("q", 9, (7, 8))]) == 75.0
    assert recall_pct(reference, []) == 0.0


# ----------------------------------------------------------------------
# bound comparison
# ----------------------------------------------------------------------
def test_worsening_respects_direction():
    assert worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    with pytest.raises(ValueError):
        worsening(1.0, 1.0, "sideways")


def test_improvement_of_any_size_is_within_a_bound():
    assert worsening(100.0, 109.0, "lower") <= 0.10 < worsening(100.0, 111.0, "lower")
    assert worsening(100.0, 10.0, "lower") < 0
    assert worsening(100.0, 89.0, "higher") > 0.10


def test_a_zero_base_only_matches_itself():
    assert worsening(0.0, 0.0, "lower") == 0.0
    assert worsening(0.0, 0.1, "lower") == float("inf")


def test_segmented_p95_ignores_a_burst_confined_to_one_segment():
    calm = [0.001] * 300
    burst = [0.001] * 80 + [0.050] * 20
    # pooled, the burst owns the top 5 %; by segments it owns one of seven
    assert segmented_p95_ms([calm + burst + calm], 7) == pytest.approx(1.0)
    assert segmented_p95_ms([], 3) == 0.0


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------
def _record(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_is_the_span_minus_its_children():
    records = [
        _record("run", 0.0, 10.0, None),
        _record("feed_many", 1.0, 4.0, 0),
        _record("finish", 5.0, 7.0, 0),
        _record("flush", 5.5, 6.5, 2),
    ]
    assert self_times(records) == [5.0, 3.0, 1.0, 1.0]
    assert self_time_by_name(records) == {
        "run": 5.0,
        "feed_many": 3.0,
        "finish": 1.0,
        "flush": 1.0,
    }


def test_spans_nest_and_disabled_spans_record_nothing():
    spans = Spans("w", enabled=True)
    spans.pass_index = 2
    with spans.span("outer"):
        with spans.span("inner"):
            pass
    outer, inner = spans.records
    assert (outer["parent"], inner["parent"]) == (None, 0)
    assert outer["workload"] == "w" and inner["pass"] == 2
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]

    spans.enabled = False
    with spans.span("ignored"):
        pass
    assert len(spans.records) == 2
