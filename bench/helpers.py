"""Pure helpers of the benchmark harness.

Stdlib only and free of ``repro`` imports, so the unit tests in
``bench/tests`` exercise them without running a workload and the
server child can import them before the library is on its path.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Percentiles a latency series may be summarised at, highest first.
TAIL_CANDIDATES = (0.999, 0.99, 0.95, 0.9, 0.75)
#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def load_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    path = os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending-sorted series."""
    if not ordered:
        return 0.0
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_tail(count: int) -> Optional[float]:
    """The highest candidate percentile with >= 10 samples beyond it.

    ``None`` when not even the lowest candidate is supported: the
    series is then too short to state a tail at all.
    """
    for fraction in TAIL_CANDIDATES:
        # the epsilon absorbs binary noise (200 * (1 - 0.95) < 10.0)
        if count * (1.0 - fraction) >= MIN_SAMPLES_BEYOND - 1e-9:
            return fraction
    return None


def latency_summary(samples_s: Iterable[float]) -> Dict[str, object]:
    """p50/p95/p99 in ms plus the highest supported tail and ``n``."""
    ordered = sorted(samples_s)
    tail = supported_tail(len(ordered))
    return {
        "n": len(ordered),
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p95_ms": percentile(ordered, 0.95) * 1e3,
        "p99_ms": percentile(ordered, 0.99) * 1e3,
        "tail_pct": None if tail is None else tail * 100.0,
        "tail_ms": None if tail is None else percentile(ordered, tail) * 1e3,
    }


def segmented_p95_ms(series: Iterable[Sequence[float]], segments: int) -> float:
    """Median over segments of each segment's own p95, in ms.

    Every series (one pass's samples, in time order) is cut into
    ``segments`` consecutive parts.  A burst of stalls -- hypervisor
    steal, a descheduled load generator -- then moves the result only
    if it covers most of the run, where a pooled p95 moves as soon as
    the burst touches 5 % of the samples.  (A median needs no such
    care: it takes half the samples to move it.)
    """
    p95s = []
    for samples in series:
        size = max(1, -(-len(samples) // segments))
        for start in range(0, len(samples), size):
            part = sorted(samples[start : start + size])
            p95s.append(percentile(part, 0.95) * 1e3)
    return statistics.median(p95s) if p95s else 0.0


# ----------------------------------------------------------------------
# detections -> the chunk that carried their trigger event
# ----------------------------------------------------------------------
def detect_latencies(
    trigger_indices: Sequence[int],
    emit_stamps: Sequence[float],
    offered_at: Sequence[float],
    chunk_events: int,
) -> List[float]:
    """Per-detection latency: emission minus the trigger chunk's offer.

    Detection ``i`` of a run is detection ``i`` of the per-event
    reference run (the one-connection stream is identically ordered),
    whose trigger is event ``trigger_indices[i]``; that event travelled
    in chunk ``index // chunk_events``, offered at ``offered_at[...]``.
    Detections beyond the trigger list -- or, when only a slice of the
    stream was offered, beyond the last offered chunk -- are
    end-of-stream flush detections and carry no latency.
    """
    latencies = []
    for index, stamp in zip(trigger_indices, emit_stamps):
        chunk = index // chunk_events
        if chunk >= len(offered_at):
            break
        latencies.append(stamp - offered_at[chunk])
    return latencies


def digest(keys: Iterable[object]) -> str:
    """sha256 over the ordered detection keys (the bit-identity check)."""
    sha = hashlib.sha256()
    for key in keys:
        sha.update(repr(key).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def recall_pct(reference: Sequence[object], produced: Iterable[object]) -> float:
    """Share of the reference detections (a multiset of keys) produced."""
    missing = collections.Counter(reference) - collections.Counter(produced)
    return 100.0 * (1.0 - sum(missing.values()) / len(reference))


# ----------------------------------------------------------------------
# comparing two measurements of one metric
# ----------------------------------------------------------------------
def worsening(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse (negative = better)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


# ----------------------------------------------------------------------
# harness spans (kept in memory, written out when the run ends)
# ----------------------------------------------------------------------
class Spans:
    """In-memory span log: ``{name, start, end, parent, workload, pass}``.

    Disabled (the measured passes) it records nothing and ``span`` is
    an empty context, so end-to-end numbers never pay for tracing.
    """

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.pass_index = 0
        self.records: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "pass": self.pass_index,
        }
        self.records.append(record)
        self._stack.append(len(self.records) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


def self_times(records: Sequence[Dict[str, object]]) -> List[float]:
    """Self time per span: its duration minus its children's.

    Children of one parent are sequential (one thread records them), so
    the part of the parent's interval they cover is their summed length.
    """
    durations = [float(r["end"]) - float(r["start"]) for r in records]
    own = list(durations)
    for record, duration in zip(records, durations):
        if record["parent"] is not None:
            own[record["parent"]] -= duration
    return own


def self_time_by_name(records: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Summed self seconds per span name."""
    totals: Dict[str, float] = {}
    for record, own in zip(records, self_times(records)):
        totals[str(record["name"])] = totals.get(str(record["name"]), 0.0) + own
    return totals


# ----------------------------------------------------------------------
# noise canary
# ----------------------------------------------------------------------
CANARY_ITERATIONS = 1_000_000
CANARY_REPEATS = 3


def spin_canary() -> float:
    """Operations per second of a fixed pure-Python spin (best of 3).

    Run before and after a workload: if the two differ by more than
    10 % the box changed speed under the measurement and the run is
    marked noisy.  The best of a few short spins ignores a one-off
    preemption and still sees a box that stays slow.
    """
    best = float("inf")
    for _ in range(CANARY_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(CANARY_ITERATIONS):
            total += i & 7
        best = min(best, time.perf_counter() - start)
    return CANARY_ITERATIONS / best
