"""Per-event latency tracking and latency-bound accounting (Fig. 7).

Latency of an event = completion time − arrival time, both in virtual
seconds.  The tracker keeps the full series (for the Fig. 7 timeline)
plus summary statistics and the count of latency-bound violations.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency series."""

    count: int
    mean: float
    maximum: float
    p50: float
    p95: float
    p99: float
    violations: int
    bound: Optional[float]

    @property
    def violation_pct(self) -> float:
        """% of events whose latency exceeded the bound."""
        if self.count == 0:
            return 0.0
        return 100.0 * self.violations / self.count

    def __str__(self) -> str:
        bound_text = f" bound={self.bound}s" if self.bound is not None else ""
        return (
            f"latency: n={self.count} mean={self.mean * 1000:.1f}ms "
            f"p99={self.p99 * 1000:.1f}ms max={self.maximum * 1000:.1f}ms "
            f"violations={self.violations} ({self.violation_pct:.2f}%){bound_text}"
        )


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an *ascending-sorted* series.

    The single percentile implementation of the repo: latency summaries
    here and histogram summaries in :mod:`repro.obs.registry` both call
    it (directly or via :func:`histogram_quantile`).
    """
    if not ordered:
        return 0.0
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


#: Backwards-compatible alias (pre-obs internal name).
_percentile = percentile


def histogram_quantile(
    bounds: Sequence[float], counts: Sequence[int], fraction: float
) -> float:
    """Estimate a quantile from fixed-bucket histogram counts.

    ``counts`` has one entry per bucket in ``bounds`` order plus a
    final overflow (+Inf) bucket: ``len(counts) == len(bounds) + 1``.
    Interpolates linearly within the containing bucket (the
    ``histogram_quantile`` estimator of Prometheus); values in the
    overflow bucket clamp to the highest finite bound.
    """
    if len(counts) != len(bounds) + 1:
        raise ValueError("counts must have one entry per bound plus overflow")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = fraction * total
    cumulative = 0
    for index, count in enumerate(counts):
        cumulative += count
        if count and cumulative >= rank:
            if index >= len(bounds):
                return float(bounds[-1]) if bounds else 0.0
            lower = float(bounds[index - 1]) if index > 0 else 0.0
            upper = float(bounds[index])
            within = (rank - (cumulative - count)) / count
            return lower + (upper - lower) * within
    return float(bounds[-1]) if bounds else 0.0


class LatencyTracker:
    """Collects (completion time, latency) samples for one run.

    Samples are stored as two ``array('d')`` columns -- 16 bytes per
    sample instead of a tuple and two float objects -- because a run
    keeps one sample per processed event.
    """

    def __init__(self, bound: Optional[float] = None) -> None:
        self.bound = bound
        self._times = array("d")
        self._latencies = array("d")

    def record(self, completion_time: float, latency: float) -> None:
        """Add one event's latency sample."""
        if latency < 0.0:
            raise ValueError("latency cannot be negative")
        self._times.append(completion_time)
        self._latencies.append(latency)

    def extend(
        self, completion_times: Sequence[float], latencies: Sequence[float]
    ) -> None:
        """Add aligned runs of samples (a driver's processed segment)."""
        if len(completion_times) != len(latencies):
            raise ValueError("need one completion time per latency")
        if latencies and min(latencies) < 0.0:
            raise ValueError("latency cannot be negative")
        self._times.extend(completion_times)
        self._latencies.extend(latencies)

    def __len__(self) -> int:
        return len(self._latencies)

    @property
    def series(self) -> List[Tuple[float, float]]:
        """The (time, latency) series in completion order."""
        return list(zip(self._times, self._latencies))

    def latencies(self) -> List[float]:
        """Just the latency values, in completion order."""
        return self._latencies.tolist()

    def stats(self) -> LatencyStats:
        """Summary statistics of the collected series."""
        values = sorted(self._latencies)
        if not values:
            return LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, self.bound)
        violations = 0
        if self.bound is not None:
            violations = sum(1 for v in values if v > self.bound)
        return LatencyStats(
            count=len(values),
            mean=sum(values) / len(values),
            maximum=values[-1],
            p50=percentile(values, 0.50),
            p95=percentile(values, 0.95),
            p99=percentile(values, 0.99),
            violations=violations,
            bound=self.bound,
        )

    def timeline(self, bucket_seconds: float) -> List[Tuple[float, float]]:
        """Mean latency per time bucket -- the Fig. 7 series.

        Returns (bucket end time, mean latency) pairs for non-empty
        buckets, in time order.
        """
        if bucket_seconds <= 0.0:
            raise ValueError("bucket size must be positive")
        buckets: dict = {}
        for completion, latency in zip(self._times, self._latencies):
            index = int(completion / bucket_seconds)
            total, count = buckets.get(index, (0.0, 0))
            buckets[index] = (total + latency, count + 1)
        return [
            ((index + 1) * bucket_seconds, total / count)
            for index, (total, count) in sorted(buckets.items())
        ]
