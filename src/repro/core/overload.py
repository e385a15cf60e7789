"""Overload detection (paper §3.4).

The overload detector periodically inspects the operator's input queue
and estimates the latency an incoming event would incur:
``l(e) = l(q) + l(p) = qsize · l(p) + l(p)``.  From the latency bound
``LB`` it derives the maximum tolerable queue size ``qmax = LB / l(p)``
and triggers shedding when ``qsize > f · qmax``.

When triggered it computes the *dropping amount*: with input rate ``R``
and operator throughput ``th = 1 / l(p)``, the surplus is
``δ = R − th`` events/second, and ``x = δ · psize / R`` events must be
dropped from every partition of size ``psize`` (``psize / R`` being the
partition's span in seconds).

Estimators: ``l(p)`` is an exponential moving average over measured
per-event processing times; ``R`` is measured by counting arrivals
between checks.  Both can be pinned for deterministic tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.partitions import PartitionPlan, plan_partitions
from repro.shedding.base import DropCommand, LoadShedder


@dataclass
class OverloadSample:
    """One periodic check, recorded for diagnostics and Fig. 7."""

    time: float
    qsize: int
    processing_latency: float  # l(p)
    input_rate: float  # R
    qmax: float
    shedding: bool
    drop_amount: float  # x per partition (0 when not shedding)
    estimated_latency: float  # l(e) = (qsize + 1) * l(p)


class OverloadDetector:
    """Queue monitor that drives a load shedder.

    Parameters
    ----------
    latency_bound:
        ``LB`` in seconds.
    f:
        Shedding trigger fraction of ``qmax`` (paper default 0.8).
    reference_size:
        Model reference window size ``N``; partitions are planned over
        it.
    shedder:
        The shedder to activate/deactivate and command.
    ema_alpha:
        Smoothing factor for the ``l(p)`` moving average.
    fixed_processing_latency / fixed_input_rate:
        Pin the estimators (deterministic tests and simulations where
        the true values are configured anyway).
    partition_override:
        Force a fixed partition count instead of the paper's
        buffer-derived ``ρ`` (used by the partitioning ablation).
    """

    def __init__(
        self,
        latency_bound: float,
        f: float,
        reference_size: int,
        shedder: Optional[LoadShedder] = None,
        ema_alpha: float = 0.2,
        fixed_processing_latency: Optional[float] = None,
        fixed_input_rate: Optional[float] = None,
        partition_override: Optional[int] = None,
    ) -> None:
        if latency_bound <= 0.0:
            raise ValueError("latency bound must be positive")
        if not 0.0 <= f < 1.0:
            raise ValueError("f must lie in [0, 1)")
        if reference_size <= 0:
            raise ValueError("reference size must be positive")
        self.latency_bound = latency_bound
        self.f = f
        self.reference_size = reference_size
        self.shedder = shedder
        self.ema_alpha = ema_alpha
        self._fixed_lp = fixed_processing_latency
        self._fixed_rate = fixed_input_rate
        self.partition_override = partition_override
        if partition_override is not None and partition_override <= 0:
            raise ValueError("partition override must be positive")
        self._lp_estimate: Optional[float] = fixed_processing_latency
        self._arrivals_since_check = 0
        self._last_check_time: Optional[float] = None
        self._rate_estimate: Optional[float] = fixed_input_rate
        self.samples: List[OverloadSample] = []
        self.current_plan: Optional[PartitionPlan] = None
        self.shedding = False

    # ------------------------------------------------------------------
    # estimator feed (called by the runtime)
    # ------------------------------------------------------------------
    def record_arrival(self, timestamp: float) -> None:
        """Count one event arrival (input-rate estimation)."""
        self._arrivals_since_check += 1

    def record_processing(self, duration: float) -> None:
        """Fold one measured per-event processing time into ``l(p)``."""
        if self._fixed_lp is not None:
            return
        if duration <= 0.0:
            return
        if self._lp_estimate is None:
            self._lp_estimate = duration
        else:
            self._lp_estimate += self.ema_alpha * (duration - self._lp_estimate)

    @property
    def processing_latency(self) -> Optional[float]:
        """Current ``l(p)`` estimate in seconds (None before any data)."""
        return self._lp_estimate

    @property
    def input_rate(self) -> Optional[float]:
        """Current ``R`` estimate in events/second."""
        return self._rate_estimate

    @property
    def throughput(self) -> Optional[float]:
        """``th = 1 / l(p)`` (None before any processing data)."""
        if self._lp_estimate is None or self._lp_estimate <= 0.0:
            return None
        return 1.0 / self._lp_estimate

    def qmax(self) -> Optional[float]:
        """``qmax = LB / l(p)`` (None before any processing data)."""
        if self._lp_estimate is None or self._lp_estimate <= 0.0:
            return None
        return self.latency_bound / self._lp_estimate

    # ------------------------------------------------------------------
    # periodic check
    # ------------------------------------------------------------------
    def check(self, now: float, qsize: int) -> Optional[DropCommand]:
        """One periodic check; drives the shedder, returns any command.

        The driver calls this once per tick of its
        :class:`~repro.cep.clock.TickSchedule` (every ``check_interval``
        seconds of its own clock: event, virtual or wall time) with the
        current queue size; the measured input rate counts the arrivals
        between consecutive checks on that clock.
        """
        self._update_rate(now)
        lp = self._lp_estimate
        rate = self._rate_estimate
        qmax = self.qmax()

        command: Optional[DropCommand] = None
        if qmax is not None and rate is not None:
            if qsize > self.f * qmax:
                command = self._command_for(rate, qmax)
                self.shedding = True
                if self.shedder is not None:
                    self.shedder.on_drop_command(command)
                    self.shedder.activate()
            elif self.shedding:
                self.shedding = False
                if self.shedder is not None:
                    self.shedder.deactivate()

        self.samples.append(
            OverloadSample(
                time=now,
                qsize=qsize,
                processing_latency=lp or 0.0,
                input_rate=rate or 0.0,
                qmax=qmax or 0.0,
                shedding=self.shedding,
                drop_amount=command.x if command else 0.0,
                estimated_latency=(qsize + 1) * (lp or 0.0),
            )
        )
        return command

    def _command_for(self, rate: float, qmax: float) -> DropCommand:
        if self.partition_override is not None:
            count = min(self.partition_override, self.reference_size)
            plan = PartitionPlan(
                reference_size=self.reference_size,
                partition_count=count,
                partition_size=self.reference_size / count,
            )
        else:
            plan = plan_partitions(self.reference_size, qmax, self.f)
        self.current_plan = plan
        throughput = self.throughput or rate
        surplus = max(0.0, rate - throughput)
        if rate <= 0.0:
            x = 0.0
        else:
            x = surplus * plan.partition_size / rate
        return DropCommand(
            x=x,
            partition_count=plan.partition_count,
            partition_size=plan.partition_size,
        )

    def _update_rate(self, now: float) -> None:
        if self._fixed_rate is not None:
            self._rate_estimate = self._fixed_rate
        elif self._last_check_time is not None and now > self._last_check_time:
            measured = self._arrivals_since_check / (now - self._last_check_time)
            if self._rate_estimate is None:
                self._rate_estimate = measured
            else:
                self._rate_estimate += self.ema_alpha * (
                    measured - self._rate_estimate
                )
        self._arrivals_since_check = 0
        self._last_check_time = now
