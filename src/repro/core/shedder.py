"""The eSPICE load shedder (paper §3.5, Algorithm 2).

Given a drop command "drop ``x`` events from every partition", the
shedder derives, from the per-partition CDTs, one utility threshold
``uth(part)`` per partition (the smallest utility ``u`` with
``CDT(part, u) ≥ x``).  Per (event, window) pair the decision is then a
single utility-table lookup plus a comparison -- O(1):

    drop  ⇔  UT(T, P) ≤ uth(partition(P))

Positions are scaled onto the model's reference window before both the
lookup and the partition computation, which is what makes the shedder
robust to variable window sizes (§3.6).  The rule itself is computed in
one place, :class:`~repro.core.kernel.SheddingKernel`; this class owns
the drop command, the CDTs and the thresholds it derives from them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cep.events import Event
from repro.core.cdt import CDT
from repro.core.kernel import SheddingKernel
from repro.core.model import UtilityModel
from repro.core.partitions import PartitionPlan
from repro.shedding.base import DropCommand, LoadShedder


class ESpiceShedder(LoadShedder):
    """Utility-threshold shedder backed by a trained model."""

    def __init__(
        self, model: UtilityModel, kernel_backend: Optional[str] = None
    ) -> None:
        super().__init__()
        self.model = model
        self._plan: Optional[PartitionPlan] = None
        self._cdts: List[CDT] = []
        self._thresholds: List[int] = []
        self._command: Optional[DropCommand] = None
        # the kernel is built lazily; ``kernel_backend`` pins
        # numpy/fallback (tests, benchmarks), None auto-detects
        self._kernel_backend = kernel_backend
        self._kernel: Optional[SheddingKernel] = None

    # ------------------------------------------------------------------
    # drop command handling (Algorithm 2, lines 1-7)
    # ------------------------------------------------------------------
    def on_drop_command(self, command: DropCommand) -> None:
        """Receive a new dropping amount; recompute per-partition ``uth``.

        Per-partition CDTs are rebuilt only when the partitioning
        changes; a changed ``x`` alone is a cheap threshold re-lookup.
        """
        plan_changed = (
            self._plan is None
            or self._plan.partition_count != command.partition_count
        )
        if plan_changed:
            self._plan = PartitionPlan(
                reference_size=self.model.reference_size,
                partition_count=max(1, command.partition_count),
                partition_size=(
                    command.partition_size
                    if command.partition_size > 0
                    else self.model.reference_size
                    / max(1, command.partition_count)
                ),
            )
            self._cdts = self.model.partition_cdts(self._plan)
        self._command = command
        self._thresholds = [cdt.threshold_for(command.x) for cdt in self._cdts]
        if self._kernel is not None:
            # thresholds are the only kernel state a command changes;
            # the flattened rows survive (they depend on the model only)
            self._kernel.set_thresholds(self._thresholds, self._plan.partition_size)

    @property
    def thresholds(self) -> List[int]:
        """Current per-partition utility thresholds (diagnostics)."""
        return list(self._thresholds)

    @property
    def plan(self) -> Optional[PartitionPlan]:
        """Current partition plan (None before any command)."""
        return self._plan

    # ------------------------------------------------------------------
    # hot model swap (§3.6 retraining; used by AdaptiveController and
    # Pipeline.retrain)
    # ------------------------------------------------------------------
    def rebind_model(self, model: UtilityModel) -> None:
        """Atomically repoint the live shedder at a fresh model.

        The kernel and per-partition thresholds are rebuilt by
        replaying the current drop command against the new model --
        decisions before and after the swap are each fully consistent
        with one model, and the shedder keeps serving O(1) decisions
        throughout.
        """
        command = self._command
        was_active = self.active
        self.model = model
        self._plan = None  # force partition/CDT rebuild
        self._cdts = []
        self._thresholds = []
        # the flattened kernel arrays mirror the *old* model's utility
        # rows -- invalidate them with the swap, or a mid-batch swap
        # would keep deciding against stale utilities (the next batch
        # rebuilds the kernel lazily from the new model)
        self._kernel = None
        if command is not None:
            self.on_drop_command(command)
        if was_active:
            self.activate()

    # ------------------------------------------------------------------
    # the decision (Algorithm 2, lines 8-17): one kernel pass per batch
    # ------------------------------------------------------------------
    def kernel(self) -> SheddingKernel:
        """The flattened batch kernel (built lazily from the live model).

        Rebuilt automatically after :meth:`rebind_model`; a new drop
        command only swaps the threshold arrays in place.
        """
        kernel = self._kernel
        if kernel is None:
            table = self.model.table
            kernel = SheddingKernel(
                rows=table.as_matrix(),
                type_ids=table.type_ids,
                reference=self.model.reference_size,
                bin_size=self.model.bin_size,
                backend=self._kernel_backend,
            )
            if self._plan is not None:
                kernel.set_thresholds(self._thresholds, self._plan.partition_size)
            self._kernel = kernel
        return kernel

    def should_drop_batch(
        self,
        events: Sequence[Event],
        positions: Sequence[int],
        predicted_ws: float,
    ) -> List[bool]:
        """Drop mask of a batch: one kernel pass.

        Every pair of an active shedder counts as a decision, every
        ``True`` as a drop -- with no drop command yet, nothing drops.
        """
        n = len(positions)
        if not self._active or n == 0:
            return [False] * n
        self.decisions += n
        mask = self.kernel().decide(events, positions, predicted_ws)
        self.drops += mask.count(True)
        return mask

    # ------------------------------------------------------------------
    # shed-decision explainability (repro.obs)
    # ------------------------------------------------------------------
    def explain(self, event: Event, position: int, predicted_ws: float) -> dict:
        """The exact inputs of the decision for this pair: utility and
        partition from :meth:`SheddingKernel.explain` (no side effects),
        the threshold compared against, and the drop command in force
        (``x``, ρ).  Attached to dropped windows' traces by the
        observability layer.
        """
        explanation = {
            "strategy": type(self).__name__,
            "utility": None,
            "threshold": None,
            "partition": None,
            "partition_count": (
                self._command.partition_count if self._command else None
            ),
            "drop_amount": self._command.x if self._command else None,
        }
        if not self._thresholds:
            return explanation
        utility, partition = self.kernel().explain(event, position, predicted_ws)
        explanation["utility"] = float(utility)
        explanation["threshold"] = float(self._thresholds[partition])
        explanation["partition"] = partition
        return explanation
