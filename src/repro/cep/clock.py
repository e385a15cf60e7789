"""The tick schedule: when periodic duty (the §3.4 overload check) runs.

Every driver steps a :class:`TickSchedule` and feeds it ``now`` on its
own clock: ``Pipeline.feed``/``run`` on event time, the virtual-time
driver (:func:`repro.runtime.simulation.simulate_pipeline`) on virtual
time, the cluster coordinator's overload check on the wall clock.  The
schedule reads no clock itself.
"""

from __future__ import annotations

from typing import Iterator, Optional


class TickSchedule:
    """Ticks every ``interval`` seconds after an anchor.

    ``next`` is the next due tick, ``None`` while unanchored (nothing
    is due).  Ticks are stepped by repeated addition, one ``interval``
    after the previous tick, so a schedule that is advanced in one call
    and one that is advanced in many pieces give bit-identical ticks.
    """

    __slots__ = ("interval", "next")

    def __init__(self, interval: float) -> None:
        if not interval > 0.0:
            raise ValueError(f"tick interval must be positive, got {interval}")
        self.interval = interval
        self.next: Optional[float] = None

    def start(self, at: float) -> None:
        """Anchor at ``at``: the first tick falls due at ``at + interval``."""
        self.next = at + self.interval

    def stop(self) -> None:
        """Unanchor: nothing is due until the next :meth:`start`."""
        self.next = None

    def due(self, now: float) -> bool:
        """Whether a tick is due at ``now``."""
        return self.next is not None and self.next <= now

    def advance(self, now: float) -> Iterator[float]:
        """Yield every tick due at ``now``, oldest first.

        The schedule steps past a tick only once its consumer returns:
        a consumer that raises leaves that tick due.
        """
        while self.next is not None and self.next <= now:
            yield self.next
            self.next += self.interval
