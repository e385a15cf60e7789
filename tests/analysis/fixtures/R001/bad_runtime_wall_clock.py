# repro-lint-fixture: src/repro/runtime/fixture_clock.py
"""BAD: the virtual-time driver reads the wall clock."""

import time


def next_check(interval: float) -> float:
    return time.monotonic() + interval
