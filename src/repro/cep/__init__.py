"""CEP engine substrate for the eSPICE reproduction.

This package implements a self-contained, window-based complex event
processing engine in the style assumed by the eSPICE paper (Slo et al.,
Middleware '19):

- :mod:`repro.cep.events` -- typed primitive events, complex events and
  ordered event streams.
- :mod:`repro.cep.clock` -- a virtual clock used by the discrete-event
  simulation runtime.
- :mod:`repro.cep.windows` -- count-, time- and pattern-based sliding
  window assigners that partition a stream into (possibly overlapping)
  windows.
- :mod:`repro.cep.patterns` -- a Tesla/SASE-like pattern language
  (sequence, ``any``, repetition, negation, conjunction), selection and
  consumption policies, and a skip-till-next/any-match matcher.
- :mod:`repro.cep.operator` -- the single CEP operator with an input
  queue and a (throughput-limited) processing loop, the unit eSPICE
  attaches to.
- :mod:`repro.cep.language` -- a Tesla-like textual query front end.

Window-based data parallelism (the paper's deployment context, §5) is
not an operator here: :mod:`repro.cluster` routes complete windows to
forked shard workers, each running the one shed-then-match body.
"""

from repro.cep.events import ComplexEvent, Event, EventStream, EventType
from repro.cep.clock import VirtualClock
from repro.cep.language import QueryParseError, parse_query

__all__ = [
    "ComplexEvent",
    "Event",
    "EventStream",
    "EventType",
    "QueryParseError",
    "VirtualClock",
    "parse_query",
]
