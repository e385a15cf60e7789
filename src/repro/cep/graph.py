"""Operator graphs: DAGs of CEP operators (paper §2).

"Such CEP systems may comprise of one or more operators that are
represented by a directed acyclic graph.  Each operator processes
input event streams produced from one or more sources [--] sources
might be sensors, *upstream operators*, other applications."

This module provides that substrate: a DAG whose nodes are CEP
operators (each with its own query and, optionally, its own load
shedder) or stream transforms.  A node's detected complex events are
re-materialised as primitive events for its downstream nodes, with the
complex event's payload flattened into attributes -- exactly how an
upstream operator acts as an event source for the next one.

The paper's evaluation uses a single operator; the graph is exercised
by the multi-stage example and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.cep.events import ComplexEvent, Event, EventStream
from repro.cep.operator.operator import CEPOperator
from repro.cep.patterns.query import Query


def complex_to_event(complex_event: ComplexEvent, seq: int) -> Event:
    """Materialise a complex event as a primitive event for downstream.

    The event type is the pattern name; the timestamp is the detection
    time (falling back to the last constituent's timestamp); the
    constituent sequence numbers ride along as an attribute.
    """
    last = complex_event.events[-1] if complex_event.events else None
    timestamp = complex_event.detection_time
    if timestamp == 0.0 and last is not None:
        timestamp = last.timestamp
    return Event(
        event_type=complex_event.pattern_name,
        seq=seq,
        timestamp=timestamp,
        attrs={
            "window_id": complex_event.window_id,
            "constituents": list(complex_event.positions),
        },
    )


@dataclass
class _Node:
    """One vertex of the operator graph."""

    name: str
    query: Optional[Query] = None  # None for transform nodes
    transform: Optional[Callable[[Event], Optional[Event]]] = None
    shedder: Optional[object] = None
    upstream: List[str] = field(default_factory=list)
    # run artefacts
    output: List[Event] = field(default_factory=list)
    complex_events: List[ComplexEvent] = field(default_factory=list)


class OperatorGraph:
    """A DAG of CEP operators and transforms, executed in batch.

    Usage::

        graph = OperatorGraph()
        graph.add_operator("influence", q2_query)
        graph.add_operator("meta", meta_query, upstream=["influence"])
        results = graph.run(stream)
        results.complex_events("meta")
    """

    SOURCE = "__source__"

    def __init__(self) -> None:
        self._nodes: Dict[str, _Node] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_operator(
        self,
        name: str,
        query: Query,
        upstream: Optional[Iterable[str]] = None,
        shedder: Optional[object] = None,
    ) -> None:
        """Add a pattern-matching operator node."""
        self._add_node(_Node(name=name, query=query, shedder=shedder), upstream)

    def add_transform(
        self,
        name: str,
        transform: Callable[[Event], Optional[Event]],
        upstream: Optional[Iterable[str]] = None,
    ) -> None:
        """Add a per-event transform node (``None`` return filters out)."""
        self._add_node(_Node(name=name, transform=transform), upstream)

    def _add_node(self, node: _Node, upstream: Optional[Iterable[str]]) -> None:
        if node.name in self._nodes or node.name == self.SOURCE:
            raise ValueError(f"duplicate node name {node.name!r}")
        node.upstream = list(upstream) if upstream is not None else [self.SOURCE]
        for up in node.upstream:
            if up != self.SOURCE and up not in self._nodes:
                raise ValueError(f"unknown upstream node {up!r}")
        self._nodes[node.name] = node

    def topological_order(self) -> List[str]:
        """Evaluation order (insertion order is already topological,
        since upstream nodes must exist when a node is added)."""
        return list(self._nodes)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, stream: EventStream) -> "GraphRun":
        """Execute the whole DAG over ``stream`` (batch semantics)."""
        for node in self._nodes.values():
            node.output = []
            node.complex_events = []

        for name in self.topological_order():
            node = self._nodes[name]
            inputs = self._inputs_of(node, stream)
            if node.transform is not None:
                node.output = [
                    out
                    for out in (node.transform(event) for event in inputs)
                    if out is not None
                ]
            else:
                assert node.query is not None
                operator = CEPOperator(node.query, shedder=node.shedder)
                in_stream = EventStream()
                for seq, event in enumerate(inputs):
                    in_stream.append(
                        Event(event.event_type, seq, event.timestamp, event.attrs)
                    )
                node.complex_events = operator.detect_all(in_stream)
                node.output = [
                    complex_to_event(c, seq)
                    for seq, c in enumerate(node.complex_events)
                ]
        return GraphRun({name: node for name, node in self._nodes.items()})

    def _inputs_of(self, node: _Node, stream: EventStream) -> List[Event]:
        merged: List[Event] = []
        for up in node.upstream:
            if up == self.SOURCE:
                merged.extend(stream)
            else:
                merged.extend(self._nodes[up].output)
        merged.sort(key=lambda e: (e.timestamp, e.seq))
        return merged


class GraphRun:
    """Results of one :meth:`OperatorGraph.run`."""

    def __init__(self, nodes: Dict[str, _Node]) -> None:
        self._nodes = nodes

    def complex_events(self, name: str) -> List[ComplexEvent]:
        """Complex events detected by operator node ``name``."""
        return list(self._nodes[name].complex_events)

    def output_events(self, name: str) -> List[Event]:
        """Events node ``name`` forwarded downstream."""
        return list(self._nodes[name].output)

    def totals(self) -> Dict[str, int]:
        """Complex-event count per operator node."""
        return {
            name: len(node.complex_events)
            for name, node in self._nodes.items()
            if node.query is not None
        }
