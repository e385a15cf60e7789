"""One figure grid: every paper sweep is a :class:`FigureSpec` row, and
one :class:`GridRunner` interprets the rows.

Every quality figure of the paper's evaluation (§4) runs one protocol
-- train on a stream, overload at R1/R2, compare with the ground truth
-- over a different sweep.  A row states the sweep as data (see
:mod:`repro.experiments.figures` for the table); the runner runs each
point through :func:`~repro.experiments.common.run_quality_point` and
computes everything a point does not own exactly once:

- the trained eSPICE model per (query, train stream, bin size),
- the comparators' reference window size per (query, train stream),
- truth and mean memberships per (query, eval stream),
- the outcome per point, so figures that show the same point (Fig. 6
  is Fig. 5's Q1-first and Q3 points read for false positives) share it.

Memo keys are :class:`Call` values taken from the spec -- a builder and
every argument it is called with -- never a query's name:
``build_q3(100)`` and ``build_q3(300)`` are both ``q3_cascade_rise_len20``.
Memoised models and outcomes are shared read-only.
"""

from __future__ import annotations

import inspect
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.cep.events import EventStream
from repro.cep.operator.operator import CEPOperator
from repro.cep.patterns.query import Query
from repro.core.model import ModelBuilder, UtilityModel
from repro.experiments.common import (
    R1,
    R2,
    ExperimentConfig,
    QualityOutcome,
    format_rows,
    reference_window_size,
    run_quality_point,
)
from repro.pipeline import Pipeline
from repro.runtime.arrivals import burst_arrivals
from repro.runtime.quality import ground_truth
from repro.runtime.simulation import measure_mean_memberships

CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))
BURST_START = 2.0  # seconds into the eval stream at which a burst begins


@dataclass(frozen=True)
class Call:
    """A builder and the arguments it is called with: a memo key.

    Build one with :func:`call`, which fills in the builder's defaults,
    so two spellings of one query are one key.
    """

    fn: Callable[..., Any]
    args: Tuple[Tuple[str, Any], ...]

    def __call__(self) -> Any:
        return self.fn(**dict(self.args))

    def with_(self, **changes: Any) -> "Call":
        """The same builder with ``changes`` to its arguments."""
        return call(self.fn, **{**dict(self.args), **changes})


def call(fn: Callable[..., Any], **kwargs: Any) -> Call:
    """``fn`` bound to ``kwargs`` plus its defaults (arguments left out
    without a default must come through :meth:`Call.with_`)."""
    signature = inspect.signature(fn)
    bound = signature.bind_partial(**kwargs)
    bound.apply_defaults()
    args: Dict[str, Any] = {}
    for name, value in bound.arguments.items():
        if signature.parameters[name].kind is inspect.Parameter.VAR_KEYWORD:
            args.update(value)
        else:
            args[name] = value
    return Call(fn, tuple(sorted(args.items())))


@dataclass(frozen=True)
class Column:
    """One printed column: ``cell(point)`` under ``header``.

    A column with a ``strategy`` and a ``rate`` shows that point of each
    x, and the table prints one line per x (the Fig. 5 layout);
    otherwise it prints one line per point.
    """

    header: str
    cell: Callable[[QualityOutcome], object]
    strategy: Optional[str] = None
    rate: Optional[float] = None


@dataclass(frozen=True)
class FigureSpec:
    """One paper sweep as data.

    Each x sets the names in ``vary`` (one value each; a tuple when
    there are several): an :class:`ExperimentConfig` field, the
    deploy-time ``partition_override``, ``burst_seconds`` (arrivals at
    ``burst_base`` x throughput with one burst at the point's rate), or
    else an argument of the query builder.
    """

    name: str
    title: str
    claim: str
    query: Call
    streams: Call  # -> (train stream, eval stream)
    vary: Tuple[str, ...]
    xs: Tuple[Any, ...]
    quick_xs: Tuple[Any, ...]
    columns: Tuple[Column, ...]
    strategies: Tuple[str, ...] = ("espice", "bl")
    rates: Tuple[float, ...] = (R1, R2)
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    #: train one model while the window size varies over every x, and
    #: deploy it unprimed (Fig. 8, paper §4.2)
    mixed_window: bool = False
    burst_base: Optional[float] = None
    #: one extra line per point after the table
    footer: Optional[Callable[[QualityOutcome], str]] = None


@dataclass
class Figure:
    """A row's points, in sweep order (x, then strategy, then rate)."""

    spec: FigureSpec
    points: List[QualityOutcome]

    def series(self, strategy: str, rate_factor: float) -> List[QualityOutcome]:
        """The points of one plotted line, in x order."""
        return [
            p
            for p in self.points
            if p.strategy == strategy and p.rate_factor == rate_factor
        ]

    def rows(self) -> str:
        """The title, then the spec's columns as a fixed-width table."""
        columns = self.spec.columns
        lines = self.points
        by_key = {(p.x, p.strategy, p.rate_factor): p for p in self.points}
        if any(c.rate is not None for c in columns):
            first: Dict[Any, QualityOutcome] = {}
            for point in self.points:
                first.setdefault(point.x, point)
            lines = list(first.values())
        body = []
        for line in lines:
            cells = []
            for column in columns:
                point: Optional[QualityOutcome] = line
                if column.rate is not None:
                    point = by_key.get((line.x, column.strategy, column.rate))
                cells.append("-" if point is None else column.cell(point))
            body.append(cells)
        text = f"{self.spec.title}\n" + format_rows([c.header for c in columns], body)
        if self.spec.footer is not None:
            text += "".join("\n" + self.spec.footer(p) for p in self.points)
        return text


def train_mixed_window_model(
    queries: Sequence[Query], train_stream: EventStream, bin_size: int = 1
) -> UtilityModel:
    """Train one model while the window size varies (paper §4.2).

    Each query (one window size each) runs the full training stream,
    feeding a shared model builder; the reference size ``N`` becomes
    the average over all observed windows.
    """
    builder = ModelBuilder(bin_size=bin_size)
    for query in queries:
        operator = CEPOperator(query, shedder=None)
        operator.add_window_listener(builder.observe)
        operator.detect_all(train_stream)
    return builder.build()


class GridRunner:
    """Runs :class:`FigureSpec` rows, computing each artifact once.

    One runner is one memo: ``run_all.main`` makes one per call.
    """

    def __init__(self) -> None:
        self._memo: Dict[Hashable, Any] = {}

    def _once(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def model(
        self, queries: Tuple[Call, ...], streams: Call, bin_size: int
    ) -> UtilityModel:
        """The eSPICE model of ``queries`` on the train stream: trained
        by :meth:`Pipeline.train` for one query, by
        :func:`train_mixed_window_model` for several."""

        def train() -> UtilityModel:
            train_stream = streams()[0]
            if len(queries) > 1:
                built = [query() for query in queries]
                return train_mixed_window_model(built, train_stream, bin_size)
            pipeline = Pipeline.builder().query(queries[0]()).bin_size(bin_size).build()
            return pipeline.train(train_stream).model

        return self._once(("model", queries, streams, bin_size), train)

    def reference_size(self, query: Call, streams: Call) -> int:
        """The comparators' reference window size on the train stream."""

        def measure() -> int:
            return reference_window_size(query(), streams()[0])

        return self._once(("reference", query, streams), measure)

    def _eval(self, query: Call, streams: Call) -> Tuple[list, float]:
        """(truth, mean memberships) of ``query`` on the eval stream."""

        def measure() -> Tuple[list, float]:
            built, eval_stream = query(), streams()[1]
            return (
                ground_truth(built, eval_stream),
                measure_mean_memberships(built, eval_stream),
            )

        return self._once(("eval", query, streams), measure)

    def run(self, spec: FigureSpec) -> Figure:
        """Every point of ``spec``'s sweep."""
        points = []
        for x in spec.xs:
            values = dict(zip(spec.vary, x if len(spec.vary) > 1 else (x,)))
            config = replace(
                spec.config,
                **{name: values.pop(name) for name in CONFIG_FIELDS & set(values)},
            )
            deploy: Dict[str, Any] = {"prime": False} if spec.mixed_window else {}
            if "partition_override" in values:
                deploy["partition_override"] = values.pop("partition_override")
            burst = values.pop("burst_seconds", None)
            query = spec.query.with_(**values)
            trained_on = (query,)
            if spec.mixed_window:
                (name,) = spec.vary
                trained_on = tuple(spec.query.with_(**{name: v}) for v in spec.xs)
            for strategy in spec.strategies:
                for rate in spec.rates:
                    outcome = self._point(
                        spec, query, trained_on, config, deploy, burst, strategy, rate
                    )
                    points.append(replace(outcome, x=x))
        return Figure(spec, points)

    def _point(
        self,
        spec: FigureSpec,
        query: Call,
        trained_on: Tuple[Call, ...],
        config: ExperimentConfig,
        deploy: Dict[str, Any],
        burst: Optional[float],
        strategy: str,
        rate: float,
    ) -> QualityOutcome:
        def simulate() -> QualityOutcome:
            train_stream, eval_stream = spec.streams()
            truth, memberships = self._eval(query, spec.streams)
            model = reference = None
            if strategy == "espice":
                model = self.model(trained_on, spec.streams, config.bin_size)
            else:
                reference = self.reference_size(query, spec.streams)
            arrivals = None
            if burst is not None:
                if spec.burst_base is None:
                    raise ValueError(f"{spec.name}: a burst needs burst_base")
                arrivals = burst_arrivals(
                    count=len(eval_stream),
                    base_rate=spec.burst_base * config.throughput,
                    burst_rate=rate * config.throughput,
                    burst_start=BURST_START,
                    burst_duration=burst,
                )
            return run_quality_point(
                query(),
                train_stream,
                eval_stream,
                strategy,
                rate,
                config,
                truth,
                model=model,
                mean_memberships=memberships,
                deploy=deploy,
                arrival_times=arrivals,
                reference_size=reference,
            )

        key = (
            "point",
            query,
            spec.streams,
            trained_on,
            astuple(config),
            tuple(sorted(deploy.items())),
            burst,
            spec.burst_base,
            strategy,
            rate,
        )
        return self._once(key, simulate)
