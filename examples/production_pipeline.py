#!/usr/bin/env python3
"""A production-shaped deployment of every moving part.

This example strings together the features a real integration would
use beyond the single experiment loop, all through the
``repro.pipeline`` API:

1. the **textual query language** instead of the builder API,
2. **training + persistence**: train once, save the model to JSON,
   load it into a fresh pipeline via ``.model()``
   (deploy-without-retraining),
3. **multi-query fan-out**: two queries sharing one input stream in a
   single pipeline, with a **custom logging middleware stage** counting
   what flows in,
4. a **sequential shedding run** of the persisted model under a static
   drop command -- the reference the cluster run in step 7 must equal,
5. **adaptive deployment**: a drift-watching controller wired in with
   ``.adaptive()`` (paper §3.6 future work),
6. a two-stage **operator graph**: man-marking complex events feed a
   downstream "pressing spell" operator that detects bursts of marking,
   and
7. a **sharded cluster deployment**: the same trained model executed
   across real worker processes via ``.distributed()``, with
   coordinated shedding and the cluster snapshot (per-shard
   utilization, queue depths, drop rates) a production dashboard would
   scrape -- not just aggregate recall.  Its detections must equal the
   sequential run's (the paper's claim that eSPICE is independent of
   the parallelism degree, §5); the script exits non-zero otherwise.

Run:  python examples/production_pipeline.py
"""

import sys
import tempfile
from pathlib import Path

from repro.cep.graph import OperatorGraph
from repro.cep.language import parse_query
from repro.core.partitions import plan_partitions
from repro.core.persistence import load_model, save_model
from repro.datasets import SoccerStreamConfig, generate_soccer_stream, split_stream
from repro.pipeline import LoggingStage, Pipeline
from repro.queries import build_q1
from repro.shedding.base import DropCommand


def close_marking(event):
    return event.attr("distance", 99.0) <= 5.0


def main() -> None:
    # -- data -----------------------------------------------------------
    stream = generate_soccer_stream(SoccerStreamConfig(duration_seconds=2400, seed=33))
    train, live = split_stream(stream, train_fraction=0.5)

    # -- 1. the query, in the textual language ---------------------------
    query = parse_query(
        """
        define ManMarking
        from   seq(STR1|STR2; any(2, DF1, DF2, DF3, DF4, DF5, DF6, DF7, DF8))
        within 15 s
        open on STR1|STR2
        select first
        """,
        predicates={f"DF{i}": close_marking for i in range(1, 9)},
    )
    print(f"parsed query: {query.name}, pattern size {query.pattern_size()}")

    # -- 2. train, save, load --------------------------------------------
    trainer = (
        Pipeline.builder()
        .query(query)
        .shedder("espice", f=0.8)
        .latency_bound(1.0)
        .bin_size(8)
        .build()
    )
    model = trainer.train(train).model
    model_path = Path(tempfile.gettempdir()) / "espice_model.json"
    save_model(model, model_path)
    deployed = load_model(model_path)
    print(f"trained {model}, persisted to {model_path.name} and reloaded")

    # -- 3. multi-query fan-out with custom middleware -------------------
    tight = build_q1(pattern_size=2, window_seconds=15.0)
    fanout = (
        Pipeline.builder()
        .query(query)
        .query(tight)
        .stage(lambda: LoggingStage())  # factory: one instance per chain
        .build()
    )
    fanned = fanout.run(live)
    logged = fanout.metrics()[query.name]["logging"]["seen"]
    print(
        f"fan-out run: {fanned.totals()} from one stream "
        f"({logged} events through the logging middleware)"
    )

    # -- 4. sequential shedding run, shared persisted model --------------
    plan = plan_partitions(deployed.reference_size, qmax=1000.0, f=0.8)
    command = DropCommand(
        x=0.15 * plan.partition_size,
        partition_count=plan.partition_count,
        partition_size=plan.partition_size,
    )
    sequential = (
        Pipeline.builder()
        .query(query)
        .shedder("espice", f=0.8)
        .latency_bound(1.0)
        .bin_size(8)
        .model(deployed)
        .build()
    )
    sequential.deploy()
    shedder = sequential.chains[0].shedder
    shedder.on_drop_command(command)
    shedder.activate()
    sequential_out = sequential.run(live).complex_events
    print(
        f"sequential shedding run: {len(sequential_out)} complex events, "
        f"drop rate {shedder.observed_drop_rate():.2f}"
    )

    # -- 5. adaptive deployment (drift detection wired in) ---------------
    adaptive = (
        Pipeline.builder()
        .query(query)
        .shedder("espice", f=0.8)
        .latency_bound(1.0)
        .bin_size(8)
        .model(deployed)
        .adaptive(min_training_windows=40)
        .build()
    )
    adaptive.deploy()
    adaptive.run(live)
    controller = adaptive.chains[0].controller
    status = controller.last_status
    print(
        f"adaptive run: {controller.retrain_count} automatic retrains, "
        f"last drift check: "
        f"{status.reason if status else 'n/a'}"
    )

    # -- 6. two-stage operator graph --------------------------------------
    pressing = parse_query(
        # three man-marking detections within 90 s = a pressing spell
        "define PressingSpell from seq(ManMarking; ManMarking; ManMarking) "
        "within 90 s open on ManMarking"
    )
    graph = OperatorGraph()
    graph.add_operator("marking", query)
    graph.add_operator("pressing", pressing, upstream=["marking"])
    run = graph.run(live)
    totals = run.totals()
    print(
        f"operator graph: {totals['marking']} marking events -> "
        f"{totals['pressing']} pressing spells"
    )

    # -- 7. sharded cluster with coordinated shedding ---------------------
    sharded = (
        Pipeline.builder()
        .query(query)
        .shedder("espice", f=0.8)
        .latency_bound(1.0)
        .bin_size(8)
        .model(deployed)
        .distributed(shards=2, router="round-robin", batch_size=32)
        .build()
    )
    sharded.deploy()
    with sharded:
        sharded.broadcast_shedding(command)
        clustered = sharded.run(live)
    same = [c.key for c in clustered.complex_events] == [
        c.key for c in sequential_out
    ]
    snapshot = clustered.snapshot
    print(
        f"sharded run (2 workers): {len(clustered.complex_events)} complex "
        f"events at {clustered.events_per_second:.0f} events/s, "
        f"identical to the sequential shedding run: {same}"
    )
    print(
        "cluster snapshot: "
        f"windows={snapshot.windows_dispatched[query.name]} "
        f"router={snapshot.router['policy']} "
        f"avg_batch={snapshot.transport['avg_batch']} "
        f"drop_rate={snapshot.drop_rate():.2f} "
        f"pending={snapshot.total_pending_events}"
    )
    for shard in snapshot.shards:
        print(
            f"  shard {shard.shard_id}: windows={shard.windows} "
            f"utilization={shard.utilization:.0%} "
            f"queue_depth={shard.pending_windows} "
            f"drop_rate={shard.drop_rate:.2f} "
            f"shedding={shard.shedding_active[query.name]}"
        )
    drift = snapshot.drift[query.name]
    print(
        f"  drift: match_rate={drift.match_rate:.2f} vs "
        f"trained={drift.trained_match_rate:.2f} -> {drift.reason}"
    )
    if not same:
        sys.exit("the sharded run diverged from the sequential shedding run")


if __name__ == "__main__":
    main()
