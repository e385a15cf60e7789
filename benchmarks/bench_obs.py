"""Overhead of the unified observability layer (:mod:`repro.obs`).

The obs design promise is two-sided:

- **disabled is free**: observability is enabled by *rebinding* the
  chains' prebound stage-dispatch tuples, so a pipeline that never
  enables it (or disables it again) runs the exact same code as before
  the subsystem existed -- structurally zero cost, asserted here as
  ≈0% measured overhead;
- **enabled is cheap**: with the full stack on (per-stage latency
  histograms, batch/window size histograms, pull collectors, window
  tracing with shed explanations) the batched replay must stay within
  **≤2%** of baseline -- the tracker writes traces only at window
  close and at actual drops, never per kept event.

Three modes of the same soccer-Q1 batch=64 replay are timed
(best-of-N): ``baseline`` (obs never imported into the pipeline),
``disabled`` (enabled once, then disabled before the run) and
``enabled``.  Detections must be bit-identical and identically ordered
across all three -- observability must never change what the pipeline
computes.

Each run writes ``BENCH_obs.json`` (override with ``BENCH_OBS_REPORT``);
a ``--smoke`` run writes only where ``BENCH_OBS_REPORT`` points, else
to a temp file.  CI runs ``python benchmarks/bench_obs.py --smoke`` on
every leg; the
smoke bound allows an absolute-slack fallback because percentage noise
on a busy 1-core runner easily exceeds 2% of a sub-second run.
"""

import gc
import json
import os
import statistics
import tempfile
import time

#: Micro-batch size of the tracked replay (matches bench_pipeline).
BATCH_SIZE = 64
#: Asserted ceiling for the fully-enabled overhead (%).
ENABLED_BUDGET_PCT = 2.0
#: Asserted ceiling for disabled-again overhead (%): zero plus noise.
DISABLED_BUDGET_PCT = 1.0
#: Absolute-slack fallback for noisy CI boxes (seconds of wall time).
ABS_SLACK_SECONDS = 0.025
#: The disabled mode runs code byte-identical to baseline, so its
#: measured "overhead" is a null experiment: any reading beyond this
#: magnitude proves the box was too disturbed to resolve the 2% budget
#: and the whole measurement is retried.
NOISE_CANARY_PCT = 0.75
#: How many measurements to attempt before settling for the quietest.
MAX_ATTEMPTS = 3
#: Where the machine-readable report lands (cwd-relative by default).
REPORT_PATH = os.environ.get("BENCH_OBS_REPORT", "BENCH_obs.json")
#: Rounds per measurement attempt; a multiple of 3 keeps the in-round
#: rotation balanced.  Raise for a tighter median on a noisy box.
REPEATS = int(os.environ.get("BENCH_OBS_REPEATS", "9"))

from repro.experiments import workloads
from repro.pipeline import Pipeline
from repro.queries import build_q1


def _build(train):
    # check_interval widened like bench_pipeline's kernel benchmark:
    # with the paper-default 0.1s, every due detector tick is a
    # mandatory batch boundary, capping micro-batches at ~2 events on
    # this stream -- which would benchmark per-tiny-batch wrapper
    # constants instead of the amortised batch=64 cost the budget is
    # stated against.
    pipeline = (
        Pipeline.builder()
        .query(build_q1(pattern_size=3))
        .shedder("espice", f=0.8)
        .check_interval(10.0)
        .batch(BATCH_SIZE)
        .build()
    )
    pipeline.train(train)
    pipeline.deploy(expected_throughput=1000.0, expected_input_rate=1200.0)
    return pipeline


MODES = ("baseline", "disabled", "enabled")


def _prepare(train, mode):
    """Build, train and mode-switch one pipeline (all untimed)."""
    pipeline = _build(train)
    if mode == "enabled":
        pipeline.enable_observability()
    elif mode == "disabled":
        pipeline.enable_observability()
        pipeline.disable_observability()
    return pipeline


def _measure_interleaved(train, stream, repeats):
    """Paired rounds: every round times all three modes back to back.

    The replay is a fraction of a second, so frequency scaling and
    noisy neighbours drift more than the 2% budget between
    separately-run blocks -- a best-of-N comparison across them
    routinely measured the *identical* disabled code at +-2.5%.  Each
    round therefore builds all three pipelines first (training and
    construction are the expensive, variable part) and then times the
    three replays back to back inside one GC-quiesced region, so the
    paired ``mode / baseline`` ratios see the box in the same state.
    The median ratio across rounds is robust to the odd disturbed
    round in a way a single best-of quotient is not.

    GC hygiene: collect before and pause during the timed region.  The
    enabled run allocates more (pending floats, trace records), so
    uncontrolled collection pauses land disproportionately in the
    enabled numbers and masquerade as instrumentation overhead.
    """
    best = {mode: None for mode in MODES}
    rounds = []
    results = {}
    for index in range(repeats):
        # rotate both the BUILD order and the timing order each round:
        # identical replay code measures up to +-1.5% apart depending
        # on which pipeline was built first (allocator layout), and
        # drift *within* a round (the box warming up or settling down)
        # must not systematically land on the same mode every time --
        # with a repeats that is a multiple of 3, every mode occupies
        # every position equally and both biases cancel in the median
        rotation = index % len(MODES)
        order = MODES[rotation:] + MODES[:rotation]
        pipelines = {mode: _prepare(train, mode) for mode in order}
        timings = {}
        gc.collect()
        gc.disable()
        try:
            for mode in order:
                pipeline = pipelines[mode]
                start = time.perf_counter()
                result = pipeline.run(stream).complex_events
                timings[mode] = time.perf_counter() - start
                results[mode] = result
        finally:
            gc.enable()
        for mode, elapsed in timings.items():
            if best[mode] is None or elapsed < best[mode]:
                best[mode] = elapsed
        rounds.append(timings)
    ratios = {
        mode: statistics.median(
            timings[mode] / timings["baseline"] for timings in rounds
        )
        for mode in MODES
    }
    return best, ratios, results


def _attempt(train, stream, repeats):
    n = len(stream)
    best, ratios, results = _measure_interleaved(train, stream, repeats)
    baseline_s, baseline_out = best["baseline"], results["baseline"]
    disabled_s, disabled_out = best["disabled"], results["disabled"]
    enabled_s, enabled_out = best["enabled"], results["enabled"]

    baseline_keys = [c.key for c in baseline_out]
    assert [c.key for c in disabled_out] == baseline_keys, (
        "enable+disable changed the detections"
    )
    assert [c.key for c in enabled_out] == baseline_keys, (
        "enabled observability changed the detections"
    )

    # overhead = median of the per-round paired ratios; the per-event
    # figures come from each mode's best round
    disabled_pct = 100.0 * (ratios["disabled"] - 1.0)
    enabled_pct = 100.0 * (ratios["enabled"] - 1.0)
    return {
        "events": n,
        "detections": len(baseline_keys),
        "repeats": repeats,
        "batch_size": BATCH_SIZE,
        "cores": os.cpu_count() or 1,
        "baseline_s": baseline_s,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "baseline_us_per_event": 1e6 * baseline_s / n,
        "enabled_us_per_event": 1e6 * enabled_s / n,
        "disabled_overhead_pct": disabled_pct,
        "enabled_overhead_pct": enabled_pct,
        "disabled_abs_delta_s": baseline_s * disabled_pct / 100.0,
        "enabled_abs_delta_s": baseline_s * enabled_pct / 100.0,
    }


def run_bench(train, stream, repeats=REPEATS):
    """Measure with a noise gate: the disabled mode is the canary.

    ``repeats`` defaults to 9 so the three in-round rotations are
    represented equally (any position-in-round effect then cancels
    instead of biasing whichever mode rotation favours).  An attempt
    whose *disabled* reading -- identical code to baseline -- lands
    outside ``NOISE_CANARY_PCT`` was measured on a disturbed box; it
    says nothing about the instrumentation, so the measurement is
    retried, keeping the quietest attempt as a last resort.
    """
    chosen = None
    for _ in range(MAX_ATTEMPTS):
        out = _attempt(train, stream, repeats)
        if abs(out["disabled_overhead_pct"]) <= NOISE_CANARY_PCT:
            return out
        if chosen is None or (
            abs(out["disabled_overhead_pct"])
            < abs(chosen["disabled_overhead_pct"])
        ):
            chosen = out
    return chosen


def within_budget(out):
    """The acceptance bounds, with absolute slack for noisy runners."""
    disabled_ok = (
        out["disabled_overhead_pct"] <= DISABLED_BUDGET_PCT
        or out["disabled_abs_delta_s"] <= ABS_SLACK_SECONDS
    )
    enabled_ok = (
        out["enabled_overhead_pct"] <= ENABLED_BUDGET_PCT
        or out["enabled_abs_delta_s"] <= ABS_SLACK_SECONDS
    )
    return disabled_ok, enabled_ok


def write_report(out, path=REPORT_PATH):
    """Emit the machine-readable artifact (BENCH_obs.json)."""
    payload = {
        "benchmark": "obs_overhead",
        "unix_time": round(time.time(), 3),
        "events": out["events"],
        "detections": out["detections"],
        "repeats": out["repeats"],
        "batch_size": out["batch_size"],
        "cores": out["cores"],
        "baseline_us_per_event": round(out["baseline_us_per_event"], 3),
        "enabled_us_per_event": round(out["enabled_us_per_event"], 3),
        "disabled_overhead_pct": round(out["disabled_overhead_pct"], 2),
        "enabled_overhead_pct": round(out["enabled_overhead_pct"], 2),
        "enabled_budget_pct": ENABLED_BUDGET_PCT,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def smoke_report_path():
    """Where a ``--smoke`` run writes: ``BENCH_OBS_REPORT`` if set, else a
    temp file, never the tracked ``BENCH_obs.json``."""
    if "BENCH_OBS_REPORT" in os.environ:
        return os.environ["BENCH_OBS_REPORT"]
    scratch = tempfile.mkdtemp(prefix="bench_obs-")
    return os.path.join(scratch, "BENCH_obs.json")


def describe(out):
    text = (
        f"Observability overhead (soccer Q1, batch={BATCH_SIZE}, "
        f"{out['events']} events, best-of-{out['repeats']}):\n"
        f"  baseline (never enabled):  {out['baseline_us_per_event']:.2f} us/event\n"
        f"  enabled then disabled:     {out['disabled_overhead_pct']:+.2f}%\n"
        f"  fully enabled:             {out['enabled_us_per_event']:.2f} us/event "
        f"({out['enabled_overhead_pct']:+.2f}%, budget <=+{ENABLED_BUDGET_PCT:.0f}%)\n"
        f"  detections:                {out['detections']} "
        "(bit-identical in all three modes)"
    )
    extra = {
        "baseline_us_per_event": round(out["baseline_us_per_event"], 3),
        "enabled_us_per_event": round(out["enabled_us_per_event"], 3),
        "disabled_overhead_pct": round(out["disabled_overhead_pct"], 2),
        "enabled_overhead_pct": round(out["enabled_overhead_pct"], 2),
    }
    return text, extra


def test_obs_overhead(report):
    """The tracked number: enabled <=2%, disabled ~0%, detections equal."""
    train, stream = workloads.soccer_streams()

    def runner():
        out = run_bench(train, stream)
        write_report(out)
        return out

    def _describe(out):
        text, extra = describe(out)
        return text + f"\n  report:                    {REPORT_PATH}", extra

    out = report(runner, _describe)
    disabled_ok, enabled_ok = within_budget(out)
    assert disabled_ok, "disabled observability is not free"
    assert enabled_ok, "enabled observability exceeds the 2% budget"


# ----------------------------------------------------------------------
# CI smoke mode: python benchmarks/bench_obs.py --smoke
# ----------------------------------------------------------------------
def smoke() -> int:
    """Assertion pass for CI; the report goes to :func:`smoke_report_path`.

    Uses the full stream with fewer rounds: a shorter slice replays in
    ~60ms, where scheduling noise alone measured the *identical*
    disabled configuration at +-4% -- hopeless against a 2% budget.
    The full replay (~0.25s) keeps each round above the noise floor
    and the whole smoke still finishes in well under a minute.
    """
    train, stream = workloads.soccer_streams()
    out = run_bench(train, stream)
    path = write_report(out, smoke_report_path())
    text, _extra = describe(out)
    print(f"bench_obs --smoke:\n{text}\n  report:                    {path}")
    disabled_ok, enabled_ok = within_budget(out)
    if not disabled_ok:
        print("FAIL: disabled observability is not free")
        return 1
    if not enabled_ok:
        print("FAIL: enabled observability exceeds the 2% budget")
        return 1
    print("OK: detections identical; overhead within budget")
    return 0


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        raise SystemExit(smoke())
    raise SystemExit(
        "run under pytest (pytest benchmarks/bench_obs.py "
        "--benchmark-only -s) or pass --smoke"
    )
