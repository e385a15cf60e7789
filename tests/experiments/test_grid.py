"""The figure grid computes each artifact once, keyed by the spec.

Trainings, membership measurements and reference-size computations
are counted by wrapping ``Pipeline.train``, ``measure_mean_memberships``
and ``reference_window_size``, so this pins the memo's structure
independently of timing.
"""

from dataclasses import replace

import pytest

from repro.experiments import common, grid, workloads
from repro.experiments.common import R1
from repro.experiments.figures import FIGURES, SOCCER, STOCK_Q2
from repro.experiments.grid import GridRunner, call
from repro.experiments.run_all import RUNNERS
from repro.pipeline import Pipeline
from repro.queries import build_q1, build_q3
from repro.runtime import simulation

# the quick fig5/fig6 grid's streams, shrunk (the sweep is unchanged)
SMALL = {
    SOCCER: call(workloads.soccer_streams, duration_seconds=600.0, seed=17),
    STOCK_Q2: call(workloads.stock_streams_q2, symbols=50, ticks=100),
    call(workloads.stock_streams_q3): call(workloads.stock_streams_q3, ticks=150),
    call(workloads.stock_streams_q4): call(workloads.stock_streams_q4, ticks=150),
}


@pytest.fixture
def counted(monkeypatch):
    """Counts trainings, membership measurements and reference sizes
    while the test runs."""
    count = {"train": 0, "memberships": 0, "reference": 0}
    train = Pipeline.train
    measure = simulation.measure_mean_memberships
    reference = common.reference_window_size

    def counting_train(self, stream):
        count["train"] += 1
        return train(self, stream)

    def counting_measure(query, stream):
        count["memberships"] += 1
        return measure(query, stream)

    def counting_reference(query, stream):
        count["reference"] += 1
        return reference(query, stream)

    monkeypatch.setattr(Pipeline, "train", counting_train)
    for module in (simulation, common, grid):
        monkeypatch.setattr(module, "measure_mean_memberships", counting_measure)
    for module in (common, grid):
        monkeypatch.setattr(module, "reference_window_size", counting_reference)
    return count


def quick_small(name):
    spec = FIGURES[name]
    return replace(spec, xs=spec.quick_xs, streams=SMALL[spec.streams])


def test_quick_fig5_fig6_grid_computes_each_model_and_membership_once(counted):
    runner = GridRunner()
    first_model_key = ((call(build_q1, pattern_size=2),), SMALL[SOCCER], 1)
    model = runner.model(*first_model_key)
    fingerprint = model.fingerprint()
    figures = {
        name: runner.run(quick_small(name))
        for name in RUNNERS["fig5"] + RUNNERS["fig6"]
    }
    # 14 queries: Q1 first/last x 3, Q2 first/last x 2, Q3 x 2, Q4 x 2;
    # the model and BL's reference size do not depend on the rate, fig6
    # re-reads fig5's points
    assert counted == {"train": 14, "memberships": 14, "reference": 14}
    assert figures["fig6_q1"].points == figures["fig5_q1_first"].points
    assert figures["fig6_q3"].points == figures["fig5_q3"].points
    # the memoised model is shared read-only
    assert runner.model(*first_model_key) is model
    assert model.fingerprint() == fingerprint


def test_rows_differing_only_in_window_size_do_not_share_points():
    # build_q3(100) and build_q3(300) share their name: a name-keyed
    # memo would print ws = 100's BL numbers in the ws = 300 row
    assert build_q3(100).name == build_q3(300).name
    runner = GridRunner()
    spec = replace(FIGURES["fig5_q3"], strategies=("bl",), rates=(R1,))
    (small,) = runner.run(replace(spec, xs=(100,))).points
    (large,) = runner.run(replace(spec, xs=(300,))).points
    assert (small.x, large.x) == (100, 300)
    assert small.truth_count != large.truth_count
    assert small.fn_pct != large.fn_pct


def test_call_keys_include_defaults_and_every_argument():
    assert call(build_q1, pattern_size=4) == call(
        build_q1, pattern_size=4, window_seconds=15.0
    )
    assert call(build_q3).with_(window_events=100) != call(build_q3).with_(
        window_events=300
    )
    assert call(workloads.stock_streams_q3, symbols=15) != call(
        workloads.stock_streams_q3
    )
