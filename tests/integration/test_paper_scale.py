"""Paper-scale run (windows of ~2000 events, as in the paper).

The default workloads scale window sizes down ~10x; this test verifies
nothing breaks at the paper's actual scale.  It takes a second or two,
and its ~2000-event windows are the largest segments the virtual-time
driver prices.
"""

from repro.datasets.io import split_stream
from repro.datasets.stock import StockStreamConfig, generate_stock_stream
from repro.experiments.common import ExperimentConfig, run_quality_point
from repro.queries import build_q2
from repro.runtime.quality import ground_truth


def test_q2_at_paper_scale():
    # 500 symbols at 1 quote/min: a 240 s window holds ~2000 events
    stream = generate_stock_stream(
        StockStreamConfig(symbols=500, leaders=5, ticks=120, seed=5)
    )
    train, test = split_stream(stream, 0.5)
    query = build_q2(pattern_size=20, window_seconds=240.0, symbols=500)
    truth = ground_truth(query, test)
    assert len(truth) > 0
    outcome = run_quality_point(
        query, train, test, "espice", 1.2, ExperimentConfig(bin_size=4), truth
    )
    assert outcome.fn_pct < 20.0
    assert outcome.latency.violations == 0
