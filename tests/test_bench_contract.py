"""What the benchmark in ``bench/`` needs from the program.

``bench/tracing.py`` wraps functions by their names on ``topicmine.miner``
and ``bench/run.py`` reads ``MineStats`` fields. A renamed function or a
dropped field would break every benchmark run, so this mines the worked
example through both, the way the benchmark does.
"""
import sys
from pathlib import Path

import pytest

from topicmine import MinerConfig, mine

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import tracing

    yield run, tracing
    for name in ("run", "tracing", "workloads"):
        sys.modules.pop(name, None)


def test_traced_mine_gives_every_bench_figure(bench, example_db):
    run, tracing = bench
    trace = tracing.Trace()
    with trace.installed():
        result = mine(example_db, MinerConfig(5))

    metrics = tracing.layer_metrics(trace, 1.0, result)
    stats = result.stats
    assert metrics["topk.offer_calls"] == stats.candidates > 0
    assert metrics["ordering.project_calls"] == stats.projections
    assert metrics["bounds.bounds_calls"] > 0
    assert metrics["bounds.negcaps_calls"] > 0
    assert trace.seconds["bounds.root_s"] > 0  # compute_rsu and compute_riu ran

    figures = run.repeat_figures(result)
    assert figures == {
        "miner.candidates": stats.candidates,
        "miner.projections": stats.projections,
        "miner.merges": stats.merges,
        "miner.peak_entries": stats.peak_entries,
        "topk.threshold_raises": len(result.min_util_history) - 1,
        "final_min_util": 58,
    }
