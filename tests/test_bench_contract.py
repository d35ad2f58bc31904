"""What the benchmark in ``bench/`` needs from the program.

``bench/tracing.py`` wraps functions by their names on ``topicmine.miner``
and ``bench/run.py`` reads ``MineStats`` fields. A renamed function or a
dropped field would break every benchmark run, so this mines the worked
example through both, the way the benchmark does.
"""
import sys
from collections import Counter
from pathlib import Path

import pytest

import topicmine.miner as miner_module
from topicmine import MinerConfig, generate_synthetic, mine

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
    assert metrics["ordering.merge_calls"] == 1 + stats.projections
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


def test_mine_calls_every_wrapped_function(bench, example_db, monkeypatch):
    """Each function the tracer wraps must still be called through
    ``topicmine.miner``; otherwise its layer silently reads zero (two of
    them share ``bounds.root_s``, so a time check alone cannot tell)."""
    _, tracing = bench
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in tracing._WRAPPED:
        monkeypatch.setattr(miner_module, name, counting(name, getattr(miner_module, name)))
    mine(example_db, MinerConfig(5))
    assert [name for name in tracing._WRAPPED if not calls[name]] == []


# The repeat figures of each benchmark workload at seed 11, named here so
# that a workload added to bench/ later needs no entry. The benchmark only
# compares them with a recorded run of the same code, so a change that
# moves them must show here.
BENCH_GOLDEN = {
    "sparse-neg": (2483, 146, 1099, 8026, 1, 54),
    "dense-pos": (1942, 261, 6239, 3952, 1, 21270),
    "wide-shallow": (394, 0, 4, 7996, 1, 318),
}


@pytest.mark.parametrize("name", sorted(BENCH_GOLDEN))
def test_bench_counters_at_seed_11(bench, name):
    run, _ = bench
    workload = run.WORKLOADS[name]
    result = mine(generate_synthetic(*workload.generator_args(11)), MinerConfig(workload.k))
    fields = ("miner.candidates", "miner.projections", "miner.merges", "miner.peak_entries",
              "topk.threshold_raises", "final_min_util")
    assert run.repeat_figures(result) == dict(zip(fields, BENCH_GOLDEN[name]))
