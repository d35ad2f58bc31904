"""Benchmark of topicmine's exact top-k miner, driven through its public API.

    python3 bench/run.py --workload sparse-neg [--seed 11] [--seconds S] [--trace 0]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``. One
process, one thread. The workload is generated from ``--seed`` with
``generate_synthetic`` and written out with ``write_spmf``; the program sees
only that SPMF text. A run parses the text, runs the ``none`` variant for
the expected outcome (at the reference seed it must also match the committed
``reference.json``) and then, for ``--seconds`` and at least ``MIN_SAMPLES``
passes, times one ``mine`` with the ``full`` variant and one parse per pass.

Wall time on a shared host drifts by a third within a minute, and the drift
lasts longer than one run. So every timed sample sits between two runs of a
fixed pure-Python yardstick, which does not call the program, and is scaled
to a host on which the yardstick takes ``YARDSTICK_S``: ``mine_s`` and
``setup_s`` are medians of these scaled samples. The record keeps the raw
wall times too.

Between timed runs it does the one-off work:

- checks ``mine`` against the brute-force oracle on a small instance of the
  workload's shape;
- with ``--trace 0``, runs ``mine`` once under tracemalloc (``peak_mem_mb``);
- with ``--trace 1``, runs ``mine`` ``TRACED_RUNS`` times with every layer
  wrapped (see ``tracing.py``) and reports the per-layer metrics and the
  tracing overhead instead of the end-to-end ones.

Every ``mine`` run is checked: it fails if it raised, if its top-k or final
threshold differ from the expected outcome, or if its deterministic counters
(and the tracemalloc run's peak) differ from the first run's or from a
recorded result of the same code (``results/``). The last line of standard
output is the result object; the line before it is the run's record
(environment, samples, counters, errors).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc

from workloads import (
    HERE,
    REFERENCE,
    REFERENCE_SEED,
    RESULTS,
    SRC,
    WORKLOADS,
    code_digest,
    digest,
    import_program,
    outcome,
    run_seconds,
)

SCHEMA_VERSION = 2
# Each set-up sample parses this many transactions or more, so that a
# sample of a small workload is not lost in timer and scheduler noise.
SETUP_SAMPLE_TRANSACTIONS = 10000
MIN_SAMPLES = 3
TRACED_RUNS = 3
# Median seconds of the yardstick on the 2-core host (Python 3.11) where the
# benchmark was written: the scale of ``mine_s`` and ``setup_s``.
YARDSTICK_S = 0.016


def yardstick() -> float:
    """Wall seconds of a fixed pure-Python loop with the miner's kind of
    work: int dict updates and list appends. It makes no object the cyclic
    garbage collector tracks, so its time does not grow with the heap that
    the workload leaves behind."""
    t0 = time.perf_counter()
    counts: dict = {}
    keys = []
    for i in range(120000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
        keys.append(key ^ i)
    return time.perf_counter() - t0


class Checks:
    """Counts checked ``mine`` runs and keeps the reason for every failure."""

    def __init__(self, expected: dict, recorded: dict, recorded_in: str | None):
        self.expected = expected
        self.recorded = recorded
        self.recorded_in = recorded_in
        self.repeat: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def error(self, message: str) -> None:
        self.errors.append(message)
        sys.stderr.write(f"check failed: {message}\n")

    def call(self, what: str, mine_once):
        """Time ``mine_once()``; returns (result, seconds), or (None, None)
        when it raised, which counts as a failed run."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = mine_once()
        except Exception:  # a raising run is a counted failure
            self.failed += 1
            self.error(f"{what} raised:\n{traceback.format_exc()}")
            return None, None
        return result, time.perf_counter() - t0

    def check(self, what: str, db, result, **figures) -> None:
        """Check the outcome of ``result`` and that its repeat figures, plus
        ``figures``, equal the first run's and the recorded ones."""
        problems = []
        got = outcome(db, result)
        if got != self.expected:
            problems.append(f"outcome {got} != expected {self.expected}")
        for name, value in {**repeat_figures(result), **figures}.items():
            first = self.repeat.setdefault(name, value)
            if value != first:
                problems.append(f"{name} {value} != first run's {first}")
            if name in self.recorded and value != self.recorded[name]:
                problems.append(f"{name} {value} != {self.recorded[name]} "
                                f"recorded in {self.recorded_in}")
        if problems:
            self.failed += 1
            self.error(f"{what}: " + "; ".join(problems))

    def run(self, what: str, db, mine_once):
        result, seconds = self.call(what, mine_once)
        if result is not None:
            self.check(what, db, result)
        return result, seconds


def repeat_figures(result) -> dict:
    """Figures that must be identical on every run of one code version."""
    st = result.stats
    return {
        "miner.candidates": st.candidates,
        "miner.projections": st.projections,
        "miner.merges": st.merges,
        "miner.peak_entries": st.peak_entries,
        "topk.threshold_raises": len(result.min_util_history) - 1,
        "final_min_util": result.final_min_util,
    }


def load_reference(workload, input_sha256: str) -> tuple[dict | None, list[str]]:
    """The committed outcome for ``workload`` at the reference seed, or the
    reasons it cannot be used."""
    entry = json.loads(REFERENCE.read_text())["workloads"].get(workload.name)
    if entry is None:
        return None, [f"reference.json has no entry for {workload.name}"]
    problems = []
    if entry["params"] != workload.params():
        problems.append(f"workload params {workload.params()} != reference {entry['params']}")
    if entry["input_sha256"] != input_sha256:
        problems.append("generated SPMF text differs from the reference input")
    return entry["outcome"], problems


def load_recorded(workload) -> tuple[dict, str | None]:
    """The repeat figures, ``peak_mem_mb`` included, of the untraced run of
    ``workload`` at the reference seed in the first recorded result of this
    same code and Python version, and that result's file name."""
    source, bench = code_digest(SRC), code_digest(HERE)
    for path in sorted(RESULTS.glob("BENCH_*.json")):
        point = json.loads(path.read_text())
        if (point["source_sha256"], point.get("bench_sha256")) != (source, bench):
            continue
        record = point["workloads"].get(workload.name, {}).get("trace0", {}).get("record")
        if record and record["python"] == platform.python_version():
            return record["repeat"], path.name
    return {}, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loadavg_start = list(os.getloadavg())
    tm = import_program()
    from tracing import Trace, layer_metrics

    workload = WORKLOADS[args.workload]
    config = tm.MinerConfig(workload.k)
    source = tm.generate_synthetic(*workload.generator_args(args.seed))
    text = tm.write_spmf(source)
    setup_errors = []

    # Set-up: parse the SPMF text, as every `topicmine mine` run does.
    batch = -(-SETUP_SAMPLE_TRANSACTIONS // workload.n_transactions)

    def parse_once():
        for _ in range(batch):
            parsed = tm.parse_spmf(text)
        return parsed

    db = parse_once()
    if db != source:
        setup_errors.append("parse_spmf(write_spmf(db)) differs from db")
    del source

    # The expected outcome: the `none` variant's, and at the reference seed
    # the committed one, which `none` must then match.
    expected = outcome(db, tm.mine(db, tm.MinerConfig.variant(workload.k, "none")))
    recorded, recorded_in = {}, None
    if args.seed == REFERENCE_SEED:
        reference, problems = load_reference(workload, digest(text))
        setup_errors += problems
        if reference is not None and reference != expected:
            setup_errors.append(f"variant none {expected} != reference {reference}")
            expected = reference
        recorded, recorded_in = load_recorded(workload)
    checks = Checks(expected, recorded, recorded_in)
    for message in setup_errors:
        checks.error(message)

    def mine_once():
        return tm.mine(db, config)

    def oracle_check():
        small = tm.generate_synthetic(*workload.oracle_args(args.seed))
        if tm.mine(small, config).top_k != tm.enumerate_topk(small, workload.k).top_k:
            checks.error("mine differs from enumerate_topk on the small instance")

    peak_mb = []

    def memory_pass():
        gc.collect()
        tracemalloc.start()
        try:
            result, _ = checks.call("tracemalloc run", mine_once)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        if result is not None:
            peak_mb.append(peak)
            checks.check("tracemalloc run", db, result, peak_mem_mb=peak)

    layers = []
    overheads = []
    wall = {"mine_s": [], "setup_s": []}
    scaled = {"mine_s": [], "setup_s": []}

    def traced_run():
        gc.collect()
        trace = Trace()

        def mine_traced():
            with trace.installed():
                return tm.mine(db, config)

        before = yardstick()
        result, seconds = checks.run(f"traced run {len(layers) + 1}", db, mine_traced)
        scale = 2 * YARDSTICK_S / (before + yardstick())
        if result is not None:
            layers.append({name: value * scale if name.endswith("_s") else value
                           for name, value in layer_metrics(trace, seconds, result).items()})
            # Against the untraced run just before it, in the same host period.
            if scaled["mine_s"]:
                overheads.append(seconds * scale / scaled["mine_s"][-1] - 1)

    # Every loop pass takes one `mine` sample and one parse sample, each
    # between two yardstick runs, and then does one piece of the one-off
    # work: the samples spread over the whole run instead of its tail. The
    # memory pass always follows the same steps, so it starts from the same
    # state on every run.
    passes = [memory_pass] if args.trace == 0 else [traced_run] * TRACED_RUNS
    tasks = [oracle_check] + passes

    yardsticks = []
    runs = 0
    start = time.perf_counter()
    while runs < MIN_SAMPLES or time.perf_counter() - start < args.seconds:
        runs += 1
        gc.collect()
        before = yardstick()
        result, seconds = checks.run(f"timed run {runs}", db, mine_once)
        between = yardstick()
        del result
        gc.collect()
        t0 = time.perf_counter()
        parsed = parse_once()
        setup = (time.perf_counter() - t0) / batch
        after = yardstick()
        if parsed != db:
            checks.error("parse_spmf gave a different database on a repeat")
        del parsed
        yardsticks += [before, between, after]
        if seconds is not None:
            wall["mine_s"].append(seconds)
            scaled["mine_s"].append(seconds * 2 * YARDSTICK_S / (before + between))
        wall["setup_s"].append(setup)
        scaled["setup_s"].append(setup * 2 * YARDSTICK_S / (between + after))
        if tasks and seconds is not None:
            tasks.pop(0)()
    window = time.perf_counter() - start
    for task in tasks:
        task()
    if not scaled["mine_s"]:
        sys.stderr.write("every timed run raised\n")
        return 1

    record = {
        "schema_version": SCHEMA_VERSION,
        "workload": workload.name,
        "seed": args.seed,
        "k": workload.k,
        "trace": args.trace,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "loadavg_start": loadavg_start,
        "window_s": window,
        "yardstick_s": YARDSTICK_S,
        "yardstick_median_s": statistics.median(yardsticks),
        "samples": {name: len(v) for name, v in scaled.items()},
        "scaled_samples": scaled,
        "wall_samples": wall,
        "wall_median": {name: statistics.median(v) for name, v in wall.items()},
        "repeat": checks.repeat,
        "recorded_in": recorded_in,
    }

    if args.trace == 0:
        if not peak_mb:
            sys.stderr.write("the tracemalloc run raised\n")
            return 1
        metrics = {
            "mine_s": (statistics.median(scaled["mine_s"]), "s"),
            "setup_s": (statistics.median(scaled["setup_s"]), "s"),
            "peak_mem_mb": (peak_mb[0], "MB"),
        }
    else:
        if not layers:
            sys.stderr.write("every traced run raised\n")
            return 1
        counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in layers]
        if any(c != counts[0] for c in counts):
            checks.failed += 1
            checks.error(f"per-layer counts differ between traced runs: {counts}")
        metrics = {
            name: (statistics.median(m[name] for m in layers), unit_of(name))
            for name in layers[0]
        }
        metrics["trace_overhead_frac"] = (statistics.median(overheads), "ratio")
        record["samples"]["traced_runs"] = len(layers)

    record["fail_frac"] = checks.failed / checks.attempted
    record["errors"] = checks.errors
    for name, (value, unit) in metrics.items():
        sys.stderr.write(f"{workload.name:>13}  {name:<30} {value:>14.6g} {unit}\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not checks.errors,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not checks.errors else 1


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
