"""Per-layer tracing of one ``mine`` call, from outside the program.

The functions ``topicmine.miner`` imports from the other modules, and
``TopKStore.offer``, are replaced for the duration of one call by wrappers
that add up wall time and read work counts from arguments and return values.
None of the wrapped functions calls another, so the times do not overlap and
``miner.self_s`` (the traced ``mine`` time minus all wrapped time) is what
the search driver in ``topicmine.miner`` spends itself, tracing cost
included. ``build_total_order`` is cheap and stays unwrapped, in self time.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import topicmine.miner as miner_module
from topicmine.topk import TopKStore

# miner-module name -> (time key, counter hook or None)
_WRAPPED = {
    "compute_item_summaries": ("database.summaries_s", None),
    "remap_database": ("ordering.remap_s", None),
    "build_root": ("ordering.root_s", None),
    "project": ("ordering.project_s", "project"),
    "merge_identical": ("ordering.merge_s", "merge"),
    "compute_bounds": ("bounds.bounds_s", "bounds"),
    "compute_negative_caps": ("bounds.negcaps_s", "negcaps"),
    "compute_rsu": ("bounds.root_s", None),
    "compute_riu": ("bounds.root_s", None),
}


def _count(counts: Counter, hook: str, args: tuple, result) -> None:
    if hook == "project":
        counts["project_calls"] += 1
        counts["project_views"] += len(args[0].views)
        counts["project_useful"] += result.support > 0
    elif hook == "merge":
        counts["merge_calls"] += 1
        counts["merge_views_in"] += len(args[0].views)
        counts["merge_views_out"] += len(result.views)
    elif hook == "bounds":
        counts["bounds_calls"] += 1
        counts["bounds_views"] += len(args[0].views)
    elif hook == "negcaps":
        counts["negcaps_calls"] += 1
    elif hook == "offer":
        counts["offer_calls"] += 1


class Trace:
    """Accumulated per-layer seconds and counts of one traced call."""

    def __init__(self):
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, fn, key: str, hook: str | None):
        seconds = self.seconds
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            seconds[key] += clock() - t0
            if hook:
                _count(counts, hook, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        originals = {name: getattr(miner_module, name) for name in _WRAPPED}
        offer = TopKStore.offer
        try:
            for name, (key, hook) in _WRAPPED.items():
                setattr(miner_module, name, self.wrap(originals[name], key, hook))
            TopKStore.offer = self.wrap(offer, "topk.offer_s", "offer")
            yield self
        finally:
            for name, fn in originals.items():
                setattr(miner_module, name, fn)
            TopKStore.offer = offer


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: Trace, wall: float, result) -> dict[str, float]:
    """Per-layer figures of one traced run, keyed by metric name."""
    s, c, st = trace.seconds, trace.counts, result.stats
    return {
        "database.summaries_s": s["database.summaries_s"],
        "ordering.remap_s": s["ordering.remap_s"],
        "ordering.root_s": s["ordering.root_s"],
        "ordering.project_s": s["ordering.project_s"],
        "ordering.project_calls": c["project_calls"],
        "ordering.project_views": c["project_views"],
        "ordering.project_useful_ratio": _ratio(c["project_useful"], c["project_calls"]),
        "ordering.merge_s": s["ordering.merge_s"],
        "ordering.merge_calls": c["merge_calls"],
        "ordering.merge_view_ratio": _ratio(c["merge_views_out"], c["merge_views_in"]),
        "bounds.bounds_s": s["bounds.bounds_s"],
        "bounds.bounds_calls": c["bounds_calls"],
        "bounds.bounds_views": c["bounds_views"],
        "bounds.negcaps_s": s["bounds.negcaps_s"],
        "bounds.negcaps_calls": c["negcaps_calls"],
        "bounds.root_s": s["bounds.root_s"],
        "topk.offer_s": s["topk.offer_s"],
        "topk.offer_calls": c["offer_calls"],
        "topk.threshold_raises": len(result.min_util_history) - 1,
        "miner.self_s": wall - sum(s.values()),
        "miner.candidates": st.candidates,
        "miner.projections": st.projections,
        "miner.merges": st.merges,
        "miner.peak_entries": st.peak_entries,
    }
