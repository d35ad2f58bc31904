"""Top-k high-utility itemset miner with positive/negative dual search.

:func:`mine` raises the threshold from single-item utilities, prunes the
database and renames its items to their processing ranks, then runs a
depth-first search over ranks that extends prefixes with positive items
(recomputing RLU/RSU filters at every node) and branches into a
negative-items-only search whenever a prefix strictly beats the current
threshold. Merging and subtree pruning can be toggled independently
to reproduce the four ablation variants.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .bounds import compute_bounds, compute_negative_caps, compute_riu, compute_rsu
from .database import UtilityDatabase, compute_item_summaries
from .ordering import (
    ProjectedDatabase,
    build_root,
    build_total_order,
    deliver,
    merge_identical,
    project,
    remap_database,
)
from .topk import TopKStore


class InvalidKError(ValueError):
    pass


VARIANTS = {
    "full": (True, True),
    "merge-only": (True, False),
    "subtree-only": (False, True),
    "none": (False, False),
}


@dataclass(frozen=True)
class MinerConfig:
    k: int
    enable_merging: bool = True
    enable_subtree_pruning: bool = True

    @classmethod
    def variant(cls, k: int, name: str) -> "MinerConfig":
        merging, subtree = VARIANTS[name]
        return cls(k, enable_merging=merging, enable_subtree_pruning=subtree)


@dataclass
class MineStats:
    candidates: int = 0       # itemsets whose exact utility was computed
    projections: int = 0      # non-empty children built
    merges: int = 0           # coalesced view pairs
    runtime_ms: float = 0.0
    peak_entries: int = 0     # max projected views alive at once


@dataclass
class MineResult:
    top_k: list[tuple[tuple[int, ...], int]]
    final_min_util: int
    stats: MineStats
    min_util_history: list[int] = field(default_factory=lambda: [1])


class _Search:
    """Per-run mutable search state (single-threaded). Items are ranks."""

    def __init__(self, store: TopKStore, config: MinerConfig, stats: MineStats):
        self.store = store
        self.config = config
        self.stats = stats
        self.live_views = 0

    def _track(self, delta: int) -> None:
        self.live_views += delta
        if self.live_views > self.stats.peak_entries:
            self.stats.peak_entries = self.live_views

    def _merge(self, pdb: ProjectedDatabase) -> ProjectedDatabase:
        merged = merge_identical(pdb)
        self.stats.merges += len(pdb.views) - len(merged.views)
        return merged

    def search_p(
        self,
        alpha: tuple[int, ...],
        pdb: ProjectedDatabase,
        primary: list[int],
        secondary: list[int],
        eta: list[int],
    ) -> None:
        store = self.store
        config = self.config
        stats = self.stats
        buckets = deliver(pdb, set(primary))
        for z in primary:
            occurrences = buckets.pop(z, None)
            if occurrences is None:
                continue
            child = project(pdb, z, occurrences)
            stats.projections += 1
            stats.candidates += 1
            beta = alpha + (z,)
            store.offer(beta, child.utility)
            if config.enable_merging and child.views:
                child = self._merge(child)
            self._track(len(child.views))
            if eta and child.views and child.utility > store.min_util:
                self.search_n(beta, child, eta)
            if child.views:
                rlu, rsu = compute_bounds(child)
                mu = store.min_util
                sec_b = [w for w in secondary if w > z and rlu.get(w, 0) >= mu]
                if config.enable_subtree_pruning:
                    prim_b = [w for w in sec_b if rsu.get(w, 0) >= mu]
                else:
                    prim_b = sec_b
                if prim_b:
                    self.search_p(beta, child, prim_b, sec_b, eta)
            self._track(-len(child.views))

    def search_n(
        self,
        beta: tuple[int, ...],
        pdb: ProjectedDatabase,
        candidates: list[int],
    ) -> None:
        store = self.store
        config = self.config
        stats = self.stats
        buckets = deliver(pdb, set(candidates))
        for idx, z in enumerate(candidates):
            occurrences = buckets.pop(z, None)
            if occurrences is None:
                continue
            child = project(pdb, z, occurrences)
            stats.projections += 1
            stats.candidates += 1
            beta2 = beta + (z,)
            store.offer(beta2, child.utility)
            rest = candidates[idx + 1:]
            if not rest or not child.views:
                continue
            if config.enable_merging:
                child = self._merge(child)
            self._track(len(child.views))
            caps = compute_negative_caps(child)
            if config.enable_subtree_pruning:
                mu = store.min_util
                nxt = [w for w in rest if caps.get(w, 0) >= mu]
            else:
                nxt = [w for w in rest if w in caps]
            if nxt:
                self.search_n(beta2, child, nxt)
            self._track(-len(child.views))


def mine(db: UtilityDatabase, config: MinerConfig) -> MineResult:
    """Run the full top-k mining pipeline and return the exact result."""
    if config.k < 1:
        raise InvalidKError(f"k must be >= 1, got {config.k}")
    t0 = time.perf_counter()
    stats = MineStats()
    if not db.transactions:
        stats.runtime_ms = (time.perf_counter() - t0) * 1000
        return MineResult([], 1, stats)

    summaries = compute_item_summaries(db)
    order = build_total_order(summaries)
    store = TopKStore(config.k)
    store.raise_with_riu(compute_riu(db))

    # At the root, RLU collapses to RTWU for positive items. From here on
    # items are ranks; results are translated back through ``order.items``.
    mu = store.min_util
    kept = [r for r, i in enumerate(order.items) if summaries[i].rtwu >= mu]
    secondary0 = [r for r in kept if r < order.positive_cutoff]
    eta = [r for r in kept if r >= order.positive_cutoff]

    root = build_root(remap_database(db, order, {order.items[r] for r in kept}))
    search = _Search(store, config, stats)
    if config.enable_merging and root.views:
        root = search._merge(root)
    search._track(len(root.views))

    rsu0 = compute_rsu(root)
    if config.enable_subtree_pruning:
        primary0 = [z for z in secondary0 if rsu0.get(z, 0) >= store.min_util]
    else:
        primary0 = secondary0

    if primary0:
        search.search_p((), root, primary0, secondary0, eta)

    top_k = [(tuple(sorted(order.items[r] for r in itemset)), utility)
             for itemset, utility in store.results()]
    stats.runtime_ms = (time.perf_counter() - t0) * 1000
    return MineResult(top_k, store.min_util, stats, store.history)
