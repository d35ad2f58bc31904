"""Top-k high-utility itemset miner with positive/negative dual search.

The driver raises the threshold from single-item utilities, prunes and
reorders the database, then runs a depth-first search that extends prefixes
with positive items (recomputing RLU/RSU filters at every node) and branches
into a negative-items-only search whenever a prefix strictly beats the
current threshold. Merging and subtree pruning can be toggled independently
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

    @property
    def variant_name(self) -> str:
        for name, flags in VARIANTS.items():
            if flags == (self.enable_merging, self.enable_subtree_pruning):
                return name
        raise AssertionError


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
    """Per-run mutable search state (single-threaded)."""

    def __init__(self, store: TopKStore, config: MinerConfig, stats: MineStats,
                 rank: list[int]):
        self.store = store
        self.config = config
        self.stats = stats
        self.rank = rank
        self.live_views = 0

    def _track(self, delta: int) -> None:
        self.live_views += delta
        if self.live_views > self.stats.peak_entries:
            self.stats.peak_entries = self.live_views

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
        rank = self.rank
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
                child = merge_identical(child)
                stats.merges = stats.merges + child.merged_pairs
            self._track(len(child.views))
            if eta and child.views and child.utility > store.min_util:
                self.search_n(beta, child, eta)
            if child.views:
                rlu, rsu = compute_bounds(child)
                mu = store.min_util
                rz = rank[z]
                sec_b = [w for w in secondary if rank[w] > rz and rlu.get(w, 0) >= mu]
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
                child = merge_identical(child)
                stats.merges = stats.merges + child.merged_pairs
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
    store = TopKStore(config.k, rank=order.rank)
    store.raise_with_riu(compute_riu(db))

    # At the root, RLU collapses to RTWU for positive items.
    mu = store.min_util
    secondary0 = sorted(
        (s.item for s in summaries if s.positive and s.rtwu >= mu),
        key=lambda i: order.rank[i],
    )
    negatives_kept = {s.item for s in summaries if not s.positive and s.rtwu >= mu}

    rdb = remap_database(db, order, set(secondary0), negatives_kept)
    root = build_root(rdb, order)
    search = _Search(store, config, stats, order.rank)
    if config.enable_merging and root.views:
        root = merge_identical(root)
        stats.merges += root.merged_pairs
    search._track(len(root.views))

    rsu0 = compute_rsu(root)
    if config.enable_subtree_pruning:
        primary0 = [z for z in secondary0 if rsu0.get(z, 0) >= store.min_util]
    else:
        primary0 = secondary0
    eta = sorted(negatives_kept, key=lambda i: order.rank[i])

    if primary0:
        search.search_p((), root, primary0, secondary0, eta)

    stats.runtime_ms = (time.perf_counter() - t0) * 1000
    return MineResult(store.results(), store.min_util, stats, store.history)
