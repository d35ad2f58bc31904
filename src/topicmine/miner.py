"""Top-k high-utility itemset miner with positive/negative dual search.

:func:`mine` raises the threshold from single-item utilities, prunes the
database and renames its items to their processing ranks, and builds the
root. It then raises the threshold again to the k-th largest exact utility
among the single items and the item pairs that co-occur in the root (the
CUD strategy of kHMC), before it filters the root's extensions. The search
is depth-first over ranks and runs in one loop over an explicit stack, so
it has no depth limit: it extends prefixes with positive items
(recomputing RLU/RSU filters at every node) and branches into a
negative-items-only search whenever a prefix strictly beats the current
threshold. That search starts from the negative items whose positive-prefix
cap under the prefix reaches the threshold, and every deeper negative node
is filtered by the same cap. The root, the positive and the negative nodes
share one lifecycle: build, count and offer each candidate child from one
delivery of the node's occurrences, merge the child's identical views, and
keep the extensions whose bound reaches the threshold. Each candidate's
bound is checked again against the threshold of the moment before it is
projected. Merging and subtree pruning can be toggled independently to
reproduce the four ablation variants.
"""
from __future__ import annotations

import heapq
import time
from collections.abc import Iterator
from dataclasses import dataclass

from .bounds import (
    compute_bounds,
    compute_negative_caps,
    compute_pair_rows,
    compute_riu,
    compute_rsu,
)
from .database import ItemSummary, UtilityDatabase, compute_item_summaries
from .ordering import (
    ProjectedDatabase,
    TotalOrder,
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
    min_util_history: list[int]


class _Search:
    """Per-run mutable search state (single-threaded). Items are ranks.

    The search runs in one loop over an explicit stack (:meth:`run`), so its
    depth is not limited by the interpreter's. Each node is a generator that
    yields its sub-searches, in order, as unstarted generators, and leaves
    the child they searched when resumed. Every node goes through one
    lifecycle: :meth:`_children` delivers the node's occurrences once and
    builds, counts and offers each candidate that occurs, skipping (with
    subtree pruning on) one whose bound has fallen below the threshold by
    its turn; :meth:`_enter` merges a child's views and counts them as alive
    until the node leaves it; :meth:`_survivors` keeps the extensions whose
    bound reaches the threshold. ``eta`` holds the kept negative items; a
    negative search starts from those whose cap under its positive prefix
    reaches the threshold.
    """

    def __init__(self, store: TopKStore, config: MinerConfig, stats: MineStats,
                 eta: list[int]):
        self.store = store
        self.config = config
        self.stats = stats
        self.eta = eta
        self.live_views = 0

    def run(self, root: ProjectedDatabase, primary: list[int], rsu: dict[int, int]) -> None:
        """Search depth first from the root: resume the top node, push the
        sub-search it yields and pop it once it is exhausted."""
        stack = [self.search_p((), root, primary, rsu)]
        while stack:
            sub = next(stack[-1], None)
            if sub is None:
                stack.pop()
            else:
                stack.append(sub)

    def _children(self, alpha: tuple[int, ...], pdb: ProjectedDatabase, candidates: list[int],
                  bound: dict[int, int]):
        """Yield ``(index, item, itemset, child)`` for each candidate that
        occurs in ``pdb``, in candidate order, after counting and offering
        the child's itemset. With subtree pruning on, a candidate whose
        ``bound`` (RSU at a positive node, the negative cap at a negative
        one) is below the threshold when its turn comes is skipped."""
        buckets = deliver(pdb, set(candidates))
        prune = self.config.enable_subtree_pruning
        for idx, z in enumerate(candidates):
            occurrences = buckets.pop(z, None)
            if occurrences is None or (prune and bound[z] < self.store.min_util):
                continue
            child = project(pdb, z, occurrences)
            self.stats.projections += 1
            self.stats.candidates += 1
            beta = alpha + (z,)
            self.store.offer(beta, child.utility)
            yield idx, z, beta, child

    def _enter(self, pdb: ProjectedDatabase) -> ProjectedDatabase:
        """Merge the node's views when merging is on and count them as alive;
        the node subtracts them again when it leaves the child."""
        if self.config.enable_merging and pdb.views:
            merged = merge_identical(pdb)
            self.stats.merges += len(pdb.views) - len(merged.views)
            pdb = merged
        self.live_views += len(pdb.views)
        if self.live_views > self.stats.peak_entries:
            self.stats.peak_entries = self.live_views
        return pdb

    def _survivors(self, candidates: list[int], bound: dict[int, int]) -> list[int]:
        """The candidates whose bound reaches the threshold or, with subtree
        pruning off, those that occur in the node (have a bound at all)."""
        if self.config.enable_subtree_pruning:
            mu = self.store.min_util
            return [w for w in candidates if bound.get(w, 0) >= mu]
        return [w for w in candidates if w in bound]

    def search_p(self, alpha: tuple[int, ...], pdb: ProjectedDatabase, primary: list[int],
                 rsu: dict[int, int]) -> Iterator[Iterator]:
        """Extend ``alpha`` with each positive item of ``primary``, whose RSU
        in ``pdb`` is ``rsu``. A child's extensions are read off its own RLU
        map: RLU never grows down the tree and the threshold never falls, so
        an item the map lacks or rejects was pruned above or does not occur.
        A child that strictly beats the threshold enters the negative search
        with the items of ``eta`` that pass its cap map."""
        store = self.store
        eta = self.eta
        for _, _, beta, child in self._children(alpha, pdb, primary, rsu):
            child = self._enter(child)
            if eta and child.views and child.utility > store.min_util:
                caps = compute_negative_caps(child)
                neg = self._survivors(eta, caps)
                if neg:
                    yield self.search_n(beta, child, neg, caps)
                del caps, neg  # not kept alive through the positive sub-search
            if child.views:
                rlu, child_rsu = compute_bounds(child)
                mu = store.min_util
                # unnamed, so only prim_b stays alive through the sub-search
                prim_b = self._survivors(sorted(w for w, b in rlu.items() if b >= mu), child_rsu)
                if prim_b:
                    yield self.search_p(beta, child, prim_b, child_rsu)
            self.live_views -= len(child.views)

    def search_n(self, beta: tuple[int, ...], pdb: ProjectedDatabase, candidates: list[int],
                 caps: dict[int, int]) -> Iterator[Iterator]:
        """Extend ``beta`` with each negative item of ``candidates``, whose
        caps in ``pdb`` are ``caps``. The cap of w is the sum of the positive
        prefix utility over the views holding w; every itemset under
        ``beta + w`` adds only negative utilities over some of those views,
        so it is worth less. A child holds only negative items ranked after
        its last one, and its cap map covers exactly those; the cap never
        grows down the tree, so the map's keys that pass the filter are the
        surviving later candidates."""
        last = len(candidates) - 1
        for idx, _, beta2, child in self._children(beta, pdb, candidates, caps):
            if idx == last or not child.views:
                continue
            child = self._enter(child)
            child_caps = compute_negative_caps(child)
            nxt = self._survivors(sorted(child_caps), child_caps)
            if nxt:
                yield self.search_n(beta2, child, nxt, child_caps)
            self.live_views -= len(child.views)


def _item_and_pair_utilities(summaries: list[ItemSummary], order: TotalOrder,
                             root: ProjectedDatabase, positives: list[int],
                             k: int) -> Iterator[int]:
    """Yield the exact utility of every item, then of every pair in the root
    led by one of the k items of ``positives`` with the highest utility.
    Each value belongs to a distinct itemset, as the pair raise needs."""
    for s in summaries:
        yield s.utility
    firsts = heapq.nlargest(k, positives, key=lambda r: summaries[order.items[r]].utility)
    for _, row in compute_pair_rows(root, firsts):
        yield from row.values()


def mine(db: UtilityDatabase, config: MinerConfig) -> MineResult:
    """Run the full top-k mining pipeline and return the exact result."""
    if config.k < 1:
        raise InvalidKError(f"k must be >= 1, got {config.k}")
    t0 = time.perf_counter()
    stats = MineStats()
    summaries = compute_item_summaries(db)
    order = build_total_order(summaries)
    store = TopKStore(config.k)
    store.raise_to_kth(compute_riu(summaries))

    # At the root, RLU collapses to RTWU for positive items. From here on
    # items are ranks; results are translated back through ``order.items``.
    mu = store.min_util
    kept = [r for r, i in enumerate(order.items) if summaries[i].rtwu >= mu]
    positives = [r for r in kept if r < order.positive_cutoff]
    eta = [r for r in kept if r >= order.positive_cutoff]

    search = _Search(store, config, stats, eta)
    root = search._enter(build_root(
        remap_database(db, order, {order.items[r] for r in kept})))
    store.raise_to_kth(_item_and_pair_utilities(summaries, order, root, positives, config.k))
    rsu = compute_rsu(root)
    primary0 = search._survivors(positives, rsu)
    if primary0:
        search.run(root, primary0, rsu)

    top_k = [(tuple(sorted(order.items[r] for r in itemset)), utility)
             for itemset, utility in store.results()]
    stats.runtime_ms = (time.perf_counter() - t0) * 1000
    return MineResult(top_k, store.min_util, stats, store.history)
