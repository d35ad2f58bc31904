"""Top-k high-utility itemset miner with positive/negative dual search.

:func:`mine` raises the threshold from single-item utilities, prunes the
database and renames its items to their processing ranks, and builds and
merges the root. It then raises the threshold again to the k-th largest
exact utility among the single items and the item pairs that co-occur in the
root (the CUD strategy of kHMC), before it filters the root's extensions.
The search is depth-first over ranks and runs in one loop over an explicit
stack, so it has no depth limit: it extends prefixes with positive items
(filtered at every node by one bound scan: RSU with subtree pruning on, RLU
without it) and branches into a negative-items-only search whenever a prefix
strictly beats the current threshold. That search starts from the negative
items whose positive-prefix cap under the prefix reaches the threshold, and
every deeper negative node is filtered by the same cap. The root, the
positive and the negative nodes share one lifecycle: deliver the node's
occurrences once, then count each candidate child and read its exact
utility and bounds from its bucket, offer it, and keep the extensions whose
bound can still place an itemset. A child is built (projected, merging its
identical views as it goes) only when a sub-search enters it, so a leaf is
never built. Each candidate's bound is checked again against the threshold
of the moment before its bucket is scanned; at the threshold, ties are
decided by the store's tie order, so a subtree that can at best tie the k-th
itemset and would lose the tie is cut. Merging and subtree pruning can be
toggled independently to reproduce the four ablation variants.
"""
from __future__ import annotations

import heapq
import time
from collections.abc import Iterable, Iterator
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
    projections: int = 0      # children built for a sub-search (leaves are not)
    merges: int = 0           # views merged away in the root and built children
    runtime_ms: float = 0.0
    peak_entries: int = 0     # max views alive at once in the root and built children


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
    counts each candidate that occurs, skipping (with subtree pruning on)
    one whose bound can no longer place an itemset by its turn; the node
    reads the candidate's utility and bounds from its bucket and offers it;
    :meth:`_survivors` keeps the extensions whose bound can still place an
    itemset; and only a child that a sub-search will enter is built, once,
    by :meth:`_build` (merged when merging is on), whose :meth:`_enter`
    counts the child's merged-away views, and its views as alive until the
    node leaves it. Bound maps are lists indexed by rank: the positive bound
    (RSU or RLU) covers the ``cutoff`` positive ranks, the negative caps all
    ``n`` ranks. ``eta`` holds the kept negative items; a negative search
    starts from those whose cap under its positive prefix reaches the
    threshold.
    """

    __slots__ = ("store", "config", "stats", "eta", "cutoff", "n", "live_views")

    def __init__(self, store: TopKStore, config: MinerConfig, stats: MineStats,
                 eta: list[int], cutoff: int, n: int):
        self.store = store
        self.config = config
        self.stats = stats
        self.eta = eta
        self.cutoff = cutoff
        self.n = n
        self.live_views = 0

    def run(self, root: ProjectedDatabase, primary: list[int], rsu: list[int]) -> None:
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
                  bound: list[int]):
        """Yield ``(index, item, itemset, occurrences)`` for each candidate
        that occurs in ``pdb``, in candidate order, after counting it; the
        caller reads the child's utility and bounds from ``occurrences`` and
        builds the child only to search it. With subtree pruning on, a
        candidate is skipped when its ``bound`` (RSU at a positive node, the
        negative cap at a negative one) can no longer place an itemset of its
        subtree by its turn."""
        buckets = deliver(pdb, set(candidates))
        store = self.store
        prune = self.config.enable_subtree_pruning
        stats = self.stats
        for idx, z in enumerate(candidates):
            occurrences = buckets.pop(z, None)
            if occurrences is None:
                continue
            beta = alpha + (z,)
            if prune and not store.can_place(bound[z], beta):
                continue
            stats.candidates += 1
            yield idx, z, beta, occurrences

    def _build(self, pdb: ProjectedDatabase, z: int, occurrences) -> ProjectedDatabase:
        """Project ``pdb`` on z (merged when merging is on) for a sub-search
        and enter the child; the caller leaves it once the search is done."""
        child = project(pdb, z, occurrences, self.config.enable_merging)
        self.stats.projections += 1
        self._enter(child)
        return child

    def _enter(self, pdb: ProjectedDatabase) -> None:
        """Count the node's merged-away views and its views as alive; the
        node subtracts the latter again when it leaves the child."""
        self.stats.merges += pdb.folded
        self.live_views += len(pdb.records)
        if self.live_views > self.stats.peak_entries:
            self.stats.peak_entries = self.live_views

    def _survivors(self, alpha: tuple[int, ...], candidates: Iterable[int], bound: list[int],
                   floor: int = 1) -> list[int]:
        """The candidates w whose bound can still place an itemset of the
        ``alpha + (w,)`` subtree or, with subtree pruning off, whose bound
        reaches ``floor``. A bound is 0 exactly for an item that does not
        occur: no utility is zero and each item has one sign, so a positive
        item's RSU or RLU, and a negative item's cap under a non-empty
        positive prefix, is at least 1 wherever it occurs."""
        if self.config.enable_subtree_pruning:
            store = self.store
            mu = store.min_util
            return [w for w in candidates
                    if bound[w] >= mu and store.can_place(bound[w], alpha + (w,))]
        return [w for w in candidates if bound[w] >= floor]

    def search_p(self, alpha: tuple[int, ...], pdb: ProjectedDatabase, primary: list[int],
                 bound: list[int]) -> Iterator[Iterator]:
        """Extend ``alpha`` with each positive item of ``primary``, whose
        bound list in ``pdb`` is ``bound`` (RSU with subtree pruning on, RLU
        otherwise). A child of z takes its extensions from the positive ranks
        after z whose bound in the child passes the filter: neither bound
        grows down the tree and the threshold never falls, so an item it
        rejects was pruned above or does not occur (bound 0). A child that
        strictly beats the threshold enters the negative search with the
        items of ``eta`` that pass its caps. The child is built once, on the
        first sub-search it enters, and never when it enters none."""
        store = self.store
        eta = self.eta
        cutoff = self.cutoff
        subtree = self.config.enable_subtree_pruning
        for _, z, beta, occurrences in self._children(alpha, pdb, primary, bound):
            utility, child_bound = compute_bounds(pdb, occurrences, cutoff, subtree)
            store.offer(beta, utility)
            child = None
            if eta and utility > store.min_util:
                _, caps = compute_negative_caps(pdb, occurrences, cutoff, self.n)
                neg = self._survivors(beta, eta, caps)
                if neg:
                    child = self._build(pdb, z, occurrences)
                    yield self.search_n(beta, child, neg, caps)
                del caps, neg  # not kept alive through the positive sub-search
            prim_b = self._survivors(beta, range(z + 1, cutoff), child_bound, store.min_util)
            if prim_b:
                if child is None:
                    child = self._build(pdb, z, occurrences)
                yield self.search_p(beta, child, prim_b, child_bound)
            if child is not None:
                self.live_views -= len(child.records)

    def search_n(self, beta: tuple[int, ...], pdb: ProjectedDatabase, candidates: list[int],
                 caps: list[int]) -> Iterator[Iterator]:
        """Extend ``beta`` with each negative item of ``candidates``, whose
        caps in ``pdb`` are ``caps``. The cap of w is the sum of the positive
        prefix utility over the views holding w; every itemset under
        ``beta + w`` adds only negative utilities over some of those views,
        so it is worth less. A child of z holds only negative items ranked
        after z, and the cap never grows down the tree, so the ranks after z
        whose cap in the child passes the filter are the surviving later
        candidates; a child is built only when some pass. The last
        candidate has none, so its scan caps no rank and reads only its
        utility."""
        store = self.store
        n = self.n
        last = len(candidates) - 1
        for idx, z, beta2, occurrences in self._children(beta, pdb, candidates, caps):
            first = n if idx == last else self.cutoff
            utility, child_caps = compute_negative_caps(pdb, occurrences, first, n)
            store.offer(beta2, utility)
            nxt = self._survivors(beta2, range(z + 1, n), child_caps)
            if nxt:
                child = self._build(pdb, z, occurrences)
                yield self.search_n(beta2, child, nxt, child_caps)
                self.live_views -= len(child.records)


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

    search = _Search(store, config, stats, eta, order.positive_cutoff, len(order.items))
    root = build_root(remap_database(db, order, {order.items[r] for r in kept}))
    if config.enable_merging:
        root = merge_identical(root)
    search._enter(root)
    store.raise_to_kth(_item_and_pair_utilities(summaries, order, root, positives, config.k))
    rsu = compute_rsu(root, order.positive_cutoff)
    primary0 = search._survivors((), positives, rsu)
    if primary0:
        search.run(root, primary0, rsu)

    top_k = [(tuple(sorted(order.items[r] for r in itemset)), utility)
             for itemset, utility in store.results()]
    stats.runtime_ms = (time.perf_counter() - t0) * 1000
    return MineResult(top_k, store.min_util, stats, store.history)
