"""Top-k high-utility itemset miner for positive and negative utilities.

:func:`mine` raises the threshold from single-item utilities, ranks only
the items whose RTWU reaches it, renames them to their ranks in the
database, dropping the rest, and builds and enters the root like every
other node: merged, then delivered once. From the root's buckets it raises
the threshold again to the k-th largest exact utility among the single
items and the item pairs that co-occur in the root (the CUD strategy of
kHMC), then reads the root's RSU, and the search pops
its children from the same buckets. The search is depth-first over ranks,
where every positive item precedes every negative one, and runs in one loop
over an explicit stack, so it has no depth limit. Every node goes through
one lifecycle: it is entered (merged and delivered once), then each
candidate child is counted, its exact utility and bound list are read from
its bucket, it is offered, and the extensions whose bound can still place
an itemset are kept. A node's bound list holds one bound per
rank: RSU with subtree pruning on (RLU without it) for the positive ranks,
and a positive-prefix cap for the negative ranks. A child under a positive
item is given negative extensions only when it strictly beats the
threshold; its negative extensions come before its positive ones. A child
is built only when it has an extension: it is projected, merged like the
root, and entered by one sub-search, so a leaf is never built. Each
candidate's bound is checked again against the threshold of the moment
before its bucket is scanned; at the threshold, ties are decided by
the store's tie order, so a subtree that can at best tie the k-th itemset
and would lose the tie is cut. Merging and subtree pruning can be toggled
independently to reproduce the four ablation variants.
"""
from __future__ import annotations

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
    depth is not limited by the interpreter's. :meth:`_enter` takes every
    node, the root and each built child alike: it merges the node when
    merging is on, counts its merged-away views, counts its views as alive
    until the parent leaves it, and delivers its occurrences once. Each
    node is a :meth:`search` generator over its buckets that counts each
    candidate that occurs, skipping (with subtree pruning on) one whose
    bound can no longer place an itemset by its turn, and yields one
    sub-search per built child, as an unstarted generator, leaving that
    child when resumed. :meth:`_survivors` keeps the extensions whose bound
    can still place an itemset, and only a child that has some is projected
    and entered. A node's bound list is indexed by rank: RSU or RLU for the
    ``cutoff`` positive ranks, then the caps of the negative ranks up to
    ``n`` when the node has any. Only the ``n`` items the root keeps are
    ranked, and each of them occurs in the root.
    """

    __slots__ = ("store", "config", "stats", "cutoff", "n", "live_views")

    def __init__(self, store: TopKStore, config: MinerConfig, stats: MineStats,
                 cutoff: int, n: int):
        self.store = store
        self.config = config
        self.stats = stats
        self.cutoff = cutoff
        self.n = n
        self.live_views = 0

    def run(self, root: ProjectedDatabase, buckets: dict[int, list], candidates: list[int],
            rsu: list[int]) -> None:
        """Search depth first from the entered root and its ``buckets``:
        resume the top node, push the sub-search it yields and pop it once
        it is exhausted."""
        stack = [self.search((), root, buckets, candidates, rsu)]
        while stack:
            sub = next(stack[-1], None)
            if sub is None:
                stack.pop()
            else:
                stack.append(sub)

    def _enter(self, pdb: ProjectedDatabase,
               wanted: Iterable[int]) -> tuple[ProjectedDatabase, dict[int, list]]:
        """Merge the node's identical views when merging is on, count its
        merged-away views and its views as alive, and return the node with
        its one delivery of the ``wanted`` items; the parent subtracts the
        alive views again when it leaves the node."""
        if self.config.enable_merging:
            views = len(pdb.items)
            pdb = merge_identical(pdb)
            self.stats.merges += views - len(pdb.items)
        self.live_views += len(pdb.items)
        if self.live_views > self.stats.peak_entries:
            self.stats.peak_entries = self.live_views
        return pdb, deliver(pdb, wanted, self.n)

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

    def search(self, alpha: tuple[int, ...], pdb: ProjectedDatabase, buckets: dict[int, list],
               candidates: list[int], bound: list[int]) -> Iterator[Iterator]:
        """Extend ``alpha`` with each item z of ``candidates``, in candidate
        order, whose bound in ``pdb`` can still place an itemset by its turn
        when subtree pruning is on. ``bound`` is RSU (RLU with subtree pruning
        off) for a positive item, the negative cap for a negative one. RLU
        never grows down the tree, but RSU can, since it counts the prefix:
        in the one transaction ``1 2 3:3:1 1 1``, item 2's RSU is 2 at the
        root and 3 under item 1. So each extension is checked against its
        own node's bound, never a parent's. The threshold never falls, so a
        check that fails at one turn fails at every later one.

        Every candidate has a bucket in ``buckets`` (``pdb``'s delivery): the
        root's candidates are its positive ranks, each of which occurs in the
        root, and an extension's bound is at least 1, so it occurs in the
        child. A positive z's child takes the negative ranks that pass its
        caps, when it strictly beats the threshold, and then the positive
        ranks after z that pass its RSU or RLU filter; its caps fill its
        bound list from rank ``cutoff`` on. The cap of w is the sum of the
        positive prefix utility over the views holding w; every itemset
        under ``beta + w`` adds only negative utilities over some of those
        views, so it is worth less. A negative z's child holds only negative
        items ranked after z and takes those that pass its caps. A child is
        built, and entered by one sub-search, only when its list is
        non-empty. With subtree pruning off, a positive extension's RLU is
        compared with the threshold when the list is made, before the
        child's negative items are searched.

        A positive z's RSU or RLU scan is given z's bound in ``pdb`` and
        the threshold read before the child is offered, and stops once no
        positive extension can reach that threshold; the threshold only
        rises, so the extensions are the same. A child whose scan stopped
        still takes its caps when it beats the threshold, and the partial
        positive part of its bound list is never read."""
        store = self.store
        cutoff = self.cutoff
        n = self.n
        stats = self.stats
        subtree = self.config.enable_subtree_pruning
        for z in candidates:
            occurrences = buckets.pop(z)
            beta = alpha + (z,)
            if subtree and not store.can_place(bound[z], beta):
                continue
            stats.candidates += 1
            if z < cutoff:
                utility, child_bound = compute_bounds(pdb, occurrences, cutoff, subtree,
                                                      bound[z], store.min_util)
                store.offer(beta, utility)
                extensions = self._survivors(beta, range(z + 1, cutoff), child_bound,
                                             store.min_util)
                if cutoff < n and utility > store.min_util:
                    _, caps = compute_negative_caps(pdb, occurrences, cutoff, n)
                    caps[:cutoff] = child_bound
                    child_bound = caps
                    extensions = self._survivors(beta, range(cutoff, n), caps) + extensions
            else:
                utility, child_bound = compute_negative_caps(pdb, occurrences, cutoff, n)
                store.offer(beta, utility)
                extensions = self._survivors(beta, range(z + 1, n), child_bound)
            if extensions:
                child, child_buckets = self._enter(project(pdb, occurrences), extensions)
                stats.projections += 1
                yield self.search(beta, child, child_buckets, extensions, child_bound)
                self.live_views -= len(child.items)


def _item_and_pair_utilities(riu: list[int], rank_utility: list[int],
                             root: ProjectedDatabase, buckets: dict[int, list],
                             candidates: Iterable[int], k: int) -> Iterator[int]:
    """Yield every item's exact utility (``riu``), then every non-zero pair
    utility in the root's ``buckets`` led by one of the k ``candidates`` of
    highest ``rank_utility`` (ties by ascending rank): distinct itemsets, as
    the pair raise needs. Dropping zeros (absent pairs read 0) keeps a positive
    k-th largest value, and one at most 0 raises nothing."""
    yield from riu
    firsts = sorted(candidates, key=rank_utility.__getitem__, reverse=True)[:k]
    for _, row in compute_pair_rows(root, buckets, firsts, len(rank_utility)):
        yield from filter(None, row)


def mine(db: UtilityDatabase, config: MinerConfig) -> MineResult:
    """Run the full top-k mining pipeline and return the exact result."""
    if config.k < 1:
        raise InvalidKError(f"k must be >= 1, got {config.k}")
    t0 = time.perf_counter()
    stats = MineStats()
    summaries = compute_item_summaries(db)
    store = TopKStore(config.k)
    riu = compute_riu(summaries)
    store.raise_to_kth(riu)

    # An itemset holding an item whose RTWU (at the root, a positive item's
    # RLU) is below the threshold is worth less, so only the other items are
    # ranked. From here on items are ranks; results are translated back
    # through ``order.items``. The pair raise needs only item utilities, and
    # the root's rows only the ranked items' occurrences: dropping the
    # summaries frees the others' before the rows are built.
    order = build_total_order([s for s in summaries if s.rtwu >= store.min_util])
    rank_utility = [summaries[i].utility for i in order.items]
    ranked = [summaries[i].occurrences for i in order.items]
    del summaries
    cutoff = order.positive_cutoff
    search = _Search(store, config, stats, cutoff, len(order.items))
    root, buckets = search._enter(build_root(remap_database(ranked, len(db.transactions))),
                                  range(cutoff))
    candidates = range(cutoff)
    store.raise_to_kth(
        _item_and_pair_utilities(riu, rank_utility, root, buckets, candidates, config.k))
    search.run(root, buckets, candidates, compute_rsu(root, buckets, cutoff))

    top_k = [(tuple(sorted(order.items[r] for r in itemset)), utility)
             for itemset, utility in store.results()]
    stats.runtime_ms = (time.perf_counter() - t0) * 1000
    return MineResult(top_k, store.min_util, stats, store.history)
