"""Total item order, database rewrite, and offset-based projection/merging.

The processing order puts positive items before negative ones; within each
sign class items ascend by RTWU with raw-label ties broken ascending.
Transactions are sorted backward-lexicographically on item ranks so that
identical projected suffixes end up adjacent, which lets merging run as a
single linear pass.

Children of a search node are built from one pass over its views' suffixes
(occurrence delivery, as in LCM ver. 2): :func:`deliver` buckets every
view and position holding one of the wanted items, and :func:`project`
turns one bucket into the child projection. Items that occur in no view get
no bucket, so no child is built for them.
"""
from __future__ import annotations

from dataclasses import dataclass

from .database import ItemSummary, Transaction, UtilityDatabase


@dataclass(frozen=True)
class TotalOrder:
    rank: list[int]          # item id -> rank
    items: list[int]         # rank -> item id
    positive_cutoff: int     # first rank held by a negative item


def build_total_order(summaries: list[ItemSummary]) -> TotalOrder:
    """Rank items: positives by ascending RTWU, then negatives by ascending
    RTWU; ties broken by item id (dense ids follow raw-label order)."""
    positives = sorted((s for s in summaries if s.positive), key=lambda s: (s.rtwu, s.item))
    negatives = sorted((s for s in summaries if not s.positive), key=lambda s: (s.rtwu, s.item))
    ordered = [s.item for s in positives] + [s.item for s in negatives]
    rank = [0] * len(ordered)
    for r, item in enumerate(ordered):
        rank[item] = r
    return TotalOrder(rank, ordered, len(positives))


def remap_database(
    db: UtilityDatabase,
    order: TotalOrder,
    secondary: set[int],
    negatives_kept: set[int],
) -> UtilityDatabase:
    """Rewrite the database for mining: drop items outside
    ``secondary | negatives_kept``, drop emptied transactions, sort items by
    rank within each transaction, and sort transactions backward-lexicographically
    on ranks (shorter suffix first)."""
    keep = secondary | negatives_kept
    rank = order.rank
    out = []
    for t in db.transactions:
        pairs = [(rank[i], i, u) for i, u in zip(t.items, t.utilities) if i in keep]
        if not pairs:
            continue
        pairs.sort()
        items = [p[1] for p in pairs]
        utils = [p[2] for p in pairs]
        out.append((tuple(p[0] for p in reversed(pairs)), Transaction(t.tid, items, utils, sum(utils))))
    out.sort(key=lambda pair: pair[0])
    return UtilityDatabase(
        [t for _, t in out], db.labels, db.positive_items, db.negative_items
    )


class Record:
    """Backing storage for projected views: one (possibly merged) transaction.

    ``ranks`` mirrors ``items`` in the total order, ascending (the merge key
    and the bounds' sign test). ``pos_suffix[i]`` is the sum of positive
    utilities at positions >= i (the remaining-utility lookup).
    """

    __slots__ = ("items", "ranks", "utilities", "pos_suffix")

    def __init__(self, items, ranks, utilities, positive_cutoff):
        self.items = items
        self.ranks = ranks
        self.utilities = utilities
        suffix = [0] * (len(items) + 1)
        for i in range(len(items) - 1, -1, -1):
            u = utilities[i]
            suffix[i] = suffix[i + 1] + (u if ranks[i] < positive_cutoff else 0)
        self.pos_suffix = suffix


class ProjectedTransaction:
    """Offset view into a Record: items at positions >= offset extend the
    current prefix; ``prefix_utility`` is the prefix's utility in this
    (possibly merged) transaction, ``weight`` its merge multiplicity.

    ``positive_prefix`` keeps only the positive-item part of the prefix
    utility; it upper-bounds what any negative-extension subtree can still
    achieve in this transaction and survives merging additively."""

    __slots__ = ("record", "offset", "prefix_utility", "positive_prefix", "weight")

    def __init__(self, record, offset, prefix_utility, positive_prefix, weight):
        self.record = record
        self.offset = offset
        self.prefix_utility = prefix_utility
        self.positive_prefix = positive_prefix
        self.weight = weight

    def suffix_ranks(self):
        return self.record.ranks[self.offset:]


class ProjectedDatabase:
    """A prefix itemset's view set over the remapped parent database.

    ``utility`` is the exact utility of the prefix itemset this projection
    represents (0 for the root); ``support`` counts supporting source
    transactions (merge weights included). ``merged_pairs`` is filled by
    :func:`merge_identical`.
    """

    __slots__ = ("views", "order", "utility", "support", "merged_pairs")

    def __init__(self, views, order, utility=0, support=0, merged_pairs=0):
        self.views = views
        self.order = order
        self.utility = utility
        self.support = support
        self.merged_pairs = merged_pairs


def build_root(db: UtilityDatabase, order: TotalOrder) -> ProjectedDatabase:
    """Wrap a remapped database as the empty-prefix projection."""
    cutoff = order.positive_cutoff
    rank = order.rank
    views = []
    support = 0
    for t in db.transactions:
        rec = Record(t.items, [rank[i] for i in t.items], t.utilities, cutoff)
        views.append(ProjectedTransaction(rec, 0, 0, 0, 1))
        support += 1
    return ProjectedDatabase(views, order, 0, support)


def deliver(pdb: ProjectedDatabase, wanted) -> dict[int, list]:
    """One pass over every view's suffix: map each item of ``wanted`` that
    occurs there to its occurrences in view order, as a flat list
    ``[view, position, view, position, ...]`` (a pair costs two list slots
    and no tuple). Items that occur nowhere get no entry."""
    buckets: dict[int, list] = {}
    for v in pdb.views:
        items = v.record.items
        for p in range(v.offset, len(items)):
            item = items[p]
            if item in wanted:
                bucket = buckets.get(item)
                if bucket is None:
                    buckets[item] = [v, p]
                else:
                    bucket += (v, p)
    return buckets


def project(pdb: ProjectedDatabase, x: int, occurrences=None) -> ProjectedDatabase:
    """Project on item x: keep views containing x, advance offsets past x, and
    fold U(x, view) into each prefix utility.

    ``occurrences`` is x's bucket from :func:`deliver` on ``pdb``; when
    omitted, it is delivered here. Views whose remaining suffix is empty
    still contribute to the new prefix's utility and support but are dropped
    from the result.
    """
    if occurrences is None:
        occurrences = deliver(pdb, {x}).get(x, ())
    views = []
    utility = 0
    support = 0
    pairs = iter(occurrences)
    for v, pos in zip(pairs, pairs):
        rec = v.record
        u = rec.utilities[pos]
        prefix = v.prefix_utility + u
        utility += prefix
        support += v.weight
        if pos + 1 < len(rec.ranks):
            pos_prefix = v.positive_prefix + (u if u > 0 else 0)
            views.append(ProjectedTransaction(rec, pos + 1, prefix, pos_prefix, v.weight))
    return ProjectedDatabase(views, pdb.order, utility, support)


def merge_identical(pdb: ProjectedDatabase) -> ProjectedDatabase:
    """Coalesce consecutive views with identical item suffixes.

    Requires the parent database to be backward-lexicographically sorted so
    identical suffixes are adjacent. Per-item utilities, prefix utilities and
    weights are summed; each group of n views counts n-1 merged pairs.
    """
    order = pdb.order
    out = []
    merged_pairs = pdb.merged_pairs
    i = 0
    views = pdb.views
    n = len(views)
    while i < n:
        v = views[i]
        key = v.suffix_ranks()
        j = i + 1
        while j < n and views[j].suffix_ranks() == key:
            j += 1
        if j == i + 1:
            out.append(v)
        else:
            group = views[i:j]
            utils = [0] * len(key)
            prefix = 0
            pos_prefix = 0
            weight = 0
            for g in group:
                rec = g.record
                off = g.offset
                for p in range(len(key)):
                    utils[p] += rec.utilities[off + p]
                prefix += g.prefix_utility
                pos_prefix += g.positive_prefix
                weight += g.weight
            rec0 = v.record
            items = rec0.items[v.offset:]
            merged = Record(items, list(key), utils, order.positive_cutoff)
            out.append(ProjectedTransaction(merged, 0, prefix, pos_prefix, weight))
            merged_pairs += j - i - 1
        i = j
    return ProjectedDatabase(out, order, pdb.utility, pdb.support, merged_pairs)
