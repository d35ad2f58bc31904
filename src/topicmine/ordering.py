"""Total item order, database rewrite, and offset-based projection/merging.

The processing order puts positive items before negative ones; within each
sign class items ascend by RTWU with raw-label ties broken ascending.
:func:`remap_database` renames every item to its rank in that order, so all
records and views below it hold ranks, and an item precedes another exactly
when its id is smaller. Every item has one fixed sign and no utility is
zero, so an occurrence's sign is read from its utility. Transactions are
sorted backward-lexicographically so that identical projected suffixes end
up adjacent, which lets merging run as a single linear pass.

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


def remap_database(db: UtilityDatabase, order: TotalOrder, keep: set[int]) -> list[Transaction]:
    """Rewrite the database for mining: drop items (dense ids) outside
    ``keep``, drop emptied transactions, rename items to their ranks in
    ascending order, and sort transactions backward-lexicographically
    (shorter suffix first)."""
    rank = order.rank
    out = []
    for t in db.transactions:
        pairs = sorted((rank[i], u) for i, u in zip(t.items, t.utilities) if i in keep)
        if not pairs:
            continue
        items = [p[0] for p in pairs]
        utils = [p[1] for p in pairs]
        out.append(Transaction(t.tid, items, utils, sum(utils)))
    out.sort(key=lambda t: t.items[::-1])
    return out


class Record:
    """Backing storage for projected views: one (possibly merged) transaction.

    ``items`` are ranks, ascending. ``pos_suffix[i]`` is the sum of positive
    utilities at positions >= i (the remaining-utility lookup).
    """

    __slots__ = ("items", "utilities", "pos_suffix")

    def __init__(self, items, utilities):
        self.items = items
        self.utilities = utilities
        suffix = [0] * (len(items) + 1)
        for i in range(len(items) - 1, -1, -1):
            u = utilities[i]
            suffix[i] = suffix[i + 1] + (u if u > 0 else 0)
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


class ProjectedDatabase:
    """A prefix itemset's view set over the remapped parent database.

    ``utility`` is the exact utility of the prefix itemset this projection
    represents (0 for the root); ``support`` counts supporting source
    transactions (merge weights included).
    """

    __slots__ = ("views", "utility", "support")

    def __init__(self, views, utility=0, support=0):
        self.views = views
        self.utility = utility
        self.support = support


def build_root(transactions: list[Transaction]) -> ProjectedDatabase:
    """Wrap remapped transactions as the empty-prefix projection."""
    views = [ProjectedTransaction(Record(t.items, t.utilities), 0, 0, 0, 1)
             for t in transactions]
    return ProjectedDatabase(views, 0, len(views))


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


def project(pdb: ProjectedDatabase, x: int, occurrences) -> ProjectedDatabase:
    """Project on item x: keep views containing x, advance offsets past x, and
    fold U(x, view) into each prefix utility.

    ``occurrences`` is x's bucket from :func:`deliver` on ``pdb``. Views whose
    remaining suffix is empty still contribute to the new prefix's utility
    and support but are dropped from the result.
    """
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
        if pos + 1 < len(rec.items):
            pos_prefix = v.positive_prefix + (u if u > 0 else 0)
            views.append(ProjectedTransaction(rec, pos + 1, prefix, pos_prefix, v.weight))
    return ProjectedDatabase(views, utility, support)


def merge_identical(pdb: ProjectedDatabase) -> ProjectedDatabase:
    """Coalesce consecutive views with identical item suffixes.

    Requires the parent database to be backward-lexicographically sorted so
    identical suffixes are adjacent. Per-item utilities, prefix utilities and
    weights are summed; the summed utilities of one item share its sign.
    """
    out = []
    i = 0
    views = pdb.views
    n = len(views)
    while i < n:
        v = views[i]
        key = v.record.items[v.offset:]
        j = i + 1
        while j < n and views[j].record.items[views[j].offset:] == key:
            j += 1
        if j == i + 1:
            out.append(v)
        else:
            utils = [0] * len(key)
            prefix = 0
            pos_prefix = 0
            weight = 0
            for g in views[i:j]:
                rec = g.record
                off = g.offset
                for p in range(len(key)):
                    utils[p] += rec.utilities[off + p]
                prefix += g.prefix_utility
                pos_prefix += g.positive_prefix
                weight += g.weight
            out.append(ProjectedTransaction(Record(key, utils), 0, prefix, pos_prefix, weight))
        i = j
    return ProjectedDatabase(out, pdb.utility, pdb.support)
