"""Total item order, database rewrite, and offset-based projection/merging.

The processing order puts positive items before negative ones; within each
sign class items ascend by RTWU with raw-label ties broken ascending.
:func:`remap_database` turns the input transactions into the root's
:class:`Record` arrays in one step, renaming every item to its rank in that
order, so all records and views below it hold ranks, and an item precedes
another exactly when its id is smaller. Every item has one fixed sign and no
utility is zero, so an occurrence's sign is read from its utility. Records
are sorted backward-lexicographically so that identical projected suffixes
end up adjacent, and they stay so under projection, which lets merging fold
each view into the previous one in one pass over the views.

Children of a search node come from one pass over its views' suffixes
(occurrence delivery, as in LCM ver. 2): :func:`deliver` buckets every
view and position holding one of the wanted items. A child's utility and
bounds are read from its bucket (:mod:`topicmine.bounds`), and only a child
that the search enters is built: :func:`project` turns its bucket into the
child projection. Items that occur in no view get no bucket, so they are
never candidates. :func:`merge_identical` then merges the identical views
of the root and of every built child (EFIM's transaction merging after its
database projection).

A projected database keeps its views as parallel lists (record, offset,
prefix utility, positive prefix), not as one object per view, and a view's
merge weight lives on its record; a bucket names a view by its index. A
record holds only its items and utilities, as two exact-size tuples, and no
per-position table: the bound scans sum a view's remaining utility as they
walk it (:mod:`topicmine.bounds`).
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .database import ItemSummary, UtilityDatabase


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


def remap_database(db: UtilityDatabase, order: TotalOrder, keep: set[int]) -> list[Record]:
    """Build the root's records: drop items (dense ids) outside ``keep``,
    drop emptied transactions, rename items to their ranks in ascending
    order, and sort the records backward-lexicographically (shorter suffix
    first). Each row is read from one ``{rank: utility}`` dict per
    transaction into two exact-size tuples."""
    rank = order.rank
    rows = []
    for t in db.transactions:
        row = {rank[i]: u for i, u in zip(t.items, t.utilities) if i in keep}
        if row:
            items = tuple(sorted(row))
            rows.append((items, tuple(map(row.__getitem__, items))))
    rows.sort(key=lambda row: row[0][::-1])
    return [Record(items, utils) for items, utils in rows]


class Record:
    """Backing storage for projected views: one (possibly merged) transaction.

    The root's records come from :func:`remap_database`, merged ones from
    :func:`merge_identical` (by :func:`_fold`); :func:`project` makes none.
    ``items`` are ranks, ascending, and ``utilities`` their utilities, both
    as tuples: every view of a record shares it, and nothing changes it.
    ``weight`` is the merge multiplicity: 1 for a source transaction, the
    sum of the merged records' weights otherwise.
    """

    __slots__ = ("items", "utilities", "weight")

    def __init__(self, items, utilities, weight=1):
        self.items = items
        self.utilities = utilities
        self.weight = weight


class ProjectedDatabase:
    """A prefix itemset's view set over the root's records.

    View ``i`` is stored across four parallel lists, with no object of its
    own: items of ``records[i]`` at positions >= ``offsets[i]`` extend the
    current prefix, ``prefixes[i]`` is the prefix's utility in that
    (possibly merged) transaction, and ``pos_prefixes[i]`` keeps only the
    positive-item part of it, which upper-bounds what any negative-extension
    subtree can still achieve there and survives merging additively. Every
    kept offset lies strictly inside its record. ``support`` counts
    supporting source transactions (merge weights included). ``folded``
    counts the views that :func:`merge_identical` folded into others to
    make this projection.
    """

    __slots__ = ("records", "offsets", "prefixes", "pos_prefixes", "support", "folded")

    def __init__(self, records, offsets, prefixes, pos_prefixes, support=0, folded=0):
        self.records = records
        self.offsets = offsets
        self.prefixes = prefixes
        self.pos_prefixes = pos_prefixes
        self.support = support
        self.folded = folded

    @property
    def views(self) -> list[Record]:
        """One entry per view (its record), for sizing and emptiness tests."""
        return self.records


def build_root(records: list[Record]) -> ProjectedDatabase:
    """Wrap the records of :func:`remap_database` as the empty-prefix
    projection: every view starts at offset 0 with a zero prefix."""
    n = len(records)
    return ProjectedDatabase(records, [0] * n, [0] * n, [0] * n, n)


def deliver(pdb: ProjectedDatabase, wanted) -> dict[int, list]:
    """One pass over every view's suffix: map each item of ``wanted`` that
    occurs there to its occurrences in view order, as a flat list
    ``[view index, position, view index, position, ...]`` (a pair costs two
    list slots and no tuple). Items that occur nowhere get no entry."""
    buckets: dict[int, list] = {}
    offsets = pdb.offsets
    for i, rec in enumerate(pdb.records):
        items = rec.items
        for p in range(offsets[i], len(items)):
            item = items[p]
            if item in wanted:
                bucket = buckets.get(item)
                if bucket is None:
                    buckets[item] = [i, p]
                else:
                    bucket += (i, p)
    return buckets


def project(pdb: ProjectedDatabase, x: int, occurrences) -> ProjectedDatabase:
    """Project on item x: keep views containing x, advance offsets past x, and
    fold U(x, view) into each prefix utility.

    ``occurrences`` is x's bucket from :func:`deliver` on ``pdb``. Views whose
    remaining suffix is empty still count toward the new prefix's support
    but are dropped from the result. Every kept view keeps its parent's
    record; projection keeps the backward-lexicographic order, so
    :func:`merge_identical` can merge the result.
    """
    records = pdb.records
    prefixes = pdb.prefixes
    pos_prefixes = pdb.pos_prefixes
    out_records = []
    out_offsets = []
    out_prefixes = []
    out_pos = []
    support = 0
    pairs = iter(occurrences)
    for i, pos in zip(pairs, pairs):
        rec = records[i]
        u = rec.utilities[pos]
        support += rec.weight
        pos += 1
        if pos < len(rec.items):
            out_records.append(rec)
            out_offsets.append(pos)
            out_prefixes.append(prefixes[i] + u)
            out_pos.append(pos_prefixes[i] + (u if u > 0 else 0))
    return ProjectedDatabase(out_records, out_offsets, out_prefixes, out_pos, support)


def _fold(records: list[Record], offsets: list[int], key: tuple[int, ...], group: list) -> int:
    """Fold the views of ``group`` (flat record, offset pairs) into the last
    view of ``records``/``offsets``: each of them has the suffix ``key``, so
    the last view becomes one record of ``key`` at offset 0 with the
    utilities and merge weights of all of them summed (the summed utilities
    of one item share its sign). The caller sums the prefix utilities.
    Returns the number of views folded away."""
    rec = records[-1]
    utils = rec.utilities[offsets[-1]:]
    weight = rec.weight
    members = iter(group)
    for other, offset in zip(members, members):
        utils = tuple(map(add, utils, other.utilities[offset:]))
        weight += other.weight
    records[-1] = Record(key, utils, weight)
    offsets[-1] = 0
    return len(group) // 2


def merge_identical(pdb: ProjectedDatabase) -> ProjectedDatabase:
    """Coalesce consecutive views with identical item suffixes; the root and
    every built child are merged this way.

    Requires ``pdb`` to be backward-lexicographically sorted so identical
    suffixes are adjacent. The merged view lists start at the first fold,
    and each run of views that folds nothing is copied as one slice, so a
    view is never copied one by one. Returns ``pdb`` itself when no two
    neighbouring views share a suffix.
    """
    records = pdb.records
    offsets = pdb.offsets
    prefixes = pdb.prefixes
    pos_prefixes = pdb.pos_prefixes
    out_records = []
    out_offsets = []
    out_prefixes = []
    out_pos = []
    folded = copied = 0
    group = []
    last = start = length = key = None
    for i, (rec, offset) in enumerate(zip(records, offsets)):
        items = rec.items
        n = len(items) - offset
        if n == length and items[offset] == last[start]:
            if key is None:
                key = last[start:]
            if items[offset:] == key:
                if copied < i:
                    out_records += records[copied:i]
                    out_offsets += offsets[copied:i]
                    out_prefixes += prefixes[copied:i]
                    out_pos += pos_prefixes[copied:i]
                copied = i + 1
                group += (rec, offset)
                out_prefixes[-1] += prefixes[i]
                out_pos[-1] += pos_prefixes[i]
                continue
        if group:
            folded += _fold(out_records, out_offsets, key, group)
            group = []
        last = items
        start = offset
        length = n
        key = None
    if group:
        folded += _fold(out_records, out_offsets, key, group)
    if not folded:
        return pdb
    out_records += records[copied:]
    out_offsets += offsets[copied:]
    out_prefixes += prefixes[copied:]
    out_pos += pos_prefixes[copied:]
    return ProjectedDatabase(out_records, out_offsets, out_prefixes, out_pos, pdb.support,
                             folded)
