"""Total item order, database rewrite, and offset-based projection/merging.

The processing order ranks only the items the root keeps, positive items
before negative ones; within each sign class items ascend by RTWU with
raw-label ties broken ascending. :func:`remap_database` turns the input
transactions into the root's rows, dropping every unranked item and
renaming every other to its rank, so all rows and views below it hold
ranks, every rank occurs in the root, and an item precedes another exactly
when its id is smaller. It delivers the items' occurrences to their
transactions in rank order, as :func:`deliver` does below the root, so no
transaction is sorted on its own. Every item has one fixed sign and no
utility is zero, so an occurrence's sign is read from its utility. Rows are
sorted backward-lexicographically so that identical projected suffixes end
up adjacent, and they stay so under projection, which lets merging fold
each view into the previous one in one pass over the views.

Children of a search node come from one pass over its views' suffixes
(occurrence delivery, as in LCM ver. 2): :func:`deliver` buckets every view
and position holding a wanted item, in slots indexed by rank (EFIM's utility
bins). A child's utility and bounds are read from its bucket
(:mod:`topicmine.bounds`), and only a child that the search enters is built:
:func:`project` turns its bucket into the child projection. Items that occur
in no view get no bucket, so they are never candidates.
:func:`merge_identical` then merges the identical views of the root and of
every built child (EFIM's transaction merging after its projection).

A projected database keeps its views as five parallel lists (items,
utilities, offset, prefix utility, positive prefix); a bucket names a view
by its index. A view's items and utilities are its transaction's two
exact-size tuples, with no per-position table: the bound scans sum a
view's remaining utility as they walk it (:mod:`topicmine.bounds`).
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .database import ItemSummary, UtilityDatabase


@dataclass(frozen=True)
class TotalOrder:
    items: list[int]         # rank -> item id
    positive_cutoff: int     # first rank held by a negative item


def build_total_order(summaries: list[ItemSummary]) -> TotalOrder:
    """Rank the items of ``summaries``: positives by ascending RTWU, then
    negatives by ascending RTWU; ties broken by item id (dense ids follow
    raw-label order). The miner passes only the items its root keeps."""
    positives = sorted((s for s in summaries if s.positive), key=lambda s: (s.rtwu, s.item))
    negatives = sorted((s for s in summaries if not s.positive), key=lambda s: (s.rtwu, s.item))
    return TotalOrder([s.item for s in positives + negatives], len(positives))


def remap_database(db: UtilityDatabase, order: TotalOrder) -> tuple[list[tuple], list[tuple]]:
    """Build the root's rows as two lists, ``(items, utilities)``: drop
    items (dense ids) that ``order`` does not rank, drop emptied
    transactions, rename items to their ranks in ascending order, and sort
    the rows backward-lexicographically (shorter suffix first), ties in
    transaction order. A counting sort by rank: one pass lists each item's
    occurrences as ``[transaction, utility, ...]``, and a walk over the
    ranks from the highest down appends ``rank, utility`` to one list per
    transaction. Each list splits into a descending rank list, the row's
    sort key, and an ascending utility tuple; a stable sort of the indices
    by key keeps ties in transaction order. The rows are never held twice:
    the unranked items' lists are freed before the walk, one interleaved
    list per transaction made empty up front is smaller than two lists or
    lists made on first touch, and keys are lists because short tuples that
    die in one batch would stay on the interpreter's free lists."""
    occurrences = [[] for _ in range(db.item_count)]
    for j, t in enumerate(db.transactions):
        for i, u in zip(t.items, t.utilities):
            occurrences[i] += (j, u)
    ranked = list(map(occurrences.__getitem__, order.items))
    del occurrences
    rows = [[] for _ in db.transactions]
    for r in range(len(ranked) - 1, -1, -1):
        pairs = iter(ranked[r])
        ranked[r] = None
        for j, u in zip(pairs, pairs):
            rows[j] += (r, u)
    keys = []
    ascending = []
    for j, row in enumerate(rows):
        if row:
            keys.append(row[::2])
            ascending.append(tuple(row[-1::-2]))
            rows[j] = None
    items = []
    utilities = []
    for j in sorted(range(len(keys)), key=keys.__getitem__):
        key = keys[j]
        key.reverse()
        items.append(tuple(key))
        utilities.append(ascending[j])
        keys[j] = None
    return items, utilities


class ProjectedDatabase:
    """A prefix itemset's view set over the root's transactions.

    View ``i`` is stored across five parallel lists, with no object of its
    own: ``items[i]`` and ``utilities[i]`` are the ranks, ascending, and the
    utilities of its (possibly merged) transaction, as two exact-size tuples
    that every view of that transaction shares and nothing changes; the
    items at positions >= ``offsets[i]`` extend the current prefix,
    ``prefixes[i]`` is the prefix's utility in that transaction, and
    ``pos_prefixes[i]`` keeps only the positive-item part of it, which
    upper-bounds what any negative-extension subtree can still achieve there
    and survives merging additively. Every kept offset lies strictly inside
    its transaction.
    """

    __slots__ = ("items", "utilities", "offsets", "prefixes", "pos_prefixes")

    def __init__(self, items, utilities, offsets, prefixes, pos_prefixes):
        self.items = items
        self.utilities = utilities
        self.offsets = offsets
        self.prefixes = prefixes
        self.pos_prefixes = pos_prefixes

    @property
    def views(self) -> list[tuple]:
        """Each view's items; read only by ``bench/tracing.py`` and ``tests/test_ordering.py``."""
        return self.items

    @property
    def support(self) -> int:
        """The view count; read only by ``bench/tracing.py`` and ``tests/test_ordering.py``."""
        return len(self.items)


def build_root(rows: tuple[list[tuple], list[tuple]]) -> ProjectedDatabase:
    """Wrap the rows of :func:`remap_database` as the empty-prefix
    projection: every view starts at offset 0 with a zero prefix."""
    items, utilities = rows
    n = len(items)
    return ProjectedDatabase(items, utilities, [0] * n, [0] * n, [0] * n)


def deliver(pdb: ProjectedDatabase, wanted, n: int) -> dict[int, list]:
    """One pass over every view's suffix: map each item of ``wanted`` (read
    twice) that occurs there to its occurrences in view order, as a flat
    list ``[view index, position, view index, position, ...]`` found in one
    of ``n`` slots, one per rank, with no hashing. Absent items get no entry."""
    slots = [None] * n
    for w in wanted:
        slots[w] = []
    offsets = pdb.offsets
    for i, items in enumerate(pdb.items):
        for p in range(offsets[i], len(items)):
            bucket = slots[items[p]]
            if bucket is not None:
                bucket += (i, p)
    return {w: slots[w] for w in wanted if slots[w]}


def project(pdb: ProjectedDatabase, occurrences) -> ProjectedDatabase:
    """Project on item x: keep views containing x, advance offsets past x, and
    fold U(x, view) into each prefix utility.

    ``occurrences`` is x's bucket from :func:`deliver` on ``pdb``. Views whose
    remaining suffix is empty are dropped. Every kept view keeps its
    parent's two tuples; projection keeps the backward-lexicographic order,
    so :func:`merge_identical` can merge the result.
    """
    item_rows = pdb.items
    utility_rows = pdb.utilities
    prefixes = pdb.prefixes
    pos_prefixes = pdb.pos_prefixes
    out_items = []
    out_utilities = []
    out_offsets = []
    out_prefixes = []
    out_pos = []
    pairs = iter(occurrences)
    for i, pos in zip(pairs, pairs):
        items = item_rows[i]
        utils = utility_rows[i]
        u = utils[pos]
        pos += 1
        if pos < len(items):
            out_items.append(items)
            out_utilities.append(utils)
            out_offsets.append(pos)
            out_prefixes.append(prefixes[i] + u)
            out_pos.append(pos_prefixes[i] + (u if u > 0 else 0))
    return ProjectedDatabase(out_items, out_utilities, out_offsets, out_prefixes, out_pos)


def merge_identical(pdb: ProjectedDatabase) -> ProjectedDatabase:
    """Coalesce consecutive views with identical item suffixes; the root and
    every built child are merged this way.

    Requires ``pdb`` to be backward-lexicographically sorted so identical
    suffixes are adjacent. A view whose suffix equals that of the last kept
    view is folded into it at once: the kept view's tuples become the
    suffix and the summed utilities at offset 0 (the summed utilities of
    one item share its sign), and the prefix utilities of both are summed.
    The merged view lists start at the first fold, and each run of views
    that folds nothing is copied as one slice, so a view is never copied one
    by one. Returns ``pdb`` itself when no two neighbouring views share a
    suffix.
    """
    item_rows = pdb.items
    utility_rows = pdb.utilities
    offsets = pdb.offsets
    prefixes = pdb.prefixes
    pos_prefixes = pdb.pos_prefixes
    out_items = []
    out_utilities = []
    out_offsets = []
    out_prefixes = []
    out_pos = []
    copied = 0
    last = start = length = None
    for i, (items, offset) in enumerate(zip(item_rows, offsets)):
        n = len(items) - offset
        if n == length and items[offset] == last[start]:
            suffix = items[offset:]
            if suffix == last[start:]:
                if copied < i:
                    out_items += item_rows[copied:i]
                    out_utilities += utility_rows[copied:i]
                    out_offsets += offsets[copied:i]
                    out_prefixes += prefixes[copied:i]
                    out_pos += pos_prefixes[copied:i]
                copied = i + 1
                utilities = map(add, out_utilities[-1][out_offsets[-1]:],
                                utility_rows[i][offset:])
                out_items[-1] = suffix
                out_utilities[-1] = tuple(utilities)
                out_offsets[-1] = 0
                out_prefixes[-1] += prefixes[i]
                out_pos[-1] += pos_prefixes[i]
                last = suffix
                start = 0
                continue
        last = items
        start = offset
        length = n
    if not out_items:
        return pdb
    out_items += item_rows[copied:]
    out_utilities += utility_rows[copied:]
    out_offsets += offsets[copied:]
    out_prefixes += prefixes[copied:]
    out_pos += pos_prefixes[copied:]
    return ProjectedDatabase(out_items, out_utilities, out_offsets, out_prefixes, out_pos)
