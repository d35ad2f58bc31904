"""Linear-time upper bounds (RLU / RSU) and negative-extension caps, plus the
exact single-item and pair utilities used for threshold raising.

Per-node bound maps are plain lists indexed by rank, filled by one pass over
the node's view suffixes (EFIM's utility-bin arrays). A positive node's scan
fills only the bound its search prunes by: RSU with subtree pruning on, RLU
without it. Ranks put every positive item before every negative one, so
each view's suffix splits at the first rank of a negative item: the RLU/RSU
scan reads only the positions before that split and the cap scan only those
from it on."""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator

from .database import ItemSummary
from .ordering import ProjectedDatabase, deliver


def compute_bounds(pdb: ProjectedDatabase, cutoff: int, subtree: bool = True) -> list[int]:
    """One scan filling one bound per positive rank (``cutoff`` is the first
    negative rank): RSU when ``subtree`` is true, RLU otherwise. An item that
    does not occur in the projection reads 0.

    RLU(z): sum over views containing z of prefix utility + remaining
    positive utility. RSU(z): sum over views containing z of prefix utility
    + U(z, view) + positive utilities after z. Negative items get neither:
    they are never extended by the positive search.

    RSU(z) <= RLU(z) in every view, so a search with subtree pruning, which
    keeps an extension only if both reach the threshold, needs only RSU, and
    one without it, which keeps an extension if its RLU reaches the threshold
    and it occurs (RSU > 0, already implied by RLU >= 1), needs only RLU."""
    bound = [0] * cutoff
    views = zip(pdb.records, pdb.offsets, pdb.prefixes)
    if subtree:
        for rec, offset, prefix in views:
            items = rec.items
            suffix = rec.pos_suffix
            for p in range(offset, bisect_left(items, cutoff, offset)):
                bound[items[p]] += prefix + suffix[p]
    else:
        for rec, offset, prefix in views:
            items = rec.items
            base = prefix + rec.pos_suffix[offset]
            for p in range(offset, bisect_left(items, cutoff, offset)):
                bound[items[p]] += base
    return bound


def compute_rsu(pdb: ProjectedDatabase, cutoff: int) -> list[int]:
    """:func:`compute_bounds` at the root, where only RSU is read."""
    return compute_bounds(pdb, cutoff)


def compute_negative_caps(pdb: ProjectedDatabase, cutoff: int, n: int) -> list[int]:
    """Subtree cap for negative extensions, indexed by rank (``n`` ranks in
    all, negatives from ``cutoff`` on): for each negative item z, the sum
    over views containing z of the positive part of the prefix utility.

    Any deeper itemset in the z-subtree keeps the prefix's positive items and
    only adds negative ones over a subset of these views, so its utility can
    never exceed this sum. Unlike a clamped per-view bound, the cap is a plain
    sum of per-view quantities, so it is unchanged by transaction merging."""
    caps = [0] * n
    for rec, offset, base in zip(pdb.records, pdb.offsets, pdb.pos_prefixes):
        items = rec.items
        for p in range(bisect_left(items, cutoff, offset), len(items)):
            caps[items[p]] += base
    return caps


def compute_riu(summaries: list[ItemSummary]) -> list[int]:
    """Per-item real utilities, sorted descending."""
    return sorted((s.utility for s in summaries), reverse=True)


def compute_pair_rows(
    root: ProjectedDatabase, firsts: Iterable[int]
) -> Iterator[tuple[int, dict[int, int]]]:
    """Exact pair utilities of the (merged or unmerged) root, one row at a
    time: for each item ``a`` of ``firsts`` that occurs, yield ``(a, row)``
    where ``row[b]`` is U({a, b}) for every item b ranked after a in a view
    holding a. One delivery of the root serves every row, and only one row
    is alive at a time."""
    buckets = deliver(root, set(firsts))
    records = root.records
    for a in sorted(buckets):
        occurrences = buckets.pop(a)
        row: dict[int, int] = {}
        pairs = iter(occurrences)
        for i, p in zip(pairs, pairs):
            rec = records[i]
            items = rec.items
            utils = rec.utilities
            ua = utils[p]
            for q in range(p + 1, len(items)):
                b = items[q]
                row[b] = row.get(b, 0) + ua + utils[q]
        yield a, row
