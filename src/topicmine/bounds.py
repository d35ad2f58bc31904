"""Linear-time upper bounds (RLU / RSU) and negative-extension caps, plus the
exact single-item and pair utilities used for threshold raising.

A child's exact utility and bounds are read from its parent's occurrence
bucket (:func:`topicmine.ordering.deliver`) before the child is built: each
occurrence ``(view index, position)`` indexes the parent's ``items`` and
``utilities`` lists and is one view of the child, starting after the
position with the parent's prefix utility plus the item's. All
three quantities are sums of per-view terms, and merging only adds views'
terms together, so they equal the scans of the built child, merged or not,
and a child that will not be searched is never built. Bound maps and pair
rows are plain lists indexed by rank (EFIM's utility-bin arrays). A positive child's scan
fills only the bound its search prunes by: RSU with subtree pruning on, RLU
without it. Ranks put every positive item before every negative one, so
each view's suffix splits at the first rank of a negative item: the RLU/RSU
scan reads only the positions before that split and the cap scan only those
from it on. The RSU scan walks a view's positive positions backward with a
running remaining utility, as EFIM does, and RLU sums them once per view.
Either scan stops early, as HUP-Miner's LA-Prune does: each view adds at
most its own total to any item's bound, and the views' totals add up to at
most the node's bound of the child's item, so once the views left cannot
lift the largest bound to the threshold, the scan only sums the child's
utility from them.
The root has no parent bucket; its RSU (:func:`compute_rsu`) and its pair
utilities (:func:`compute_pair_rows`) are read from its own buckets, the
same delivery its search pops its children from."""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator
from math import inf

from .database import ItemSummary
from .ordering import ProjectedDatabase


def compute_bounds(pdb: ProjectedDatabase, occurrences, cutoff: int,
                   subtree: bool = True, node_bound: float = inf,
                   mu: int = 0) -> tuple[int, list[int]]:
    """``(utility, bound)`` of the child of ``pdb`` that the bucket
    ``occurrences`` describes: the child's exact utility and one bound per
    positive rank (``cutoff`` is the first negative rank), RSU when
    ``subtree`` is true, RLU otherwise. An item that does not occur in the
    child reads 0.

    RLU(z): sum over child views containing z of prefix utility + remaining
    positive utility. RSU(z): sum over child views containing z of prefix
    utility + U(z, view) + positive utilities after z. Negative items get
    neither: they are never extended by the positive search.

    RSU(z) <= RLU(z) in every view, so a search with subtree pruning, which
    keeps an extension only if both reach the threshold, needs only RSU, and
    one without it, which keeps an extension if its RLU reaches the threshold
    and it occurs (RSU > 0, already implied by RLU >= 1), needs only RLU.

    Given ``node_bound``, the node's RSU or RLU of the child's item, and the
    threshold ``mu``, either scan stops early. A view adds at most its
    total, the child's prefix utility there plus the positive utilities
    after it, to any bound (RLU adds exactly that), and the views' totals
    sum to the node's RSU of the item, so to at most ``node_bound``. So once ``left``,
    ``node_bound`` less the totals read, is below ``mu`` less the largest
    bound, no bound can reach ``mu``: the scan only sums the child's
    utility from the views left and returns partial bounds, all below
    ``mu``. This holds under a prefix of positive items, as in the search.
    The largest bound is read again only when ``left`` falls below its last
    gap to ``mu``. The stop is armed only when the bucket has more views
    than there are positive ranks, so one ``max`` costs no more than the
    scan it may cut short. With ``node_bound`` and ``mu`` omitted the scan
    is exact."""
    bound = [0] * cutoff
    utility = 0
    item_rows = pdb.items
    utility_rows = pdb.utilities
    prefixes = pdb.prefixes
    pairs = iter(occurrences)
    armed = len(occurrences) > 2 * cutoff
    # ``left`` is the most the views not yet read can still add to a bound;
    # ``gap`` is the threshold less the largest bound at its last reading,
    # which only shrinks as the bounds grow
    left = node_bound
    gap = mu
    for i, p in zip(pairs, pairs):
        items = item_rows[i]
        utils = utility_rows[i]
        total = prefixes[i] + utils[p]
        utility += total
        # every position before the split holds a positive item
        if subtree:
            for q in range(bisect_left(items, cutoff, p + 1) - 1, p, -1):
                total += utils[q]
                bound[items[q]] += total
        else:
            p += 1
            end = bisect_left(items, cutoff, p)
            total += sum(utils[p:end])
            for q in range(p, end):
                bound[items[q]] += total
        if armed:
            left -= total
            if left < gap:
                gap = mu - max(bound)
                if left < gap:
                    for i, p in zip(pairs, pairs):
                        utility += prefixes[i] + utility_rows[i][p]
                    break
    return utility, bound


def compute_rsu(root: ProjectedDatabase, buckets: dict[int, list], cutoff: int) -> list[int]:
    """RSU of every positive rank at the root: the sum over views containing
    z of U(z, view) + positive utilities after z (the root's prefix
    utilities are 0). ``buckets`` is the root's delivery of every positive
    item it holds. Buckets are read from the last positive rank down,
    keeping one running tail per view, so when z's occurrence in a view is
    read, the view's tail already holds the utilities of every positive
    item after z there, and each occurrence adds its utility once."""
    rsu = [0] * cutoff
    utility_rows = root.utilities
    tails = [0] * len(utility_rows)
    for z in sorted(buckets, reverse=True):
        total = 0
        pairs = iter(buckets[z])
        for i, p in zip(pairs, pairs):
            tail = tails[i] + utility_rows[i][p]
            tails[i] = tail
            total += tail
        rsu[z] = total
    return rsu


def compute_negative_caps(pdb: ProjectedDatabase, occurrences, cutoff: int,
                          n: int) -> tuple[int, list[int]]:
    """``(utility, caps)`` of the child of ``pdb`` that the bucket
    ``occurrences`` describes: the child's exact utility and its subtree cap
    for negative extensions, indexed by rank (``n`` ranks in all, capped
    from ``cutoff`` on): for each negative item z, the sum over child views
    containing z of the positive part of the child's prefix utility.

    Any deeper itemset in the z-subtree keeps the prefix's positive items and
    only adds negative ones over a subset of these views, so its utility can
    never exceed this sum. Unlike a clamped per-view bound, the cap is a plain
    sum of per-view quantities, so it is unchanged by transaction merging."""
    caps = [0] * n
    utility = 0
    item_rows = pdb.items
    utility_rows = pdb.utilities
    prefixes = pdb.prefixes
    pos_prefixes = pdb.pos_prefixes
    pairs = iter(occurrences)
    for i, p in zip(pairs, pairs):
        items = item_rows[i]
        u = utility_rows[i][p]
        utility += prefixes[i] + u
        base = pos_prefixes[i] + (u if u > 0 else 0)
        for q in range(bisect_left(items, cutoff, p + 1), len(items)):
            caps[items[q]] += base
    return utility, caps


def compute_riu(summaries: list[ItemSummary]) -> list[int]:
    """Per-item real utilities, sorted descending."""
    return sorted((s.utility for s in summaries), reverse=True)


def compute_pair_rows(
    root: ProjectedDatabase, buckets: dict[int, list], firsts: Iterable[int], n: int
) -> Iterator[tuple[int, list[int]]]:
    """Exact pair utilities of the (merged or unmerged) root, one row at a
    time: for each item ``a`` of ``firsts``, which must have a bucket in
    ``buckets`` (the root's delivery; every ranked item occurs in the root),
    yield ``(a, row)``: ``row`` has one slot per rank of the ``n``, U({a, b})
    for every item b ranked after a in a view holding a and 0 for every other
    b. The buckets are read, not consumed, and one row is alive at a time."""
    item_rows = root.items
    utility_rows = root.utilities
    for a in firsts:
        row = [0] * n
        pairs = iter(buckets[a])
        for i, p in zip(pairs, pairs):
            items = item_rows[i]
            utils = utility_rows[i]
            ua = utils[p]
            for q in range(p + 1, len(items)):
                row[items[q]] += ua + utils[q]
        yield a, row
