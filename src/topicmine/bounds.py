"""Linear-time upper bounds (RLU / RSU) and negative-extension caps, plus the
exact single-item and pair utilities used for threshold raising.

Per-node bound maps are plain dicts filled by one pass over the node's view
suffixes, so each scan stays linear in the suffix length."""
from __future__ import annotations

from collections.abc import Iterable, Iterator

from .database import ItemSummary
from .ordering import ProjectedDatabase, deliver


def compute_bounds(pdb: ProjectedDatabase) -> tuple[dict[int, int], dict[int, int]]:
    """One scan returning (rlu, rsu) for the items present in the projection.

    RLU(z), for positive z only: sum over views containing z of prefix
    utility + remaining positive utility. Negative items never receive an
    RLU (they are never extensible).

    RSU(z), for every z: sum over views containing z of prefix utility +
    U(z, view) + positive utilities after z. Under the negatives-last order
    the trailing sum is empty for negative z, so their RSU collapses to the
    exact utility of the one-item extension."""
    rlu: dict[int, int] = {}
    rsu: dict[int, int] = {}
    for v in pdb.views:
        rec = v.record
        prefix = v.prefix_utility
        utils = rec.utilities
        items = rec.items
        base = prefix + rec.pos_suffix[v.offset]
        tail = 0
        for p in range(len(items) - 1, v.offset - 1, -1):
            u = utils[p]
            it = items[p]
            rsu[it] = rsu.get(it, 0) + prefix + u + tail
            if u > 0:
                tail += u
                rlu[it] = rlu.get(it, 0) + base
    return rlu, rsu


def compute_rsu(pdb: ProjectedDatabase) -> dict[int, int]:
    """The RSU map of :func:`compute_bounds` (the root needs no RLU)."""
    return compute_bounds(pdb)[1]


def compute_negative_caps(pdb: ProjectedDatabase) -> dict[int, int]:
    """Subtree cap for negative extensions: for each item z present in the
    projection, the sum over views containing z of the positive part of the
    prefix utility.

    Any deeper itemset in the z-subtree keeps the prefix's positive items and
    only adds negative ones over a subset of these views, so its utility can
    never exceed this sum. Unlike a clamped per-view bound, the cap is a plain
    sum of per-view quantities, so it is unchanged by transaction merging."""
    caps: dict[int, int] = {}
    for v in pdb.views:
        items = v.record.items
        base = v.positive_prefix
        for p in range(v.offset, len(items)):
            it = items[p]
            caps[it] = caps.get(it, 0) + base
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
    for a in sorted(buckets):
        occurrences = buckets.pop(a)
        row: dict[int, int] = {}
        pairs = iter(occurrences)
        for v, p in zip(pairs, pairs):
            items = v.record.items
            utils = v.record.utilities
            ua = utils[p]
            for q in range(p + 1, len(items)):
                b = items[q]
                row[b] = row.get(b, 0) + ua + utils[q]
        yield a, row
