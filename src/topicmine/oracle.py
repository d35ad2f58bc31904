"""Brute-force reference: exact utilities and exhaustive top-k enumeration.

Deliberately independent of the mining code paths — it shares only the
database model, so agreement between the two is a meaningful check. Intended
for small instances only.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from .database import UtilityDatabase

MAX_ITEMS = 24


class TooManyItemsError(ValueError):
    pass


@dataclass
class OracleResult:
    top_k: list[tuple[tuple[int, ...], int]]


def utility_of(db: UtilityDatabase, itemset: Iterable[int]) -> int:
    """Exact utility of an itemset: sum of its members' utilities over every
    transaction containing all of them (0 if unsupported)."""
    wanted = set(itemset)
    if not wanted:
        raise ValueError("itemset must be nonempty")
    total = 0
    for t in db.transactions:
        present = dict(zip(t.items, t.utilities))
        if wanted <= present.keys():
            total += sum(present[i] for i in wanted)
    return total


def _processing_rank(db: UtilityDatabase) -> list[int]:
    # Same ordering semantics as the miner (positives by ascending RTWU then
    # id, negatives after), recomputed here from scratch.
    rtwu = [0] * db.item_count
    for t in db.transactions:
        rtu = sum(u for u in t.utilities if u > 0)
        for i in t.items:
            rtwu[i] += rtu
    positives = sorted(db.positive_items, key=lambda i: (rtwu[i], i))
    negatives = sorted(db.negative_items, key=lambda i: (rtwu[i], i))
    rank = [0] * db.item_count
    for r, item in enumerate(positives + negatives):
        rank[item] = r
    return rank


def all_supported_utilities(db: UtilityDatabase) -> dict[frozenset[int], int]:
    """Utility of every nonempty itemset with at least one supporting
    transaction, via tidset-pruned depth-first enumeration."""
    if db.item_count > MAX_ITEMS:
        raise TooManyItemsError(f"{db.item_count} items exceeds the oracle cap of {MAX_ITEMS}")
    tidsets: list[set[int]] = [set() for _ in range(db.item_count)]
    occ: list[dict[int, int]] = [dict() for _ in range(db.item_count)]
    for t in db.transactions:
        for i, u in zip(t.items, t.utilities):
            tidsets[i].add(t.tid)
            occ[i][t.tid] = u

    utilities: dict[frozenset[int], int] = {}

    def extend(prefix: tuple[int, ...], tids: set[int], per_tid: dict[int, int]) -> None:
        start = prefix[-1] + 1 if prefix else 0
        for x in range(start, db.item_count):
            common = tids & tidsets[x] if prefix else tidsets[x]
            if not common:
                continue
            new_per_tid = {t: per_tid.get(t, 0) + occ[x][t] for t in common}
            itemset = prefix + (x,)
            utilities[frozenset(itemset)] = sum(new_per_tid.values())
            extend(itemset, common, new_per_tid)

    extend((), set(), {})
    return utilities


def enumerate_topk(db: UtilityDatabase, k: int) -> OracleResult:
    """Exhaustive top-k: all supported itemsets with utility >= 1, ranked by
    utility descending then rank-lexicographic ascending, truncated to k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    utilities = all_supported_utilities(db)
    rank = _processing_rank(db)
    ranked = sorted(
        ((u, tuple(sorted(rank[i] for i in fs)), fs) for fs, u in utilities.items() if u >= 1),
        key=lambda e: (-e[0], e[1]),
    )
    top = [(tuple(sorted(fs)), u) for u, _, fs in ranked[:k]]
    return OracleResult(top)
