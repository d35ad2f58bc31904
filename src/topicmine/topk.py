"""Bounded priority store for the k best itemsets and the rising threshold."""
from __future__ import annotations

import heapq
import sys
from collections.abc import Iterable
from itertools import islice


class _Entry:
    """Heap element ordered worst-first: lower utility is worse; on equal
    utility the lexicographically greater sorted itemset is worse (and is
    the one evicted at the boundary)."""

    __slots__ = ("utility", "itemset")

    def __init__(self, utility: int, itemset: tuple[int, ...]):
        self.utility = utility
        self.itemset = itemset

    def __lt__(self, other: "_Entry") -> bool:
        if self.utility != other.utility:
            return self.utility < other.utility
        return self.itemset > other.itemset


FLOOR = 1


class TopKStore:
    """Holds at most k (itemset, utility) entries; ``min_util`` starts at the
    floor of 1 and only ever rises. ``history`` records every threshold value
    for monotonicity checks."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._heap: list[_Entry] = []
        self.min_util = FLOOR
        self.history: list[int] = [FLOOR]

    def _raise_to(self, value: int) -> None:
        if value > self.min_util:
            self.min_util = value
            self.history.append(value)

    def raise_to_kth(self, values: Iterable[int]) -> int:
        """With at least k values, raise the threshold to the k-th largest
        (never below the floor). Sound only when every value is the exact
        utility of a distinct itemset: then at least k itemsets reach the
        new threshold, so none of the top k falls below it. Only k values
        are held at once, in a heap of plain values."""
        values = iter(values)
        # islice rejects a stop above sys.maxsize, and no run offers more values
        best = list(islice(values, min(self.k, sys.maxsize)))
        if len(best) == self.k:
            heapq.heapify(best)
            for value in values:
                if value > best[0]:
                    heapq.heapreplace(best, value)
            self._raise_to(max(FLOOR, best[0]))
        return self.min_util

    def offer(self, itemset: tuple[int, ...], utility: int) -> int:
        """Consider one candidate; returns the possibly-raised threshold.

        The search evaluates every itemset once, so an itemset is never
        offered twice."""
        if utility < self.min_util:
            return self.min_util
        entry = _Entry(utility, tuple(sorted(itemset)))
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            if len(self._heap) == self.k:
                self._raise_to(self._heap[0].utility)
        elif self._heap[0] < entry:
            heapq.heapreplace(self._heap, entry)
            self._raise_to(self._heap[0].utility)
        return self.min_util

    def can_place(self, bound: int, prefix: tuple[int, ...]) -> bool:
        """Whether an itemset that starts with the sorted ``prefix`` and is
        worth at most ``bound`` can still enter the store.

        No when ``bound`` is below the threshold. No also when the store is
        full and its worst entry is worth exactly ``bound`` with a sorted
        itemset at or before ``prefix``: every such itemset is at or after
        ``prefix``, so at best it ties that entry and loses the tie. The
        worst entry only improves, so a no never turns into a yes."""
        if bound < self.min_util:
            return False
        heap = self._heap
        if len(heap) < self.k:
            return True
        worst = heap[0]
        return worst.utility != bound or prefix < worst.itemset

    def results(self) -> list[tuple[tuple[int, ...], int]]:
        """Entries sorted by utility descending, ties by ascending sorted
        itemset; itemsets are emitted sorted."""
        ordered = sorted(self._heap, key=lambda e: (-e.utility, e.itemset))
        return [(e.itemset, e.utility) for e in ordered]
