import heapq
import random
import sys

import pytest
from helpers import CheckingTopKStore

import topicmine.miner
from topicmine import MinerConfig, mine
from topicmine.topk import TopKStore


class TestRiuRaising:
    def test_kth_value_raises(self):
        store = TopKStore(2)
        assert store.raise_to_kth([114, 40, 25, -9, -10]) == 40

    def test_kth_value_below_floor_is_clamped(self):
        store = TopKStore(5)
        assert store.raise_to_kth([114, 40, 25, -9, -10]) == 1

    def test_short_list_leaves_threshold(self):
        store = TopKStore(3)
        assert store.raise_to_kth([7, 5]) == 1

    def test_k1(self):
        store = TopKStore(1)
        assert store.raise_to_kth([7]) == 7

    def test_k_above_sys_maxsize_leaves_threshold(self):
        # fewer than k values never raise, however large k is
        assert TopKStore(sys.maxsize + 1).raise_to_kth([3, 2]) == 1

    def test_equals_nlargest(self):
        # random lists with duplicates and negatives, of fewer than, exactly
        # and more than k values, read once from a generator: the raise
        # lands on the k-th largest value as ``heapq.nlargest`` gives it
        rng = random.Random(5)
        for k in (1, 2, 3, 7, 20):
            for size in (0, 1, k - 1, k, k + 1, 3 * k, 50):
                values = [rng.randint(-6, 6) for _ in range(size)]
                best = heapq.nlargest(k, values)
                want = max(1, best[-1]) if len(best) == k else 1
                assert TopKStore(k).raise_to_kth(v for v in values) == want


class TestOffer:
    def test_below_capacity_keeps_floor(self):
        store = TopKStore(3)
        assert store.offer((3,), 114) == 1
        assert len(store.results()) == 1

    def test_full_store_rejects_below_kth(self):
        store = TopKStore(5)
        for i, u in enumerate([114, 66, 64, 62, 58]):
            store.offer((i,), u)
        assert store.min_util == 58
        assert store.offer((9, 10), 57) == 58
        assert {u for _, u in store.results()} == {114, 66, 64, 62, 58}

    def test_full_store_rejects_tie_at_k2(self):
        store = TopKStore(2)
        store.offer((0,), 114)
        store.offer((1,), 66)
        store.offer((2, 3), 64)
        assert store.min_util == 66
        assert sorted(u for _, u in store.results()) == [66, 114]

    def test_eviction_raises_threshold(self):
        store = TopKStore(2)
        store.offer((0,), 10)
        store.offer((1,), 20)
        assert store.min_util == 10
        store.offer((2,), 30)
        assert store.min_util == 20

    def test_tie_eviction_prefers_lexicographically_smaller(self):
        store = TopKStore(1)
        store.offer((5,), 10)
        store.offer((2,), 10)
        assert store.results() == [((2,), 10)]

    def test_duplicate_itemset_asserts(self):
        store = CheckingTopKStore(3)
        store.offer((1, 2), 5)
        with pytest.raises(AssertionError, match="duplicate candidate"):
            store.offer((2, 1), 5)

    def test_mine_offers_through_the_checking_store(self, example_db, monkeypatch):
        stores = []

        class Recording(CheckingTopKStore):
            def __init__(self, k):
                super().__init__(k)
                stores.append(self)

        assert topicmine.miner.TopKStore is CheckingTopKStore
        monkeypatch.setattr(topicmine.miner, "TopKStore", Recording)
        result = mine(example_db, MinerConfig(5))
        assert len(stores) == 1
        assert len(stores[0].offered) == result.stats.candidates

    def test_threshold_never_decreases(self):
        store = TopKStore(2)
        store.raise_to_kth([9, 4, 1])
        for i, u in enumerate([4, 9, 30, 6, 50]):
            store.offer((i,), u)
        assert store.history == sorted(store.history)


class TestCanPlace:
    def test_below_threshold_never_places(self):
        store = TopKStore(3)
        store.raise_to_kth([9, 8, 7])
        assert not store.can_place(6, (0,))
        assert store.can_place(7, (0,))

    def test_store_not_full_places_at_threshold(self):
        store = TopKStore(2)
        store.offer((1, 2), 5)
        assert store.can_place(1, (3,))

    def test_tie_with_worst_entry_places_only_before_it(self):
        # every itemset that starts with the prefix sorts at or after it, so
        # at the worst entry's utility it can only win the tie from before
        store = TopKStore(2)
        store.offer((0,), 9)
        store.offer((2, 5), 4)
        assert store.min_util == 4
        assert store.can_place(4, (1,))
        assert store.can_place(4, (2, 4))
        assert not store.can_place(4, (2, 5))
        assert not store.can_place(4, (2, 6))
        assert not store.can_place(4, (3,))
        assert store.can_place(5, (3,))


class TestResults:
    def test_ordering_utility_then_rank(self):
        # the miner offers rank itemsets, so ties fall to the sorted ranks
        store = TopKStore(4)
        store.offer((1,), 7)
        store.offer((3, 0), 7)
        store.offer((4,), 9)
        store.offer((2, 0), 7)
        assert store.results() == [((4,), 9), ((0, 2), 7), ((0, 3), 7), ((1,), 7)]

    def test_empty(self):
        assert TopKStore(4).results() == []
