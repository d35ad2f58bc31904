import pytest

from topicmine import TooManyItemsError, enumerate_topk, generate_synthetic, parse_spmf, utility_of
from topicmine.oracle import all_supported_utilities


class TestUtilityOf:
    def test_ad(self, example_db, ids):
        assert utility_of(example_db, [ids["A"], ids["D"]]) == 62

    def test_e(self, example_db, ids):
        assert utility_of(example_db, [ids["E"]]) == 40

    def test_unsupported_is_zero(self, example_db, ids):
        assert utility_of(example_db, [ids["A"], ids["B"]]) == 0

    def test_empty_itemset_rejected(self, example_db):
        with pytest.raises(ValueError):
            utility_of(example_db, [])


class TestEnumerate:
    def test_running_example_top5(self, example_db, ids):
        result = enumerate_topk(example_db, 5)
        want = [
            ((ids["D"],), 114),
            ((ids["B"], ids["D"]), 66),
            ((ids["C"], ids["D"]), 64),
            ((ids["A"], ids["D"]), 62),
            ((ids["B"], ids["C"], ids["D"]), 58),
        ]
        assert result.top_k == want

    def test_k_exceeding_available(self):
        db = parse_spmf("1:7:7")
        result = enumerate_topk(db, 3)
        assert result.top_k == [((0,), 7)]

    def test_negative_only_itemsets_excluded(self, example_db):
        result = enumerate_topk(example_db, 100)
        assert all(u >= 1 for _, u in result.top_k)
        assert any(u < 1 for u in all_supported_utilities(example_db).values())

    def test_item_cap(self):
        db = generate_synthetic(60, 30, 5, (1, 5), 0.0, 1)
        with pytest.raises(TooManyItemsError):
            enumerate_topk(db, 1)

    def test_all_utilities_match_direct_computation(self, example_db):
        for itemset, u in all_supported_utilities(example_db).items():
            assert utility_of(example_db, itemset) == u
