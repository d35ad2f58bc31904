import random

import pytest
import topicmine.miner
from helpers import (
    VARIANT_NAMES,
    CheckingTopKStore,
    as_pair_set,
    campaign_db,
    example_database,
    mine_all_variants,
)

from hypothesis import given, settings
from hypothesis import strategies as st

from topicmine import (
    InvalidKError,
    MinerConfig,
    compute_item_summaries,
    enumerate_topk,
    mine,
    parse_spmf,
)
from topicmine.oracle import all_supported_utilities
from topicmine.ordering import build_total_order


class TestConfig:
    def test_variant_flags(self):
        assert MinerConfig.variant(3, "full") == MinerConfig(3, True, True)
        assert MinerConfig.variant(3, "merge-only") == MinerConfig(3, True, False)
        assert MinerConfig.variant(3, "subtree-only") == MinerConfig(3, False, True)
        assert MinerConfig.variant(3, "none") == MinerConfig(3, False, False)

    def test_invalid_k(self, example_db):
        with pytest.raises(InvalidKError):
            mine(example_db, MinerConfig(0))


class TestRunningExample:
    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_top5(self, example_db, ids, name):
        result = mine(example_db, MinerConfig.variant(5, name))
        assert result.top_k == [
            ((ids["D"],), 114),
            ((ids["B"], ids["D"]), 66),
            ((ids["C"], ids["D"]), 64),
            ((ids["A"], ids["D"]), 62),
            ((ids["B"], ids["C"], ids["D"]), 58),
        ]
        assert result.final_min_util == 58

    def test_k1(self, example_db, ids):
        result = mine(example_db, MinerConfig(1))
        assert result.top_k == [((ids["D"],), 114)]
        assert result.final_min_util == 114

    def test_empty_db(self):
        result = mine(parse_spmf(""), MinerConfig(5))
        assert result.top_k == [] and result.final_min_util == 1
        assert result.min_util_history == [1]
        stats = result.stats
        assert stats.candidates == stats.projections == stats.merges == stats.peak_entries == 0

    def test_stats_populated(self, example_db):
        result = mine(example_db, MinerConfig(5))
        assert result.stats.candidates >= len(result.top_k)
        assert result.stats.projections > 0
        assert result.stats.peak_entries > 0


class TestOracleEquivalence:
    @pytest.mark.parametrize("nf", [0.0, 0.3, 0.6])
    def test_small_campaign(self, nf):
        for seed in range(25):
            db = campaign_db(seed, nf)
            ranked = enumerate_topk(db, 30).top_k
            for k in (1, 3, 5, 10):
                expected = as_pair_set(ranked[:k])
                for name, result in mine_all_variants(db, k).items():
                    assert as_pair_set(result.top_k) == expected, (seed, nf, k, name)

    def test_dense_negatives_large_positives(self):
        # regression: deep negative extensions can beat their intermediate
        # prefixes, so recursion must not be cut on the prefix's exact utility
        import random

        from topicmine import parse_spmf

        rng = random.Random(99)
        for _ in range(200):
            n_items = rng.randint(3, 7)
            n_pos = rng.randint(1, max(1, n_items // 2))
            signs = [1] * n_pos + [-1] * (n_items - n_pos)
            rng.shuffle(signs)
            mags = [rng.randint(10, 40) if s > 0 else rng.randint(1, 12) for s in signs]
            lines = []
            for _ in range(rng.randint(6, 14)):
                size = rng.randint(1, n_items)
                items = sorted(rng.sample(range(1, n_items + 1), size))
                utils = [signs[i - 1] * rng.randint(1, mags[i - 1]) for i in items]
                lines.append(" ".join(map(str, items)) + f":{sum(utils)}:"
                             + " ".join(map(str, utils)))
            db = parse_spmf("\n".join(lines))
            ranked = enumerate_topk(db, 10).top_k
            for k in (1, 5, 10):
                expected = as_pair_set(ranked[:k])
                for name, result in mine_all_variants(db, k).items():
                    assert as_pair_set(result.top_k) == expected, (k, name, lines)

    def test_variants_agree_exactly(self):
        db = campaign_db(3, 0.3)
        results = mine_all_variants(db, 8)
        sets = [as_pair_set(r.top_k) for r in results.values()]
        assert all(s == sets[0] for s in sets)


def spmf_line(labels, utils):
    return f"{' '.join(map(str, labels))}:{sum(utils)}:{' '.join(map(str, utils))}"


EDGE_SHAPES = ("all-negative", "k-above-itemsets", "ties-at-k", "one-transaction")


@st.composite
def edge_database(draw, shape):
    """A small database of one edge shape, as SPMF text parsed by the program.

    ``all-negative``: every item negative, which ``generate_synthetic`` never
    makes. ``ties-at-k``: magnitudes 1..3, so many itemsets share a utility.
    ``one-transaction``: a single transaction of up to 12 items."""
    one = shape == "one-transaction"
    n_items = draw(st.integers(1, 12 if one else 7))
    if shape == "all-negative":
        signs = [-1] * n_items
    else:
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n_items, max_size=n_items))
    high = 3 if shape == "ties-at-k" else 9
    lines = []
    for _ in range(1 if one else draw(st.integers(1, 8))):
        if one:
            items = list(range(1, n_items + 1))
        else:
            items = sorted(draw(st.sets(st.integers(1, n_items), min_size=1)))
        utils = [signs[i - 1] * draw(st.integers(1, high)) for i in items]
        lines.append(spmf_line(items, utils))
    return parse_spmf("\n".join(lines))


@pytest.mark.parametrize("shape", EDGE_SHAPES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_edge_shapes_match_oracle_exactly(shape, data):
    db = data.draw(edge_database(shape))
    ranked = enumerate_topk(db, 2 ** db.item_count).top_k  # every itemset with utility >= 1
    if shape == "k-above-itemsets":
        k = len(ranked) + data.draw(st.integers(1, 3))
    elif shape == "ties-at-k":
        ties = [k for k in range(1, len(ranked)) if ranked[k - 1][1] == ranked[k][1]]
        k = data.draw(st.sampled_from(ties) if ties else st.integers(1, 5))
    else:
        k = data.draw(st.integers(1, 40))
    expected = enumerate_topk(db, k).top_k
    for name, result in mine_all_variants(db, k).items():
        assert result.top_k == expected, name


class TestLongTransactions:
    """Transactions longer than the interpreter's recursion limit: the search
    goes one level deeper per item, so it must not recurse."""

    @pytest.mark.parametrize("name", ["full", "subtree-only"])
    def test_two_identical_long_transactions(self, name):
        n = 1200
        line = spmf_line(range(1, n + 1), [1] * n)
        result = mine(parse_spmf(f"{line}\n{line}"), MinerConfig.variant(1, name))
        assert result.top_k == [(tuple(range(n)), 2 * n)]
        # each child is checked against the threshold of its turn; checked
        # only when its parent listed it, the search makes 720,599 candidates
        assert result.stats.candidates <= 2 * n

    @settings(max_examples=3, deadline=None)
    @given(n_pos=st.integers(1001, 1100), n_neg=st.integers(0, 150),
           seed=st.integers(0, 2 ** 32))
    def test_one_long_transaction(self, n_pos, n_neg, seed):
        # labels and magnitudes come from ``seed``: drawn one by one, a
        # transaction this long is more data than Hypothesis accepts
        rng = random.Random(seed)
        labels = rng.sample(range(1, n_pos + n_neg + 1), n_pos + n_neg)
        utils = ([rng.randint(1, 9) for _ in range(n_pos)]
                 + [-rng.randint(1, 9) for _ in range(n_neg)])
        db = parse_spmf(spmf_line(labels, utils))
        expected = [(tuple(sorted(lab - 1 for lab in labels[:n_pos])), sum(utils[:n_pos]))]
        for name in ("full", "subtree-only"):
            assert mine(db, MinerConfig.variant(1, name)).top_k == expected, name


class TestAblationStats:
    def test_candidate_count_pattern(self):
        for seed in (0, 5, 11):
            db = campaign_db(seed, 0.3)
            c = {name: r.stats.candidates for name, r in mine_all_variants(db, 10).items()}
            assert c["full"] == c["subtree-only"]
            assert c["merge-only"] == c["none"]
            assert c["full"] <= c["none"]

    def test_candidates_nondecreasing_in_k(self):
        db = campaign_db(7, 0.3)
        previous = 0
        for k in (1, 3, 5, 10, 20):
            candidates = mine(db, MinerConfig(k)).stats.candidates
            assert candidates >= previous
            previous = candidates

    def test_every_projection_is_a_candidate(self, example_db):
        # children are built only for items that occur in the parent's views
        for db in (example_db, campaign_db(4, 0.3), campaign_db(9, 0.6)):
            for name, result in mine_all_variants(db, 10).items():
                assert result.stats.projections == result.stats.candidates, name

    def test_merging_variant_counts_merges(self, example_db):
        merged = mine(example_db, MinerConfig.variant(5, "full"))
        unmerged = mine(example_db, MinerConfig.variant(5, "subtree-only"))
        assert merged.stats.merges > 0
        assert unmerged.stats.merges == 0


# Pinned work counters and threshold path of every variant, on the worked
# example (k=5) and on a seeded database with negative items whose merging
# variants coalesce views (k=10). A change to the search's bookkeeping must
# not move them. Per variant: (candidates, projections, merges, peak_entries,
# final_min_util).
GOLDEN_DATABASES = {
    "example": (example_database, 5),
    "campaign-5": (lambda: campaign_db(5, 0.3), 10),
}
COUNTER_GOLDEN = {
    "example": {
        "full": (8, 8, 2, 9, 58),
        "merge-only": (8, 8, 2, 9, 58),
        "subtree-only": (8, 8, 0, 10, 58),
        "none": (8, 8, 0, 10, 58),
    },
    "campaign-5": {
        "full": (35, 35, 9, 27, 54),
        "merge-only": (51, 51, 12, 27, 54),
        "subtree-only": (35, 35, 0, 42, 54),
        "none": (51, 51, 0, 42, 54),
    },
}
HISTORY_GOLDEN = {  # the same for every variant
    "example": [1, 40, 58],
    "campaign-5": [1, 35, 39, 42, 44, 46, 50, 52, 53, 54],
}


@pytest.mark.parametrize("db_name", sorted(GOLDEN_DATABASES))
def test_counters_match_golden(db_name):
    make_db, k = GOLDEN_DATABASES[db_name]
    db = make_db()
    assert db.negative_items
    for name, result in mine_all_variants(db, k).items():
        st = result.stats
        got = (st.candidates, st.projections, st.merges, st.peak_entries, result.final_min_util)
        assert got == COUNTER_GOLDEN[db_name][name], name
        assert result.min_util_history == HISTORY_GOLDEN[db_name], name


def test_negative_entry_is_cut_by_caps(monkeypatch):
    # A (label 1) wins with 11 > threshold 9 (the pair {A, C} at k=2), so a
    # negative search is entered under A. N (label 4) co-occurs with A only
    # where A is worth 1, so N's cap under A is 1 and {A, N} (utility 0) is
    # cut before it is projected; N itself survives the root's RTWU filter.
    db = parse_spmf("1:10:10\n1 3 4:8:1 8 -1\n2:5:5")
    a, n = db.labels.index(1), db.labels.index(4)
    order = build_total_order(compute_item_summaries(db))
    rank = {item: r for r, item in enumerate(order.items)}
    stores = []

    class Recording(CheckingTopKStore):
        def __init__(self, k):
            super().__init__(k)
            stores.append(self)

    monkeypatch.setattr(topicmine.miner, "TopKStore", Recording)
    expected = enumerate_topk(db, 2).top_k
    assert expected[0] == ((a,), 11) and expected[1][1] == 9
    for name in VARIANT_NAMES:
        result = mine(db, MinerConfig.variant(2, name))
        assert result.top_k == expected, name
        assert result.final_min_util == 9, name
        offered_an = frozenset((rank[a], rank[n])) in stores[-1].offered
        assert offered_an == (name in ("merge-only", "none")), name


def test_pair_raise_reaches_kth_item_or_pair_utility():
    # with k above the item count the single items cannot raise the
    # threshold, so its first raise is the pair raise: the k-th largest exact
    # utility among itemsets of one or two items
    checked = 0
    for seed in range(40):
        for nf in (0.0, 0.3, 0.6):
            db = campaign_db(seed, nf)
            k = db.item_count + 1 + seed % 4
            small = sorted((u for itemset, u in all_supported_utilities(db).items()
                            if len(itemset) <= 2), reverse=True)
            if len(small) < k or small[k - 1] <= 1:
                continue
            checked += 1
            for name, result in mine_all_variants(db, k).items():
                assert result.min_util_history[1] == small[k - 1], (seed, nf, name)
    assert checked >= 100


class TestThresholdMonotonicity:
    def test_history_never_decreases(self):
        for seed in range(10):
            db = campaign_db(seed, 0.3)
            for name, result in mine_all_variants(db, 5).items():
                history = result.min_util_history
                assert history == sorted(history), (seed, name)

    def test_search_order_is_rank_increasing(self, example_db):
        result = mine(example_db, MinerConfig(5))
        from topicmine import compute_item_summaries
        from topicmine.ordering import build_total_order

        order = build_total_order(compute_item_summaries(example_db))
        for itemset, _ in result.top_k:
            ranks = sorted(order.rank[i] for i in itemset)
            positives = [r for r in ranks if r < order.positive_cutoff]
            assert positives == ranks[: len(positives)]
