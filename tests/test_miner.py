import random

import pytest
import topicmine.bounds
import topicmine.miner
from helpers import (
    VARIANT_NAMES,
    CheckingTopKStore,
    as_pair_set,
    campaign_db,
    example_database,
    mine_all_variants,
    rank_map,
)

from hypothesis import given, settings
from hypothesis import strategies as st

from topicmine import (
    InvalidKError,
    MinerConfig,
    compute_item_summaries,
    enumerate_topk,
    generate_synthetic,
    mine,
    parse_spmf,
)
from topicmine.oracle import all_supported_utilities
from topicmine.ordering import build_total_order, deliver, merge_identical, project


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

    @pytest.mark.parametrize("name", ["full", "subtree-only"])
    def test_ties_at_k_are_cut_by_tie_order(self, name):
        # the n itemsets of n - 1 items all tie at the third value, 2n - 2.
        # Once the store is full, every later subtree bounded by 2n - 2
        # starts after the worst itemset held, so it is cut; without that
        # cut the search makes about n²/2 candidates
        n = 1200
        line = spmf_line(range(1, n + 1), [1] * n)
        result = mine(parse_spmf(f"{line}\n{line}"), MinerConfig.variant(3, name))
        assert result.top_k == [(tuple(range(n)), 2 * n), (tuple(range(n - 1)), 2 * n - 2),
                                (tuple(range(n - 2)) + (n - 1,), 2 * n - 2)]
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


def test_tie_heavy_campaign_matches_oracle_exactly(monkeypatch):
    # utilities of 1 or 2 make many itemsets tie at the k-th value, where
    # subtree pruning cuts by tie order; the results, tie order included,
    # must still be the oracle's
    tie_cuts = 0

    class Recording(CheckingTopKStore):
        def can_place(self, bound, prefix):
            nonlocal tie_cuts
            placed = super().can_place(bound, prefix)
            tie_cuts += bound >= self.min_util and not placed
            return placed

    monkeypatch.setattr(topicmine.miner, "TopKStore", Recording)
    for seed in range(30):
        for nf in (0.0, 0.3, 0.6):
            db = generate_synthetic(10 + seed % 16, 6 + seed % 5, 3 + seed % 2, (1, 2), nf, seed)
            ranked = enumerate_topk(db, 40).top_k
            for k in (1, 2, 3, 5, 8, 13, 40):
                for name, result in mine_all_variants(db, k).items():
                    assert result.top_k == ranked[:k], (seed, nf, k, name)
    assert tie_cuts > 0


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

    def test_every_built_child_is_searched(self, example_db, monkeypatch):
        # a child is built only for the sub-search that enters it: its
        # utility and bounds come from the parent's bucket, so no leaf is
        # built, and neither is a node whose bounds leave no extension;
        # each built child goes through _enter, and the search walks the
        # node that _enter returns
        built, received, returned, entered = [], [], [], []

        def projecting(*args):
            child = project(*args)
            built.append(child)
            return child

        enter = topicmine.miner._Search._enter

        def entering_node(self, pdb, wanted):
            received.append(pdb)
            node, buckets = enter(self, pdb, wanted)
            returned.append(node)
            return node, buckets

        search = topicmine.miner._Search.search

        def entering(self, prefix, pdb, buckets, candidates, bound):
            entered.append((pdb, candidates, self.cutoff))
            return search(self, prefix, pdb, buckets, candidates, bound)

        monkeypatch.setattr(topicmine.miner, "project", projecting)
        monkeypatch.setattr(topicmine.miner._Search, "_enter", entering_node)
        monkeypatch.setattr(topicmine.miner._Search, "search", entering)
        leaves = negative_searches = 0
        for db in (example_db, campaign_db(4, 0.3), campaign_db(9, 0.6)):
            for name in VARIANT_NAMES:
                for log in (built, received, returned, entered):
                    log.clear()
                stats = mine(db, MinerConfig.variant(10, name)).stats
                assert stats.projections == len(built), name
                # the root is the one node entered that was not built here
                assert [id(child) for child in built] == [id(pdb) for pdb in received[1:]], name
                assert [id(node) for node in returned] == [id(pdb) for pdb, _, _ in entered], name
                _, *searched = entered
                leaves += stats.candidates - stats.projections
                negative_searches += sum(any(w >= cutoff for w in candidates)
                                         for _, candidates, cutoff in searched)
        assert leaves > 0 and negative_searches > 0

    def test_every_built_child_has_a_view(self, example_db, monkeypatch):
        # a child is built only when some extension's bound reaches the
        # floor of 1, and a bound is positive only for an item that occurs
        # after z in some view, so every child the search builds keeps at
        # least one view
        built = []

        def projecting(*args):
            child = project(*args)
            built.append(child)
            return child

        monkeypatch.setattr(topicmine.miner, "project", projecting)
        for db in (example_db, campaign_db(4, 0.0), campaign_db(4, 0.3), campaign_db(9, 0.6)):
            for name in VARIANT_NAMES:
                built.clear()
                stats = mine(db, MinerConfig.variant(10, name)).stats
                assert stats.projections == len(built) > 0, name
                assert all(child.items for child in built), name

    def test_every_entered_node_is_merged_once(self, example_db, monkeypatch):
        # merging runs once per entered node, the root and each built child
        # alike, and never when it is switched off
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return merge_identical(*args)

        monkeypatch.setattr(topicmine.miner, "merge_identical", counting)
        cases = [(example_db, 5), (example_db, 10), (campaign_db(4, 0.3), 10),
                 (campaign_db(5, 0.3), 10), (campaign_db(9, 0.6), 10)]
        for db, k in cases:
            for name in VARIANT_NAMES:
                calls = 0
                config = MinerConfig.variant(k, name)
                stats = mine(db, config).stats
                expected = 1 + stats.projections if config.enable_merging else 0
                assert calls == expected, (name, k)

    @pytest.mark.parametrize("make_db", [
        example_database,
        lambda: campaign_db(4, 0.3),
        lambda: campaign_db(5, 0.3),
        lambda: campaign_db(9, 0.6),
    ], ids=["example", "campaign-4", "campaign-5", "campaign-9"])
    def test_every_node_is_delivered_once(self, make_db, monkeypatch):
        # one delivery serves all of a node's candidates, negative and
        # positive alike: the root and each built child are delivered once,
        # and the root's pair raise and RSU read the delivery its search
        # pops its children from
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return deliver(*args)

        monkeypatch.setattr(topicmine.miner, "deliver", counting)
        monkeypatch.setattr(topicmine.bounds, "deliver", counting, raising=False)
        db = make_db()
        for name in VARIANT_NAMES:
            calls = 0
            stats = mine(db, MinerConfig.variant(10, name)).stats
            assert calls == 1 + stats.projections, name

    def test_merging_variant_counts_merges(self, example_db):
        merged = mine(example_db, MinerConfig.variant(5, "full"))
        unmerged = mine(example_db, MinerConfig.variant(5, "subtree-only"))
        assert merged.stats.merges > 0
        assert unmerged.stats.merges == 0


# Pinned work counters and threshold path of every variant, on the worked
# example (k=5) and on a seeded database with negative items whose merging
# variants coalesce views (k=10). A change to the search's bookkeeping must
# not move them. Per variant: (candidates, children built for search, views
# merged away in them and the root, peak views alive, final_min_util).
GOLDEN_DATABASES = {
    "example": (example_database, 5),
    "campaign-5": (lambda: campaign_db(5, 0.3), 10),
}
COUNTER_GOLDEN = {
    "example": {
        "full": (8, 4, 2, 8, 58),
        "merge-only": (8, 4, 2, 8, 58),
        "subtree-only": (8, 4, 0, 10, 58),
        "none": (8, 4, 0, 10, 58),
    },
    "campaign-5": {
        "full": (35, 18, 8, 27, 54),
        "merge-only": (51, 26, 10, 27, 54),
        "subtree-only": (35, 18, 0, 42, 54),
        "none": (51, 26, 0, 42, 54),
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


def capture_orders(monkeypatch):
    """A list that collects every order ``mine`` builds: the miner ranks
    only the items its root keeps, so a test reads its ranks from there."""
    orders = []

    def ordering(summaries):
        orders.append(build_total_order(summaries))
        return orders[-1]

    monkeypatch.setattr(topicmine.miner, "build_total_order", ordering)
    return orders


def test_negative_entry_is_cut_by_caps(monkeypatch):
    # A (label 1) wins with 11 > threshold 9 (the pair {A, C} at k=2), so
    # A's negative extensions are filtered by their caps. N (label 4)
    # co-occurs with A only where A is worth 1, so N's cap under A is 1 and
    # {A, N} (utility 0) is cut before it is offered; N itself survives the
    # root's RTWU filter.
    db = parse_spmf("1:10:10\n1 3 4:8:1 8 -1\n2:5:5")
    a, n = db.labels.index(1), db.labels.index(4)
    orders = capture_orders(monkeypatch)
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
        rank = rank_map(orders[-1])
        offered_an = frozenset((rank[a], rank[n])) in stores[-1].offered
        assert offered_an == (name in ("merge-only", "none")), name


ROOT_FILTER_GOLDEN = {  # per k and variant, counters as in COUNTER_GOLDEN
    1: {
        "full": (2, 1, 1, 3, 40),
        "merge-only": (3, 1, 1, 3, 40),
        "subtree-only": (2, 1, 0, 5, 40),
        "none": (3, 1, 0, 5, 40),
    },
    2: {
        "full": (3, 1, 1, 3, 32),
        "merge-only": (3, 1, 1, 3, 32),
        "subtree-only": (3, 1, 0, 5, 32),
        "none": (3, 1, 0, 5, 32),
    },
}


def test_items_dropped_by_the_root_filter_are_never_candidates(monkeypatch):
    # The RIU raise lifts the threshold above the RTWU of labels 3
    # (positive), 4 and 5 (negative), so the root drops them. With no
    # negative item left, no child runs a caps scan, not even the pair
    # {1, 2}, which beats the threshold at k=2; and no dropped label is
    # ever offered.
    db = parse_spmf("1 2:20:10 10\n1 2:20:10 10\n3 4:3:4 -1\n1 5:11:12 -1\n")
    orders = capture_orders(monkeypatch)
    stores = []
    caps_scans = []

    class Recording(CheckingTopKStore):
        def __init__(self, k):
            super().__init__(k)
            stores.append(self)

    compute_negative_caps = topicmine.miner.compute_negative_caps

    def scanning(*args):
        caps_scans.append(args)
        return compute_negative_caps(*args)

    monkeypatch.setattr(topicmine.miner, "TopKStore", Recording)
    monkeypatch.setattr(topicmine.miner, "compute_negative_caps", scanning)
    for k, golden in ROOT_FILTER_GOLDEN.items():
        expected = enumerate_topk(db, k).top_k
        for name in VARIANT_NAMES:
            result = mine(db, MinerConfig.variant(k, name))
            st = result.stats
            assert result.top_k == expected, (k, name)
            offered = {db.labels[orders[-1].items[r]]
                       for itemset in stores[-1].offered for r in itemset}
            assert not offered & {3, 4, 5}, (k, name)
            got = (st.candidates, st.projections, st.merges, st.peak_entries,
                   result.final_min_util)
            assert got == golden[name], (k, name)
    assert caps_scans == []


def test_root_filter_drops_some_negative_items(monkeypatch):
    # The RIU raise (threshold 39 at k=3) lifts the threshold above the
    # RTWU of 3 of the 5 negative items and of no positive one. Only the 5
    # kept items (3 positive, 2 negative) are ranked, so every caps list
    # spans 5 ranks, and the root's delivery holds a bucket for every
    # positive rank.
    db = generate_synthetic(20, 8, 4, (1, 9), 0.6, 2)
    summaries = compute_item_summaries(db)
    assert (len(db.positive_items), len(db.negative_items)) == (3, 5)
    assert sorted(s.positive for s in summaries if s.rtwu < 39) == [False] * 3
    ns = []
    root_buckets = []
    compute_negative_caps = topicmine.miner.compute_negative_caps
    run = topicmine.miner._Search.run

    def capping(*args):
        ns.append(args[3])
        return compute_negative_caps(*args)

    def running(self, root, buckets, candidates, rsu):
        root_buckets.append(sorted(buckets) == list(range(self.cutoff)))
        return run(self, root, buckets, candidates, rsu)

    monkeypatch.setattr(topicmine.miner, "compute_negative_caps", capping)
    monkeypatch.setattr(topicmine.miner._Search, "run", running)
    expected = enumerate_topk(db, 3).top_k
    for name in VARIANT_NAMES:
        result = mine(db, MinerConfig.variant(3, name))
        assert result.top_k == expected, name
        assert result.min_util_history[1] == 39, name
    assert ns and set(ns) == {5}
    assert root_buckets == [True] * len(VARIANT_NAMES)


@pytest.mark.parametrize("variant", VARIANT_NAMES)
def test_stopped_bound_scans_change_no_result_or_counter(monkeypatch, variant):
    # On this dense instance many positive children's RSU or RLU scans stop
    # early at every k, some of them on children that still beat the
    # threshold and go on to their negative extensions. Each run keeps the
    # oracle's top-k, and the result, every counter and the threshold
    # history of a run whose scans read every view.
    db = generate_synthetic(300, 14, 9, (1, 5), 0.3, seed=1)
    compute_bounds = topicmine.miner.compute_bounds
    compute_negative_caps = topicmine.miner.compute_negative_caps
    stopped = []
    capped = []

    # the wrappers forward every argument, so a new kernel parameter
    # passes through them
    def stopping(*args):
        result = compute_bounds(*args)
        if result != compute_bounds(*args[:4]):
            stopped.append(args[1])
        return result

    def capping(*args):
        capped.append(bool(stopped) and stopped[-1] is args[1])
        return compute_negative_caps(*args)

    def reading_every_view(*args):
        return compute_bounds(*args[:4])

    monkeypatch.setattr(topicmine.miner, "compute_negative_caps", capping)
    for k in (1, 10, 50):
        config = MinerConfig.variant(k, variant)
        monkeypatch.setattr(topicmine.miner, "compute_bounds", stopping)
        before = len(stopped)
        early = mine(db, config)
        assert len(stopped) - before > 100, k
        monkeypatch.setattr(topicmine.miner, "compute_bounds", reading_every_view)
        full = mine(db, config)
        assert early.top_k == full.top_k == enumerate_topk(db, k).top_k, k
        assert early.final_min_util == full.final_min_util, k
        assert early.min_util_history == full.min_util_history, k
        early.stats.runtime_ms = full.stats.runtime_ms = 0
        assert early.stats == full.stats, k
    assert sum(capped) > 0


def test_k_above_sys_maxsize_matches_oracle(example_db):
    assert mine(example_db, MinerConfig(10**20)).top_k == enumerate_topk(example_db, 10**20).top_k


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


def dict_row_pair_utilities(riu, rank_utility, root, buckets, candidates, k):
    """The pair raise's values with every co-occurring pair read into a dict
    row, zero pairs included: the reference for the miner's rank-indexed
    rows, which skip zeros."""
    yield from riu
    for a in sorted(candidates, key=rank_utility.__getitem__, reverse=True)[:k]:
        row = {}
        pairs = iter(buckets[a])
        for i, p in zip(pairs, pairs):
            items, utilities = root.items[i], root.utilities[i]
            for q in range(p + 1, len(items)):
                row[items[q]] = row.get(items[q], 0) + utilities[p] + utilities[q]
        yield from row.values()


def test_zero_pair_leaves_the_raise_unchanged(monkeypatch):
    # the pair {1, 2} is worth exactly 0, and from k = 3 on the root keeps
    # item 2. At k = 7 that zero is the k-th largest of the reference's
    # values, and at k = 9 the reference holds k values only with it;
    # dropping it raises nothing above the floor either way, so every
    # history and top-k equals the reference's
    db = parse_spmf("1 2:0:4 -4\n1 3:7:4 3\n1 3 4:9:4 3 2\n3 4:3:1 2\n2 4:-1:-3 2\n")
    kth = {}

    def reference(*args):
        values = sorted(dict_row_pair_utilities(*args), reverse=True)
        k = args[-1]
        kth[k] = values[k - 1] if k <= len(values) else None
        return iter(values)

    for k in range(1, 11):
        for name in VARIANT_NAMES:
            config = MinerConfig.variant(k, name)
            got = mine(db, config)
            with monkeypatch.context() as patch:
                patch.setattr(topicmine.miner, "_item_and_pair_utilities", reference)
                want = mine(db, config)
            assert got.min_util_history == want.min_util_history, (k, name)
            assert got.top_k == want.top_k == enumerate_topk(db, k).top_k, (k, name)
    assert kth[7] == 0 and kth[9] == -7 and kth[10] is None


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
        rank = rank_map(order)
        for itemset, _ in result.top_k:
            ranks = sorted(rank[i] for i in itemset)
            positives = [r for r in ranks if r < order.positive_cutoff]
            assert positives == ranks[: len(positives)]
