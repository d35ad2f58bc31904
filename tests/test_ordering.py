import pytest
from helpers import campaign_db, example_database, project_on

from topicmine import compute_item_summaries, generate_synthetic, parse_spmf
from topicmine.ordering import (
    build_root,
    build_total_order,
    deliver,
    merge_identical,
    project,
    remap_database,
)


def canonical(example_db):
    summaries = compute_item_summaries(example_db)
    return build_total_order(summaries)


def remapped_example(example_db):
    order = canonical(example_db)
    everything = example_db.positive_items | example_db.negative_items
    return remap_database(example_db, order, everything), order


def example_root(example_db, ids):
    """The worked example's root projection, and the fixture's dense ids
    mapped to the ranks the projection holds."""
    rdb, order = remapped_example(example_db)
    return build_root(rdb), {name: order.rank[i] for name, i in ids.items()}


class TestTotalOrder:
    def test_running_example_order(self, example_db, ids):
        order = canonical(example_db)
        # positives by ascending RTWU (E=62, A=87, D=144), then negatives
        # (B and C tie at 92, broken by label)
        assert order.items == [ids["E"], ids["A"], ids["D"], ids["B"], ids["C"]]
        assert order.positive_cutoff == 3

    def test_single_item(self):
        db = parse_spmf("7:5:5")
        order = build_total_order(compute_item_summaries(db))
        assert order.items == [0] and order.positive_cutoff == 1

    def test_all_equal_rtwu_falls_back_to_labels(self):
        db = parse_spmf("1:4:4\n2:4:4\n3:4:4")
        order = build_total_order(compute_item_summaries(db))
        assert order.items == [0, 1, 2]


class TestRemap:
    def test_running_example_survives_whole(self, example_db):
        rdb, order = remapped_example(example_db)
        assert len(rdb) == 6
        source = {t.tid: t.items for t in example_db.transactions}
        for t in rdb:
            ranks = t.items
            assert ranks == sorted(ranks)
            assert sorted(order.items[r] for r in ranks) == source[t.tid]

    def test_empty_keep_sets(self, example_db):
        order = canonical(example_db)
        rdb = remap_database(example_db, order, set())
        assert rdb == []

    def test_back_to_front_transaction_order(self):
        # {a,b} sorts below {a,b,c} which sorts below {a,b,e}
        db = parse_spmf("1 2 3:3:1 1 1\n1 2 5:4:1 1 2\n1 2:2:1 1")
        order = build_total_order(compute_item_summaries(db))
        rdb = remap_database(db, order, set(db.positive_items))
        lengths_and_labels = [sorted(db.labels[order.items[r]] for r in t.items) for t in rdb]
        assert lengths_and_labels == [[1, 2], [1, 2, 3], [1, 2, 5]]

    def test_dropped_items_recompute_tu(self, example_db, ids):
        order = canonical(example_db)
        rdb = remap_database(example_db, order, {ids["D"]})
        assert all(t.items == [order.rank[ids["D"]]] for t in rdb)
        assert sorted(t.tu for t in rdb) == [12, 30, 36, 36]


class TestProject:
    def test_project_on_a(self, example_db, ids):
        root, r = example_root(example_db, ids)
        child = project_on(root, r["A"])
        # T1, T3, T4 contain A with prefix utilities 5/15/5; T4's suffix is
        # empty (E precedes A), so it is accounted then dropped.
        assert child.utility == 25
        assert child.support == 3
        assert [v.prefix_utility for v in child.views] == [15, 5]
        suffixes = [
            [(v.record.items[p], v.record.utilities[p])
             for p in range(v.offset, len(v.record.items))]
            for v in child.views
        ]
        assert suffixes == [[(r["D"], 30)], [(r["D"], 12)]]

    def test_absent_item(self, example_db, ids):
        root, r = example_root(example_db, ids)
        child = project_on(project_on(root, r["E"]), r["B"])
        grandchild = project_on(child, r["B"])
        assert grandchild.views == [] and grandchild.support == 0

    def test_projection_never_grows(self, example_db):
        rdb, _ = remapped_example(example_db)
        root = build_root(rdb)
        for item in range(example_db.item_count):
            child = project_on(root, item)
            assert len(child.views) <= len(root.views)


def scan_project(pdb, z):
    """Reference projection on z that finds z by a plain scan of each view's
    suffix: (utility, support, view fields)."""
    utility = support = 0
    views = []
    for v in pdb.views:
        rec = v.record
        suffix = rec.items[v.offset:]
        if z not in suffix:
            continue
        pos = v.offset + suffix.index(z)
        u = rec.utilities[pos]
        utility += v.prefix_utility + u
        support += v.weight
        if pos + 1 < len(rec.items):
            views.append((rec, pos + 1, v.prefix_utility + u,
                          v.positive_prefix + max(u, 0), v.weight))
    return utility, support, views


def fields(pdb):
    views = [(v.record, v.offset, v.prefix_utility, v.positive_prefix, v.weight)
             for v in pdb.views]
    return pdb.utility, pdb.support, views


def delivered_children(pdb, wanted, merging):
    """Build every child of ``pdb`` over ``wanted`` from one delivery, check
    each against ``project_on(pdb, z)`` and the scan reference, and return the
    non-empty children by item (merged when ``merging``)."""
    buckets = deliver(pdb, set(wanted))
    children = {}
    for z in wanted:
        expected = fields(project_on(pdb, z))
        assert scan_project(pdb, z) == expected
        if z not in buckets:
            assert expected[1] == 0
            continue
        child = project(pdb, z, buckets[z])
        assert fields(child) == expected
        children[z] = merge_identical(child) if merging else child
    return children


class TestDeliver:
    @pytest.mark.parametrize("merging", [False, True])
    @pytest.mark.parametrize("make_db", [
        example_database,
        lambda: generate_synthetic(60, 12, 5, (1, 9), 0.4, 3),
    ], ids=["example", "synthetic"])
    def test_children_equal_project(self, make_db, merging):
        db = make_db()
        order = build_total_order(compute_item_summaries(db))
        root = build_root(remap_database(db, order, db.positive_items | db.negative_items))
        if merging:
            root = merge_identical(root)
        ranks = range(len(order.items))
        depth2 = []
        for z, child in delivered_children(root, ranks, merging).items():
            depth2 += delivered_children(child, ranks[z + 1:], merging).values()
        assert depth2
        if merging:
            assert any(v.weight > 1 for c in depth2 for v in c.views)

    def test_unwanted_and_absent_items_get_no_bucket(self, example_db, ids):
        root, r = example_root(example_db, ids)
        child = project_on(root, r["A"])  # suffixes hold only D
        assert set(deliver(child, {r["B"], r["D"]})) == {r["D"]}
        assert deliver(child, {r["B"]}) == {}


class TestMerge:
    def test_identical_full_transactions(self, example_db, ids):
        root, r = example_root(example_db, ids)
        merged = merge_identical(root)
        assert len(root.views) - len(merged.views) == 1
        assert len(merged.views) == 5
        coalesced = [v for v in merged.views if v.weight == 2]
        assert len(coalesced) == 1
        rec = coalesced[0].record
        assert dict(zip(rec.items, rec.utilities)) == {
            r["B"]: -6, r["C"]: -8, r["D"]: 72,
        }

    def test_no_identical_suffixes_is_identity(self, ids):
        db = campaign_db(1, 0.0)
        # projecting on a fresh random db: merging never increases view count
        from topicmine import compute_item_summaries
        order = build_total_order(compute_item_summaries(db))
        root = build_root(remap_database(db, order, db.positive_items | db.negative_items))
        merged = merge_identical(root)
        assert len(merged.views) <= len(root.views)
        # weights are kept, so the views that vanished are the merged pairs
        assert sum(v.weight for v in merged.views) == len(root.views)

    def test_merged_prefix_utilities_sum(self, example_db, ids):
        root, r = example_root(example_db, ids)
        child = merge_identical(project_on(root, r["D"]))
        # T2 and T5 project to the identical {B, C} suffix
        assert [v.prefix_utility for v in child.views] == [72]
        assert child.views[0].weight == 2
