import pytest
from helpers import (
    bucket,
    campaign_db,
    campaign_nodes,
    example_database,
    project_on,
    view_fields,
)

from topicmine import compute_item_summaries, generate_synthetic, parse_spmf
from topicmine.bounds import compute_bounds, compute_rsu
from topicmine.database import Transaction
from topicmine.ordering import (
    Record,
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


def as_id_pairs(records, order):
    """Each record's (item id, utility) pairs, as a sorted multiset."""
    return sorted(sorted((order.items[r], u) for r, u in zip(rec.items, rec.utilities))
                  for rec in records)


class TestRemap:
    def test_running_example_survives_whole(self, example_db):
        rdb, order = remapped_example(example_db)
        assert len(rdb) == 6
        for rec in rdb:
            assert rec.items == tuple(sorted(rec.items))
        want = sorted(sorted(zip(t.items, t.utilities)) for t in example_db.transactions)
        assert as_id_pairs(rdb, order) == want

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
        assert all(rec.items == (order.rank[ids["D"]],) for rec in rdb)
        assert sorted(rec.utilities for rec in rdb) == [(12,), (30,), (36,), (36,)]

    @pytest.mark.parametrize("dropping", [False, True], ids=["keep-all", "keep-some"])
    def test_root_records(self, dropping):
        # every record is a source transaction restricted to ``keep``, renamed
        # to ascending ranks, held as two tuples of one size, with weight 1;
        # the records run in backward-lexicographic order
        for seed in range(12):
            for nf in (0.0, 0.3, 0.6):
                db = campaign_db(seed, nf)
                order = build_total_order(compute_item_summaries(db))
                keep = {i for i in range(db.item_count) if not (dropping and i % 3 == 1)}
                rdb = remap_database(db, order, keep)
                for rec in rdb:
                    assert all(a < b for a, b in zip(rec.items, rec.items[1:]))
                    assert type(rec.items) is type(rec.utilities) is tuple
                    assert len(rec.items) == len(rec.utilities)
                    assert rec.weight == 1
                for before, after in zip(rdb, rdb[1:]):
                    assert before.items[::-1] <= after.items[::-1]
                restricted = ([(i, u) for i, u in zip(t.items, t.utilities) if i in keep]
                              for t in db.transactions)
                assert as_id_pairs(rdb, order) == sorted(pairs for pairs in restricted if pairs)

    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    @pytest.mark.parametrize("dropping", [False, True], ids=["keep-all", "keep-some"])
    def test_root_rsu_sums_positive_tails(self, dropping, merged):
        # the root's RSU of a positive rank z is the sum, over the views
        # holding z, of the positive utilities from z to the view's end
        for seed in range(12):
            for nf in (0.0, 0.3, 0.6):
                db = campaign_db(seed, nf)
                order = build_total_order(compute_item_summaries(db))
                cutoff = order.positive_cutoff
                keep = {i for i in range(db.item_count) if not (dropping and i % 3 == 1)}
                root = build_root(remap_database(db, order, keep))
                if merged:
                    root = merge_identical(root)
                expected = [0] * cutoff
                for rec in root.records:
                    for p, z in enumerate(rec.items):
                        if z < cutoff:
                            expected[z] += sum(u for u in rec.utilities[p:] if u > 0)
                buckets = deliver(root, set(range(cutoff)))
                assert compute_rsu(root, buckets, cutoff) == expected


class TestProject:
    def test_project_on_a(self, example_db, ids):
        root, r = example_root(example_db, ids)
        child = project_on(root, r["A"])
        # T1, T3, T4 contain A with prefix utilities 5/15/5; T4's suffix is
        # empty (E precedes A), so it is counted then dropped.
        cutoff = canonical(example_db).positive_cutoff
        assert compute_bounds(root, bucket(root, r["A"]), cutoff)[0] == 25
        assert child.support == 3
        assert [prefix for _, _, prefix, _, _ in view_fields(child)] == [15, 5]
        suffixes = [
            [(rec.items[p], rec.utilities[p]) for p in range(offset, len(rec.items))]
            for rec, offset, _, _, _ in view_fields(child)
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
    for rec, offset, prefix, pos_prefix, weight in view_fields(pdb):
        suffix = rec.items[offset:]
        if z not in suffix:
            continue
        pos = offset + suffix.index(z)
        u = rec.utilities[pos]
        utility += prefix + u
        support += weight
        if pos + 1 < len(rec.items):
            views.append((rec, pos + 1, prefix + u, pos_prefix + max(u, 0), weight))
    return utility, support, views


def fields(pdb):
    return pdb.support, list(view_fields(pdb))


def delivered_children(pdb, wanted, merging, cutoff):
    """Build every child of ``pdb`` over ``wanted`` from one delivery, check
    each against ``project_on(pdb, z)`` and the scan reference (its utility
    against the bucket scan), and return the non-empty children by item
    (merged when ``merging``)."""
    buckets = deliver(pdb, set(wanted))
    children = {}
    for z in wanted:
        expected = fields(project_on(pdb, z))
        utility, *scanned = scan_project(pdb, z)
        assert tuple(scanned) == expected
        if z not in buckets:
            assert expected[0] == utility == 0
            continue
        assert compute_bounds(pdb, buckets[z], cutoff)[0] == utility
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
        cutoff = order.positive_cutoff
        for z, child in delivered_children(root, ranks, merging, cutoff).items():
            depth2 += delivered_children(child, ranks[z + 1:], merging, cutoff).values()
        assert depth2
        if merging:
            assert any(rec.weight > 1 for c in depth2 for rec in c.records)

    def test_unwanted_and_absent_items_get_no_bucket(self, example_db, ids):
        root, r = example_root(example_db, ids)
        child = project_on(root, r["A"])  # suffixes hold only D
        assert set(deliver(child, {r["B"], r["D"]})) == {r["D"]}
        assert deliver(child, {r["B"]}) == {}


def reference_merge(pdb):
    """Each view of ``pdb`` merged by a plain grouping of neighbouring views
    with equal suffixes: ``(suffix items, suffix utilities, prefix, positive
    prefix, weight)``, summed over each group, in view order."""
    groups = []
    for rec, offset, prefix, pos_prefix, weight in view_fields(pdb):
        suffix = tuple(rec.items[offset:])
        if groups and groups[-1][0] == suffix:
            groups[-1][1].append((rec.utilities[offset:], prefix, pos_prefix, weight))
        else:
            groups.append((suffix, [(rec.utilities[offset:], prefix, pos_prefix, weight)]))
    return [(suffix,
             tuple(sum(column) for column in zip(*(utils for utils, *_ in members))),
             sum(m[1] for m in members), sum(m[2] for m in members),
             sum(m[3] for m in members))
            for suffix, members in groups]


def merged_views(pdb):
    return [(tuple(rec.items[offset:]), tuple(rec.utilities[offset:]), prefix, pos_prefix,
             weight)
            for rec, offset, prefix, pos_prefix, weight in view_fields(pdb)]


class TestMerge:
    def test_identical_full_transactions(self, example_db, ids):
        root, r = example_root(example_db, ids)
        merged = merge_identical(root)
        assert len(root.views) - len(merged.views) == 1
        assert len(merged.views) == 5
        coalesced = [rec for rec in merged.records if rec.weight == 2]
        assert len(coalesced) == 1
        rec = coalesced[0]
        assert dict(zip(rec.items, rec.utilities)) == {
            r["B"]: -6, r["C"]: -8, r["D"]: 72,
        }

    def test_no_identical_suffixes_is_identity(self):
        # distinct transactions, some of equal length: nothing to coalesce,
        # so merging hands back the projection itself
        db = parse_spmf("1 2:3:1 2\n1 3:4:1 3\n2 3:5:2 3\n1 2 3:6:1 2 3\n4:4:4")
        order = build_total_order(compute_item_summaries(db))
        root = build_root(remap_database(db, order, db.positive_items | db.negative_items))
        assert merge_identical(root) is root
        assert sum(rec.weight for rec in root.records) == len(db.transactions)

    def test_merged_prefix_utilities_sum(self, example_db, ids):
        root, r = example_root(example_db, ids)
        child = merge_identical(project_on(root, r["D"]))
        # T2 and T5 project to the identical {B, C} suffix
        assert [(prefix, weight) for _, _, prefix, _, weight in view_fields(child)] == [(72, 2)]

    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    def test_project_keeps_records_and_merge_counts_folds(self, merged):
        # a plain projection keeps its parent's records; merging it hands
        # back the projection itself when nothing folds
        folded = unchanged = 0
        for db, _, prefix, pdb in campaign_nodes(merged):
            last = prefix[-1] if prefix else -1
            parent_records = {id(rec) for rec in pdb.records}
            for z, occurrences in deliver(pdb, set(range(last + 1, db.item_count))).items():
                plain = project(pdb, z, occurrences)
                assert {id(rec) for rec in plain.records} <= parent_records
                after = merge_identical(plain)
                dropped = len(plain.records) - len(after.records)
                if not dropped:
                    assert after is plain
                    unchanged += 1
                folded += dropped
        assert folded > 0 and unchanged > 0

    def test_late_first_fold_equals_reference(self):
        # the first identical pair comes after several views that fold
        # nothing, and more such views sit between the two folded groups
        db = parse_spmf("1 2:3:1 2\n1 3:4:1 3\n2 3:5:2 3\n1 2 3:6:1 2 3\n"
                        "1 2 3:6:1 2 3\n1 2 3:6:1 2 3\n2 4:6:2 4\n1 4:5:1 4\n1 4:5:1 4\n"
                        "3 4:7:3 4\n1 2 3 4:10:1 2 3 4\n1 2 3 4:10:1 2 3 4")
        order = build_total_order(compute_item_summaries(db))
        root = build_root(remap_database(db, order, db.positive_items))
        suffixes = [rec.items for rec in root.records]
        folds = [i for i in range(1, len(suffixes)) if suffixes[i] == suffixes[i - 1]]
        assert folds == [4, 8, 9, 11]
        merged = merge_identical(root)
        assert merged_views(merged) == reference_merge(root)
        assert len(root.records) - len(merged.records) == 4
        assert merged.support == root.support
        # a view that folds nothing keeps its parent's record
        kept = [rec for rec in merged.records if rec.weight == 1]
        assert all(any(rec is old for old in root.records) for rec in kept)

    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    def test_children_merge_like_reference(self, merged):
        # merging every child of a node of depth <= 1 gives the views of a
        # plain reference merge, and leaves every record of the node, which
        # its children share, as it was
        for db, _, prefix, pdb in campaign_nodes(merged):
            if len(prefix) > 1:
                continue
            snapshot = [(rec, tuple(rec.items), tuple(rec.utilities), rec.weight)
                        for rec in pdb.records]
            last = prefix[-1] if prefix else -1
            for z, occurrences in deliver(pdb, set(range(last + 1, db.item_count))).items():
                child = project(pdb, z, occurrences)
                assert merged_views(merge_identical(child)) == reference_merge(child)
            assert [(rec, tuple(rec.items), tuple(rec.utilities), rec.weight)
                    for rec in pdb.records] == snapshot


class TestLayout:
    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    def test_parallel_lists(self, merged):
        # at every node of depth <= 2 the four view lists have one entry per
        # view, and every kept view has a non-empty suffix
        for db, _, prefix, pdb in campaign_nodes(merged):
            if not prefix:
                assert sum(rec.weight for rec in pdb.records) == len(db.transactions)
            n = len(pdb.records)
            assert len(pdb.offsets) == len(pdb.prefixes) == len(pdb.pos_prefixes) == n
            assert len(pdb.views) == n
            for rec, offset, _, _, _ in view_fields(pdb):
                assert 0 <= offset < len(rec.items)

    def test_slotted_instances(self):
        # one instance dict per transaction or record would cost more than
        # the fields it holds
        t = Transaction(0, [0, 1], [2, 3], 5)
        assert not hasattr(t, "__dict__")
        assert not hasattr(Record(t.items, t.utilities), "__dict__")
