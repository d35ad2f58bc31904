import gc
import sys
import tracemalloc

import pytest
from helpers import (
    bucket,
    campaign_db,
    campaign_nodes,
    example_database,
    project_on,
    rank_map,
    view_fields,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from topicmine import compute_item_summaries, generate_synthetic, parse_spmf
from topicmine.bounds import compute_bounds, compute_rsu
from topicmine.database import ItemSummary, Transaction
from topicmine.ordering import (
    ProjectedDatabase,
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
    return remap_database(example_db, order), order


def example_root(example_db, ids):
    """The worked example's root projection, and the fixture's dense ids
    mapped to the ranks the projection holds."""
    rdb, order = remapped_example(example_db)
    rank = rank_map(order)
    return build_root(rdb), {name: rank[i] for name, i in ids.items()}


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


def as_id_pairs(rows, order):
    """Each root row's (item id, utility) pairs, as a sorted multiset."""
    return sorted(sorted((order.items[r], u) for r, u in zip(items, utilities))
                  for items, utilities in zip(*rows))


def kept_order(db, keep):
    """The order of the summaries of the items in ``keep`` alone, as the
    miner orders the items its root keeps."""
    return build_total_order([s for s in compute_item_summaries(db) if s.item in keep])


def reference_rows(db, order):
    """The root's rows by a plain stable sort on the reversed items, with
    the items ``order`` does not rank dropped."""
    rank = rank_map(order)
    rows = []
    for t in db.transactions:
        pairs = sorted((rank[i], u) for i, u in zip(t.items, t.utilities) if i in rank)
        if pairs:
            rows.append(tuple(zip(*pairs)))
    rows.sort(key=lambda row: row[0][::-1])
    return [items for items, _ in rows], [utilities for _, utilities in rows]


class TestRemap:
    def test_running_example_survives_whole(self, example_db):
        rdb, order = remapped_example(example_db)
        assert len(rdb[0]) == len(rdb[1]) == 6
        for items in rdb[0]:
            assert items == tuple(sorted(items))
        want = sorted(sorted(zip(t.items, t.utilities)) for t in example_db.transactions)
        assert as_id_pairs(rdb, order) == want

    def test_empty_keep_sets(self, example_db):
        order = kept_order(example_db, set())
        assert order.items == []
        rdb = remap_database(example_db, order)
        assert rdb == ([], [])

    def test_back_to_front_transaction_order(self):
        # {a,b} sorts below {a,b,c} which sorts below {a,b,e}
        db = parse_spmf("1 2 3:3:1 1 1\n1 2 5:4:1 1 2\n1 2:2:1 1")
        order = kept_order(db, db.positive_items)
        rdb = remap_database(db, order)
        lengths_and_labels = [sorted(db.labels[order.items[r]] for r in items)
                              for items in rdb[0]]
        assert lengths_and_labels == [[1, 2], [1, 2, 3], [1, 2, 5]]

    def test_dropped_items_recompute_tu(self, example_db, ids):
        order = kept_order(example_db, {ids["D"]})
        assert order.items == [ids["D"]]
        items, utilities = remap_database(example_db, order)
        assert all(row == (0,) for row in items)
        assert sorted(utilities) == [(12,), (30,), (36,), (36,)]

    @pytest.mark.parametrize("dropping", [False, True], ids=["keep-all", "keep-some"])
    def test_root_records(self, dropping):
        # every row is a source transaction restricted to ``keep``, renamed
        # to ascending ranks, held as two tuples of one size; the rows run
        # in backward-lexicographic order
        for seed in range(12):
            for nf in (0.0, 0.3, 0.6):
                db = campaign_db(seed, nf)
                keep = {i for i in range(db.item_count) if not (dropping and i % 3 == 1)}
                order = kept_order(db, keep)
                rdb = remap_database(db, order)
                assert len(rdb[0]) == len(rdb[1])
                for items, utilities in zip(*rdb):
                    assert all(a < b for a, b in zip(items, items[1:]))
                    assert type(items) is type(utilities) is tuple
                    assert len(items) == len(utilities)
                for before, after in zip(rdb[0], rdb[0][1:]):
                    assert before[::-1] <= after[::-1]
                restricted = ([(i, u) for i, u in zip(t.items, t.utilities) if i in keep]
                              for t in db.transactions)
                assert as_id_pairs(rdb, order) == sorted(pairs for pairs in restricted if pairs)
                assert rdb == reference_rows(db, order)

    def test_ties_keep_transaction_order(self):
        # rows with equal items tie on the sort key; they keep the order of
        # their transactions, which their utilities make visible, and fully
        # identical transactions stay side by side
        db = parse_spmf("1 2:3:1 2\n1 2 3:6:1 2 3\n1 2:5:4 1\n2 3:5:2 3\n1 2:4:2 2\n"
                        "1 2 3:6:1 2 3\n1 2 3:9:3 3 3\n2 3:5:2 3\n1 2:3:1 2")
        utilities = {
            # labels 3, 1 and 2 take ranks 0, 1 and 2
            frozenset(db.positive_items): [(3, 2), (3, 2), (1, 2), (4, 1), (2, 2), (1, 2),
                                           (3, 1, 2), (3, 1, 2), (3, 3, 3)],
            # without label 3, labels 1 and 2 take ranks 0 and 1, and every
            # row but two ties on ranks (0, 1)
            frozenset({0, 1}): [(2,), (2,), (1, 2), (1, 2), (4, 1), (2, 2), (1, 2), (3, 3),
                                (1, 2)],
        }
        for keep, want in utilities.items():
            order = kept_order(db, keep)
            rows = remap_database(db, order)
            assert rows == reference_rows(db, order)
            assert rows[1] == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_reference_sort(self, data):
        # the counting sort by rank gives the rows, row order, tie order and
        # tuple types of a plain stable sort, for any kept subset; repeated
        # transactions tie on the whole sort key
        n_items = data.draw(st.integers(1, 12), label="n_items")
        db = generate_synthetic(data.draw(st.integers(0, 60), label="n_transactions"), n_items,
                                data.draw(st.integers(1, n_items), label="avg_len"), (1, 9),
                                data.draw(st.sampled_from([0.0, 0.3, 0.6]), label="nf"),
                                data.draw(st.integers(0, 2**32 - 1), label="seed"))
        transactions = db.transactions
        if transactions:
            copies = data.draw(st.lists(st.integers(0, len(transactions) - 1), max_size=8),
                               label="duplicated")
            for j in copies:
                at = data.draw(st.integers(0, len(transactions)))
                transactions.insert(at, transactions[j])
        keep = data.draw(st.one_of(st.just(set()), st.just(set(range(n_items))),
                                   st.sets(st.integers(0, n_items - 1))), label="keep")
        order = kept_order(db, keep)
        rows = remap_database(db, order)
        assert rows == reference_rows(db, order)
        assert all(type(row) is tuple for column in rows for row in column)

    @pytest.mark.parametrize("shape, keep_two_thirds", [
        ((300, 6, (1, 9), 0.6), False),
        ((40, 10, (1, 99), 0.0), False),
        ((300, 6, (1, 9), 0.6), True),
        ((1000, 6, (1, 9), 0.6), False),
    ], ids=["signed-sparse", "positive-dense", "signed-sparse-keep-two-thirds", "thousand-items"])
    def test_memory_is_the_rows(self, shape, keep_two_thirds):
        # the build leaves nothing behind but its rows, and never holds
        # much more than one copy of them; a batch of short tuples that
        # died together would stay traced on the interpreter's free lists,
        # which a full collection empties first; the occurrence lists of
        # the items a partial order drops must not last into the walk
        n_items, avg_len, utility_range, negative_fraction = shape
        db = generate_synthetic(2000, n_items, avg_len, utility_range, negative_fraction, 3)
        summaries = compute_item_summaries(db)
        if keep_two_thirds:
            summaries = [s for s in summaries if s.item % 3 != 1]
        order = build_total_order(summaries)
        started = not tracemalloc.is_tracing()
        gc.collect()
        if started:
            tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            rows = remap_database(db, order)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        size = sum(sys.getsizeof(column) + sum(map(sys.getsizeof, column)) for column in rows)
        assert current - base <= 1.10 * size
        assert peak - base <= 1.6 * size

    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    @pytest.mark.parametrize("dropping", [False, True], ids=["keep-all", "keep-some"])
    def test_root_rsu_sums_positive_tails(self, dropping, merged):
        # the root's RSU of a positive rank z is the sum, over the views
        # holding z, of the positive utilities from z to the view's end
        for seed in range(12):
            for nf in (0.0, 0.3, 0.6):
                db = campaign_db(seed, nf)
                keep = {i for i in range(db.item_count) if not (dropping and i % 3 == 1)}
                order = kept_order(db, keep)
                cutoff = order.positive_cutoff
                root = build_root(remap_database(db, order))
                if merged:
                    root = merge_identical(root)
                expected = [0] * cutoff
                for items, utilities in zip(root.items, root.utilities):
                    for p, z in enumerate(items):
                        if z < cutoff:
                            expected[z] += sum(u for u in utilities[p:] if u > 0)
                buckets = deliver(root, range(cutoff), len(order.items))
                assert compute_rsu(root, buckets, cutoff) == expected


class TestProject:
    def test_project_on_a(self, example_db, ids):
        root, r = example_root(example_db, ids)
        child = project_on(root, r["A"])
        # T1, T3, T4 contain A with prefix utilities 5/15/5; T4's suffix is
        # empty (E precedes A), so it is counted then dropped.
        cutoff = canonical(example_db).positive_cutoff
        assert compute_bounds(root, bucket(root, r["A"]), cutoff)[0] == 25
        assert len(bucket(root, r["A"])) // 2 == 3
        assert [prefix for _, _, _, prefix, _ in view_fields(child)] == [15, 5]
        suffixes = [
            [(items[p], utilities[p]) for p in range(offset, len(items))]
            for items, utilities, offset, _, _ in view_fields(child)
        ]
        assert suffixes == [[(r["D"], 30)], [(r["D"], 12)]]

    def test_absent_item(self, example_db, ids):
        root, r = example_root(example_db, ids)
        child = project_on(project_on(root, r["E"]), r["B"])
        grandchild = project_on(child, r["B"])
        assert bucket(child, r["B"]) == () and grandchild.items == []

    def test_projection_never_grows(self, example_db):
        rdb, _ = remapped_example(example_db)
        root = build_root(rdb)
        for item in range(example_db.item_count):
            child = project_on(root, item)
            assert len(child.items) <= len(root.items)


def scan_project(pdb, z):
    """Reference projection on z that finds z by a plain scan of each view's
    suffix: (utility, views holding z, view fields)."""
    utility = holding = 0
    views = []
    for items, utilities, offset, prefix, pos_prefix in view_fields(pdb):
        suffix = items[offset:]
        if z not in suffix:
            continue
        pos = offset + suffix.index(z)
        u = utilities[pos]
        utility += prefix + u
        holding += 1
        if pos + 1 < len(items):
            views.append((items, utilities, pos + 1, prefix + u, pos_prefix + max(u, 0)))
    return utility, holding, views


def delivered_children(pdb, wanted, n, merging, cutoff):
    """Build every child of ``pdb`` over ``wanted`` from one delivery, check
    each against ``project_on(pdb, z)`` and the scan reference (its utility
    against the bucket scan), and return the non-empty children by item
    (merged when ``merging``); ``n`` is the number of ranks."""
    buckets = deliver(pdb, wanted, n)
    children = {}
    for z in wanted:
        expected = list(view_fields(project_on(pdb, z)))
        utility, holding, scanned = scan_project(pdb, z)
        assert scanned == expected
        assert len(buckets.get(z, ())) == 2 * holding
        if z not in buckets:
            assert expected == [] and utility == 0
            continue
        assert compute_bounds(pdb, buckets[z], cutoff)[0] == utility
        child = project(pdb, buckets[z])
        assert list(view_fields(child)) == expected
        children[z] = merge_identical(child) if merging else child
    return children


def reference_deliver(pdb, wanted):
    """Occurrence delivery by a set test and a dict lookup per position:
    the reference for :func:`topicmine.ordering.deliver`."""
    wanted = set(wanted)
    buckets = {}
    for i, (items, offset) in enumerate(zip(pdb.items, pdb.offsets)):
        for p in range(offset, len(items)):
            if items[p] in wanted:
                buckets.setdefault(items[p], []).extend((i, p))
    return buckets


class TestDeliver:
    @pytest.mark.parametrize("merging", [False, True])
    @pytest.mark.parametrize("make_db", [
        example_database,
        lambda: generate_synthetic(60, 12, 5, (1, 9), 0.4, 3),
    ], ids=["example", "synthetic"])
    def test_children_equal_project(self, make_db, merging):
        db = make_db()
        order = build_total_order(compute_item_summaries(db))
        plain = root = build_root(remap_database(db, order))
        if merging:
            root = merge_identical(root)
        ranks = range(len(order.items))
        depth2 = []
        cutoff = order.positive_cutoff
        n = len(ranks)
        for z, child in delivered_children(root, ranks, n, merging, cutoff).items():
            depth2 += delivered_children(child, ranks[z + 1:], n, merging, cutoff).values()
        assert depth2
        if merging:
            # some view at depth 2 reads tuples that a fold made
            assert any(new_views(c, plain) for c in depth2)

    def test_unwanted_and_absent_items_get_no_bucket(self, example_db, ids):
        root, r = example_root(example_db, ids)
        child = project_on(root, r["A"])  # suffixes hold only D
        n = example_db.item_count
        assert set(deliver(child, (r["B"], r["D"]), n)) == {r["D"]}
        assert deliver(child, (r["B"],), n) == {}

    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    def test_negative_first_wanted_equals_set_reference(self, merged):
        # wanted in search order, as a positive child's list gives it:
        # negative ranks first, then positive ones, every third rank left
        # out. Every bucket, its occurrence order included, equals the
        # reference's, and only wanted ranks that occur get one
        absent = unwanted = mixed = 0
        for db, cutoff, prefix, pdb in campaign_nodes(merged):
            n = db.item_count
            after = range(prefix[-1] + 1 if prefix else 0, n)
            wanted = ([w for w in after if w >= cutoff and w % 3 != 1]
                      + [w for w in after if w < cutoff and w % 3 != 1])
            buckets = deliver(pdb, wanted, n)
            assert buckets == reference_deliver(pdb, wanted)
            occurring = {items[p] for items, offset in zip(pdb.items, pdb.offsets)
                         for p in range(offset, len(items))}
            assert set(buckets) == occurring & set(wanted)
            absent += len(set(wanted) - occurring)
            unwanted += len(occurring - set(wanted))
            if wanted and wanted[0] >= cutoff > wanted[-1]:
                mixed += 1
        assert absent and unwanted and mixed


def reference_merge(pdb):
    """Each view of ``pdb`` merged by a plain grouping of neighbouring views
    with equal suffixes: ``(suffix items, suffix utilities, prefix, positive
    prefix)``, summed over each group, in view order."""
    groups = []
    for items, utilities, offset, prefix, pos_prefix in view_fields(pdb):
        suffix = tuple(items[offset:])
        if groups and groups[-1][0] == suffix:
            groups[-1][1].append((utilities[offset:], prefix, pos_prefix))
        else:
            groups.append((suffix, [(utilities[offset:], prefix, pos_prefix)]))
    return [(suffix,
             tuple(sum(column) for column in zip(*(utils for utils, *_ in members))),
             sum(m[1] for m in members), sum(m[2] for m in members))
            for suffix, members in groups]


def merged_views(pdb):
    return [(tuple(items[offset:]), tuple(utilities[offset:]), prefix, pos_prefix)
            for items, utilities, offset, prefix, pos_prefix in view_fields(pdb)]


def new_views(merged, pdb):
    """Indices of the views of ``merged`` whose utility tuple is not one of
    ``pdb``'s: the views that a fold made."""
    return [j for j, utilities in enumerate(merged.utilities)
            if not any(utilities is old for old in pdb.utilities)]


class TestMerge:
    def test_identical_full_transactions(self, example_db, ids):
        root, r = example_root(example_db, ids)
        merged = merge_identical(root)
        assert len(root.items) - len(merged.items) == 1
        assert len(merged.items) == 5
        coalesced = new_views(merged, root)
        assert len(coalesced) == 1
        j = coalesced[0]
        assert dict(zip(merged.items[j], merged.utilities[j])) == {
            r["B"]: -6, r["C"]: -8, r["D"]: 72,
        }

    def test_no_identical_suffixes_is_identity(self):
        # distinct transactions, some of equal length: nothing to coalesce,
        # so merging hands back the projection itself
        db = parse_spmf("1 2:3:1 2\n1 3:4:1 3\n2 3:5:2 3\n1 2 3:6:1 2 3\n4:4:4")
        order = build_total_order(compute_item_summaries(db))
        root = build_root(remap_database(db, order))
        assert merge_identical(root) is root
        assert len(root.items) == len(db.transactions)

    def test_merged_prefix_utilities_sum(self, example_db, ids):
        root, r = example_root(example_db, ids)
        child = merge_identical(project_on(root, r["D"]))
        # T2 and T5 project to the identical {B, C} suffix
        assert [prefix for _, _, _, prefix, _ in view_fields(child)] == [72]

    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    def test_project_keeps_records_and_merge_counts_folds(self, merged):
        # each view of a plain projection keeps its parent view's two
        # tuples; merging it hands back the projection itself when nothing
        # folds
        folded = unchanged = 0
        for db, _, prefix, pdb in campaign_nodes(merged):
            n = db.item_count
            last = prefix[-1] if prefix else -1
            for z, occurrences in deliver(pdb, range(last + 1, n), n).items():
                plain = project(pdb, occurrences)
                pairs = iter(occurrences)
                kept = [i for i, p in zip(pairs, pairs) if p + 1 < len(pdb.items[i])]
                assert len(plain.items) == len(kept)
                for j, i in enumerate(kept):
                    assert plain.items[j] is pdb.items[i]
                    assert plain.utilities[j] is pdb.utilities[i]
                after = merge_identical(plain)
                dropped = len(plain.items) - len(after.items)
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
        root = build_root(remap_database(db, order))
        suffixes = root.items
        folds = [i for i in range(1, len(suffixes)) if suffixes[i] == suffixes[i - 1]]
        assert folds == [4, 8, 9, 11]
        merged = merge_identical(root)
        assert merged_views(merged) == reference_merge(root)
        assert len(root.items) - len(merged.items) == 4
        # the three folded groups are new views; each of the five views
        # that folds nothing keeps its parent's tuples
        assert len(new_views(merged, root)) == 3

    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    def test_children_merge_like_reference(self, merged):
        # merging every child of a node of depth <= 1 gives the views of a
        # plain reference merge, and leaves every view of the node, whose
        # tuples its children share, as it was
        for db, _, prefix, pdb in campaign_nodes(merged):
            if len(prefix) > 1:
                continue
            snapshot = list(view_fields(pdb))
            n = db.item_count
            last = prefix[-1] if prefix else -1
            for z, occurrences in deliver(pdb, range(last + 1, n), n).items():
                child = project(pdb, occurrences)
                assert merged_views(merge_identical(child)) == reference_merge(child)
            assert list(view_fields(pdb)) == snapshot


class TestLayout:
    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    def test_parallel_lists(self, merged):
        # at every node of depth <= 2 the five view lists have one entry per
        # view, a view's two tuples are of one size, and every kept view has
        # a non-empty suffix; the tracer's ``views`` and ``support`` read
        # the item list
        for db, _, prefix, pdb in campaign_nodes(merged):
            if not prefix and not merged:
                assert len(pdb.items) == len(db.transactions)
            n = len(pdb.items)
            assert len(pdb.utilities) == len(pdb.offsets) == n
            assert len(pdb.prefixes) == len(pdb.pos_prefixes) == n
            assert pdb.views is pdb.items and pdb.support == n
            for items, utilities, offset, _, _ in view_fields(pdb):
                assert len(items) == len(utilities)
                assert 0 <= offset < len(items)

    def test_slotted_instances(self):
        # one instance dict per transaction, item summary or projection
        # would cost more than the fields it holds
        assert not hasattr(Transaction(0, [0, 1], [2, 3], 5), "__dict__")
        assert not hasattr(ItemSummary(0, 5, 5, 5, True), "__dict__")
        assert not hasattr(ProjectedDatabase([], [], [], [], []), "__dict__")
