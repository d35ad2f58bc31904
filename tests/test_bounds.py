import pytest
from helpers import (
    bucket,
    campaign_buckets,
    campaign_db,
    campaign_nodes,
    check_bound_soundness,
    example_database,
    exact_utility,
    project_on,
    rank_map,
    remap,
    reference_bounds,
    reference_negative_caps,
    view_fields,
)

from topicmine import compute_item_summaries, parse_spmf
from topicmine.bounds import (
    compute_bounds,
    compute_negative_caps,
    compute_pair_rows,
    compute_riu,
    compute_rsu,
)
from topicmine.oracle import utility_of
from topicmine.ordering import (
    build_root,
    build_total_order,
    deliver,
    merge_identical,
    project,
)


def rooted(db, ids=None):
    """The root projection of ``db``, its first negative rank and, when given
    the fixture's dense ids, the same names mapped to the ranks the
    projection holds."""
    order = build_total_order(compute_item_summaries(db))
    root = build_root(remap(db, order))
    rank = rank_map(order)
    ranks = {name: rank[i] for name, i in (ids or {}).items()}
    return root, ranks, order.positive_cutoff


class TestRlu:
    def test_root_rlu_is_rtwu_for_positives(self, example_db, ids):
        # the root has no parent bucket: the miner filters its positive
        # items by their RTWU, which is their RLU at the root
        root, r, cutoff = rooted(example_db, ids)
        summaries = compute_item_summaries(example_db)
        rtwu = {r[name]: summaries[i].rtwu for name, i in ids.items() if r[name] < cutoff}
        assert rtwu == {r["E"]: 62, r["A"]: 87, r["D"]: 144}
        rlu, _ = reference_bounds(root)
        assert {z: rlu[z] for z in range(cutoff)} == rtwu

    def test_empty_projection(self, example_db, ids):
        root, r, cutoff = rooted(example_db, ids)
        empty = project_on(project_on(root, r["E"]), r["D"])
        assert bucket(empty, r["D"]) == ()
        for subtree in (False, True):
            assert compute_bounds(empty, (), cutoff, subtree) == (0, [0] * cutoff)

    def test_after_projecting_a(self, example_db, ids):
        root, r, cutoff = rooted(example_db, ids)
        utility, rlu = compute_bounds(root, bucket(root, r["A"]), cutoff, False)
        assert utility == 25  # U({A}) = 5 + 15 + 5
        assert rlu[r["D"]] == 62  # (5+12) + (15+30)


class TestRsu:
    def test_after_projecting_a(self, example_db, ids):
        root, r, cutoff = rooted(example_db, ids)
        _, rsu = compute_bounds(root, bucket(root, r["A"]), cutoff)
        assert rsu[r["D"]] == 62

    def test_negative_item_rsu_is_exact(self, example_db, ids):
        root, r, cutoff = rooted(example_db, ids)
        utility, rsu = compute_bounds(root, bucket(root, r["D"]), cutoff)
        # negative items get no RSU: it would collapse to the exact utility
        # of the one-item extension (no positive item follows B or C), which
        # either scan of the item's bucket already reads
        assert utility == 114
        assert len(rsu) == cutoff <= min(r["B"], r["C"])
        d = project_on(root, r["D"])
        n = example_db.item_count
        assert compute_bounds(d, bucket(d, r["B"]), cutoff)[0] == 66  # U({B, D})
        assert compute_negative_caps(d, bucket(d, r["C"]), cutoff, n)[0] == 64  # U({C, D})
        assert utility_of(example_db, [ids["B"], ids["D"]]) == 66
        assert utility_of(example_db, [ids["C"], ids["D"]]) == 64

    def test_rlu_dominates_rsu_for_positives(self, example_db):
        root, _, cutoff = rooted(example_db)
        for item in range(example_db.item_count):
            occurrences = bucket(root, item)
            _, rlu = compute_bounds(root, occurrences, cutoff, False)
            _, rsu = compute_bounds(root, occurrences, cutoff)
            for z in range(cutoff):
                assert rlu[z] >= rsu[z]


class TestArrays:
    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    def test_scans_match_dict_reference(self, merged):
        # each bucket scan fills only the ranks of its own sign with the dict
        # reference's values on the child the search would build, and a
        # bound is positive exactly where its item occurs in that child:
        # always for RLU/RSU, and for the caps under a prefix that holds a
        # positive item, the only place the search reads them
        nonzero_caps = shrunk = roots = 0
        for db, cutoff, prefix, pdb in campaign_nodes(merged):
            if not prefix:
                shrunk += len(pdb.items) < len(db.transactions)
                _, ref_rsu = reference_bounds(pdb)
                buckets = deliver(pdb, range(cutoff), db.item_count)
                assert compute_rsu(pdb, buckets, cutoff) == [
                    ref_rsu.get(z, 0) for z in range(cutoff)]
                roots += 1
        for db, cutoff, prefix, pdb, z, occurrences in campaign_buckets(merged):
            n = db.item_count
            positives, negatives = range(cutoff), range(cutoff, n)
            child = project(pdb, occurrences)
            if merged:
                child = merge_identical(child)
            _, rlu = compute_bounds(pdb, occurrences, cutoff, False)
            _, rsu = compute_bounds(pdb, occurrences, cutoff)
            _, caps = compute_negative_caps(pdb, occurrences, cutoff, n)
            ref_rlu, ref_rsu = reference_bounds(child)
            ref_caps = reference_negative_caps(child)
            assert rlu == [ref_rlu.get(w, 0) for w in positives]
            assert rsu == [ref_rsu.get(w, 0) for w in positives]
            assert caps == [0] * cutoff + [ref_caps.get(w, 0) for w in negatives]
            occurs = {it for items, _, off, *_ in view_fields(child) for it in items[off:]}
            assert {w for w in positives if rlu[w] > 0} == occurs & set(positives)
            assert {w for w in positives if rsu[w] > 0} == occurs & set(positives)
            if (prefix + (z,))[0] < cutoff:
                assert {w for w in negatives if caps[w] > 0} == occurs & set(negatives)
                nonzero_caps += any(caps)
        assert roots == 36
        assert nonzero_caps > 0
        assert (shrunk > 0) == merged

    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    def test_bucket_scans_equal_built_child(self, merged):
        # the bucket scans give the exact utility of the child's itemset and
        # the bounds of the child built from the same bucket, whether that
        # child merges its views or not: every quantity is a sum of per-view
        # terms, which merging adds up
        folded = negative = 0
        for db, cutoff, prefix, pdb, z, occurrences in campaign_buckets(merged):
            n = db.item_count
            exact = exact_utility(db, prefix + (z,))
            plain = project(pdb, occurrences)
            for child in (plain, merge_identical(plain)):
                folded += len(plain.items) - len(child.items)
                ref_rlu, ref_rsu = reference_bounds(child)
                ref_caps = reference_negative_caps(child)
                for subtree, ref in ((False, ref_rlu), (True, ref_rsu)):
                    assert compute_bounds(pdb, occurrences, cutoff, subtree) == (
                        exact, [ref.get(w, 0) for w in range(cutoff)])
                assert compute_negative_caps(pdb, occurrences, cutoff, n) == (
                    exact, [0] * cutoff + [ref_caps.get(w, 0) for w in range(cutoff, n)])
            negative += z >= cutoff
        assert folded > 0 and negative > 0

    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    def test_one_bound_decides_each_filter(self, merged):
        # RSU <= RLU in every view, so for any threshold mu >= 1 the filter
        # with subtree pruning (RLU >= mu and RSU >= mu) keeps the items with
        # RSU >= mu, and the one without it (RLU >= mu and the item occurs,
        # RSU > 0) keeps the items with RLU >= mu
        checked = 0
        for _, cutoff, _, pdb, _, occurrences in campaign_buckets(merged):
            _, rlu = compute_bounds(pdb, occurrences, cutoff, False)
            _, rsu = compute_bounds(pdb, occurrences, cutoff)
            positives = range(cutoff)
            for mu in (set(rlu) | set(rsu)) - {0}:
                both = {w for w in positives if rlu[w] >= mu and rsu[w] >= mu}
                assert {w for w in positives if rsu[w] >= mu} == both
                local = {w for w in positives if rlu[w] >= mu and rsu[w] > 0}
                assert {w for w in positives if rlu[w] >= mu} == local
                checked += 1
        assert checked > 1000


def positive_scans(merged):
    """``(cutoff, node, z, occurrences, rlu, rsu)`` for every positive z of
    :func:`campaign_buckets`, whose prefix is all positive as in the
    search's bound scans, with z's RLU and RSU in the node."""
    for _, cutoff, _, pdb, z, occurrences in campaign_buckets(merged):
        if z < cutoff:
            rlu, rsu = reference_bounds(pdb)
            yield cutoff, pdb, z, occurrences, rlu[z], rsu[z]


class TestEarlyStop:
    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    def test_view_totals_sum_to_the_node_rsu(self, merged):
        # a view's total is the child's prefix utility there plus the
        # positive utilities after it: the most it adds to any bound, RSU
        # or RLU. The totals of z's bucket sum to the node's
        # RSU of z, which the search passes at the root (compute_rsu, which
        # TestArrays checks against the reference), and so to at most its
        # RLU, which the search passes below the root without subtree
        # pruning; the stop counts down from either
        checked = 0
        for _, pdb, _, occurrences, rlu, rsu in positive_scans(merged):
            pairs = iter(occurrences)
            assert rlu >= rsu == sum(
                pdb.prefixes[i] + sum(u for u in pdb.utilities[i][p:] if u > 0)
                for i, p in zip(pairs, pairs))
            checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    def test_stopped_scans_keep_no_extension(self, merged):
        # an RSU or RLU scan given the node's RSU or RLU of z and a
        # threshold mu either returns the full list, or stops: then it
        # still returns the exact utility, each of its bounds is at most the
        # full one, and every entry of the full list is below mu, the floor
        # the search keeps an extension at, so the stop loses no extension
        stopped = {True: 0, False: 0}
        full = {True: 0, False: 0}
        for cutoff, pdb, z, occurrences, rlu, rsu in positive_scans(merged):
            for subtree in (True, False):
                utility, exact = compute_bounds(pdb, occurrences, cutoff, subtree)
                top = max(exact)
                for node_bound in {rsu, rlu}:
                    for mu in {1, top, top + 1, (top + node_bound) // 2 + 1, node_bound + 1}:
                        got, bound = compute_bounds(pdb, occurrences, cutoff, subtree,
                                                    node_bound, mu)
                        assert got == utility
                        if bound == exact:
                            full[subtree] += 1
                        else:
                            stopped[subtree] += 1
                            assert top < mu
                            assert all(b <= e for b, e in zip(bound, exact))
        for subtree in (True, False):
            assert stopped[subtree] > 100 and full[subtree] > stopped[subtree]

    def test_default_call_never_stops(self):
        # without a threshold either scan reads every view, even given the
        # node bound that would stop it, and equals the built child's
        # reference
        for cutoff, pdb, _, occurrences, rlu, rsu in positive_scans(False):
            ref_rlu, ref_rsu = reference_bounds(project(pdb, occurrences))
            for subtree, node_bound, ref in ((True, rsu, ref_rsu), (False, rlu, ref_rlu)):
                scan = compute_bounds(pdb, occurrences, cutoff, subtree)
                assert scan[1] == [ref.get(w, 0) for w in range(cutoff)]
                assert compute_bounds(pdb, occurrences, cutoff, subtree, node_bound) == scan

    def test_stop_fires_on_a_dense_bucket(self):
        # ten identical views of 1 2 3 at the root: item 1's bucket holds
        # more views than there are positive ranks, so the stop is armed.
        # Each view's total is 6 and item 1's RSU is 60. At a threshold of
        # 61 the first view leaves 54 < 61 - 6, so either scan stops there;
        # at 60, which item 2's full bound reaches, it reads every view
        db = parse_spmf("1 2 3:6:1 2 3\n" * 10)
        root, r, cutoff = rooted(db, {label: i for i, label in enumerate(db.labels)})
        occurrences = bucket(root, r[1])
        rsu = compute_rsu(root, deliver(root, range(cutoff), db.item_count), cutoff)[r[1]]
        assert (len(occurrences) // 2, cutoff, rsu) == (10, 3, 60)
        full = [0] * cutoff
        full[r[2]], full[r[3]] = 60, 40
        assert compute_bounds(root, occurrences, cutoff) == (10, full)
        assert compute_bounds(root, occurrences, cutoff, True, rsu, 60) == (10, full)
        stopped = [0] * cutoff
        stopped[r[2]], stopped[r[3]] = 6, 4
        assert compute_bounds(root, occurrences, cutoff, True, rsu, 61) == (10, stopped)
        # each view adds its total, 6, to both RLU bounds
        full[r[2]] = full[r[3]] = 60
        assert compute_bounds(root, occurrences, cutoff, False) == (10, full)
        assert compute_bounds(root, occurrences, cutoff, False, rsu, 60) == (10, full)
        stopped[r[2]] = stopped[r[3]] = 6
        assert compute_bounds(root, occurrences, cutoff, False, rsu, 61) == (10, stopped)


class TestRiu:
    def test_running_example(self, example_db):
        assert compute_riu(compute_item_summaries(example_db)) == [114, 40, 25, -9, -10]

    def test_empty_db(self):
        assert compute_riu(compute_item_summaries(parse_spmf(""))) == []

    def test_single_item(self):
        assert compute_riu(compute_item_summaries(parse_spmf("3:7:7"))) == [7]


class TestPairRows:
    @pytest.mark.parametrize("merged", [False, True], ids=["unmerged", "merged"])
    @pytest.mark.parametrize("make_db", [example_database, lambda: campaign_db(5, 0.3)],
                             ids=["example", "campaign-5"])
    def test_rows_hold_exact_pair_utilities(self, make_db, merged):
        # one slot per rank: the oracle's U({a, b}) for every b ranked after
        # the positive item a that shares a transaction with it, 0 for every
        # other b
        db = make_db()
        order = build_total_order(compute_item_summaries(db))
        n = len(order.items)
        root, _, _ = rooted(db)
        if merged:
            merged_root = merge_identical(root)
            assert len(merged_root.items) < len(root.items)
            root = merged_root
        positives = range(order.positive_cutoff)
        got = dict(compute_pair_rows(root, deliver(root, positives, n), positives, n))
        expected = {a: [0] * n for a in positives}
        rank = rank_map(order)
        for t in db.transactions:
            ranks = sorted(rank[i] for i in t.items)
            for x, a in enumerate(ranks):
                if a < order.positive_cutoff:
                    for b in ranks[x + 1:]:
                        expected[a][b] = utility_of(db, (order.items[a], order.items[b]))
        assert any(any(row[order.positive_cutoff:]) for row in expected.values())
        assert all(len(row) == n for row in got.values())
        assert got == expected

    def test_rows_only_for_firsts(self, example_db, ids):
        root, r, _ = rooted(example_db, ids)
        # rows only for the given items, each holding the items ranked after
        # it: E precedes A, so A's row reads 0 there, and C is last, so its
        # row is all zeros; the buckets hold every item, as the root's
        # delivery holds items that are not firsts
        assert [r[n] for n in "EADBC"] == [0, 1, 2, 3, 4]
        buckets = deliver(root, range(5), 5)
        rows = dict(compute_pair_rows(root, buckets, [r["A"], r["C"]], 5))
        a_row = [0] * 5
        a_row[r["D"]] = 62
        assert rows == {r["A"]: a_row, r["C"]: [0] * 5}


class TestSoundness:
    def test_exhaustive_on_small_random_dbs(self):
        for seed in range(12):
            for nf in (0.0, 0.3, 0.6):
                assert check_bound_soundness(campaign_db(seed, nf)) == 0
