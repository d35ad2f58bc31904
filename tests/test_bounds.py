from helpers import campaign_db, check_bound_soundness

from topicmine import compute_item_summaries, parse_spmf
from topicmine.bounds import compute_bounds, compute_riu
from topicmine.ordering import build_root, build_total_order, project, remap_database


def rooted(db):
    order = build_total_order(compute_item_summaries(db))
    rdb = remap_database(db, order, set(db.positive_items), set(db.negative_items))
    return build_root(rdb, order), order


class TestRlu:
    def test_root_rlu_is_rtwu_for_positives(self, example_db, ids):
        root, _ = rooted(example_db)
        rlu, _ = compute_bounds(root)
        assert rlu == {ids["E"]: 62, ids["A"]: 87, ids["D"]: 144}

    def test_empty_projection(self, example_db, ids):
        root, _ = rooted(example_db)
        empty = project(project(root, ids["E"]), ids["D"])
        assert compute_bounds(project(empty, ids["D"])) == ({}, {})

    def test_after_projecting_a(self, example_db, ids):
        root, _ = rooted(example_db)
        rlu, _ = compute_bounds(project(root, ids["A"]))
        assert rlu[ids["D"]] == 62  # (5+12) + (15+30)


class TestRsu:
    def test_after_projecting_a(self, example_db, ids):
        root, _ = rooted(example_db)
        _, rsu = compute_bounds(project(root, ids["A"]))
        assert rsu[ids["D"]] == 62

    def test_negative_item_rsu_is_exact(self, example_db, ids):
        root, _ = rooted(example_db)
        _, rsu = compute_bounds(project(root, ids["D"]))
        # no positive item follows B, so RSU collapses to U({B, D})
        assert rsu[ids["B"]] == 66
        assert rsu[ids["C"]] == 64

    def test_rlu_dominates_rsu_for_positives(self, example_db):
        root, order = rooted(example_db)
        for item in range(example_db.item_count):
            child = project(root, item)
            rlu, rsu = compute_bounds(child)
            for z, bound in rlu.items():
                assert bound >= rsu[z]


class TestRiu:
    def test_running_example(self, example_db):
        assert compute_riu(example_db) == [114, 40, 25, -9, -10]

    def test_empty_db(self):
        assert compute_riu(parse_spmf("")) == []

    def test_single_item(self):
        assert compute_riu(parse_spmf("3:7:7")) == [7]


class TestSoundness:
    def test_exhaustive_on_small_random_dbs(self):
        for seed in range(12):
            for nf in (0.0, 0.3, 0.6):
                assert check_bound_soundness(campaign_db(seed, nf)) == 0
