"""Shared test utilities: campaign generation and exhaustive checkers."""
from __future__ import annotations

from topicmine import (
    MinerConfig,
    UtilityDatabase,
    compute_item_summaries,
    generate_synthetic,
    mine,
    parse_spmf,
)
from topicmine.bounds import compute_bounds, compute_negative_caps, compute_rsu
from topicmine.ordering import (
    build_root,
    build_total_order,
    deliver,
    merge_identical,
    project,
    remap_database,
)
from topicmine.oracle import all_supported_utilities, utility_of
from topicmine.topk import TopKStore

VARIANT_NAMES = ("full", "merge-only", "subtree-only", "none")

EXAMPLE_TEXT = """\
1 4 5:27:5 12 10
2 3 4:29:-3 -4 36
1 4:45:15 30
1 5:15:5 10
2 3 4:29:-3 -4 36
2 3 5:15:-3 -2 20
"""


def example_database() -> UtilityDatabase:
    return parse_spmf(EXAMPLE_TEXT)


class CheckingTopKStore(TopKStore):
    """A top-k store that fails when the same itemset is offered twice.

    The search must evaluate every itemset exactly once. The check raises
    explicitly, so it still runs under ``python -O``."""

    def __init__(self, k):
        super().__init__(k)
        self.offered: set[frozenset[int]] = set()

    def offer(self, itemset, utility):
        key = frozenset(itemset)
        if key in self.offered:
            raise AssertionError(f"duplicate candidate {itemset}")
        self.offered.add(key)
        return super().offer(itemset, utility)


def bucket(pdb, z):
    """The occurrences of z that ``deliver`` finds in ``pdb`` (empty when z
    does not occur)."""
    return deliver(pdb, {z}).get(z, ())


def project_on(pdb, z):
    """``project(pdb, z)`` on the bucket that ``deliver`` finds for z."""
    return project(pdb, z, bucket(pdb, z))


def view_fields(pdb):
    """``(record, offset, prefix utility, positive prefix, weight)`` of each
    view of ``pdb``, in view order."""
    for rec, offset, prefix, pos_prefix in zip(pdb.records, pdb.offsets, pdb.prefixes,
                                               pdb.pos_prefixes):
        yield rec, offset, prefix, pos_prefix, rec.weight


def reference_bounds(pdb):
    """(rlu, rsu) as dicts over the items present in ``pdb``, by a plain
    backward scan of every view suffix with a running positive tail: the
    reference for :func:`topicmine.bounds.compute_bounds` on the bucket
    that ``pdb`` was projected from. Only positive
    items receive an RLU; RSU is given for every item."""
    rlu: dict[int, int] = {}
    rsu: dict[int, int] = {}
    for rec, offset, prefix, _, _ in view_fields(pdb):
        base = prefix + sum(u for u in rec.utilities[offset:] if u > 0)
        tail = 0
        for p in range(len(rec.items) - 1, offset - 1, -1):
            u = rec.utilities[p]
            it = rec.items[p]
            rsu[it] = rsu.get(it, 0) + prefix + u + tail
            if u > 0:
                tail += u
                rlu[it] = rlu.get(it, 0) + base
    return rlu, rsu


def reference_negative_caps(pdb):
    """The positive-prefix cap as a dict over every item present in
    ``pdb``: the reference for :func:`topicmine.bounds.compute_negative_caps`
    on the bucket that ``pdb`` was projected from."""
    caps: dict[int, int] = {}
    for rec, offset, _, pos_prefix, _ in view_fields(pdb):
        for it in rec.items[offset:]:
            caps[it] = caps.get(it, 0) + pos_prefix
    return caps


def nodes_to_depth_two(root, n, enter):
    """``(prefix, node)`` for the root and every prefix of one or two ranks,
    each node passed through ``enter`` as the search merges it."""
    yield (), root
    for z in range(n):
        child = enter(project_on(root, z))
        yield (z,), child
        for w in range(z + 1, n):
            yield (z, w), enter(project_on(child, w))


def campaign_nodes(merged):
    """``(db, cutoff, prefix, node)`` for the root and every node of one or
    two ranks of the 36 small campaign databases (seeds 0-11, negative
    fraction 0 / 0.3 / 0.6); with ``merged``, every node's identical views
    are merged."""
    enter = merge_identical if merged else (lambda pdb: pdb)
    for seed in range(12):
        for nf in (0.0, 0.3, 0.6):
            db = campaign_db(seed, nf)
            order = build_total_order(compute_item_summaries(db))
            root = enter(build_root(
                remap_database(db, order, db.positive_items | db.negative_items)))
            for prefix, pdb in nodes_to_depth_two(root, db.item_count, enter):
                yield db, order.positive_cutoff, prefix, pdb


def campaign_buckets(merged):
    """``(db, cutoff, prefix, node, z, occurrences)`` for every item z ranked
    after ``prefix`` that occurs in a node of :func:`campaign_nodes`, with
    z's bucket in that node."""
    for db, cutoff, prefix, pdb in campaign_nodes(merged):
        last = prefix[-1] if prefix else -1
        for z, occurrences in sorted(deliver(pdb, set(range(last + 1, db.item_count))).items()):
            yield db, cutoff, prefix, pdb, z, occurrences


def exact_utility(db, ranks):
    """The oracle's utility of the itemset of ``ranks`` in ``db``'s
    processing order (0 when no transaction supports it)."""
    order = build_total_order(compute_item_summaries(db))
    return utility_of(db, [order.items[r] for r in ranks])


def as_pair_set(pairs):
    return {(frozenset(itemset), utility) for itemset, utility in pairs}


def campaign_db(seed: int, negative_fraction: float) -> UtilityDatabase:
    """Small random database: <= 10 items, <= 25 transactions, magnitudes <= 9."""
    return generate_synthetic(
        n_transactions=10 + seed % 16,
        n_items=6 + seed % 5,
        avg_len=3 + seed % 2,
        utility_range=(1, 9),
        negative_fraction=negative_fraction,
        seed=seed,
    )


def mine_all_variants(db: UtilityDatabase, k: int):
    return {name: mine(db, MinerConfig.variant(k, name)) for name in VARIANT_NAMES}


def check_bound_soundness(db: UtilityDatabase) -> int:
    """Exhaustively verify RLU/RSU against the true maxima they must dominate.

    Walks the full rank-ordered enumeration tree with the real projection
    machinery; prefixes and extensions are ranks. At each all-positive
    prefix, RLU(prefix, z) must dominate every supported extension containing
    z, and RSU(prefix, z) the whole supported subtree under prefix+z. For
    negative z (at any prefix) the positive-prefix cap that gates deeper
    negative recursion must dominate the prefix+z subtree. The bounds of
    prefix+z are read from z's bucket in the prefix's projection, as the
    search reads them, and each bucket scan must give the exact utility of
    prefix+z. Returns the number of violations.
    """
    if not db.transactions:
        return 0
    summaries = compute_item_summaries(db)
    order = build_total_order(summaries)
    root = build_root(remap_database(db, order, db.positive_items | db.negative_items))
    util = all_supported_utilities(db)
    by_rank = order.items
    m = db.item_count
    cutoff = order.positive_cutoff
    NONE = float("-inf")
    violations = 0

    def as_ids(ranks):
        return frozenset(by_rank[r] for r in ranks)

    def dfs(prefix: tuple[int, ...], pdb, rlu, rsu, caps):
        """Returns (subtree max utility, {z: max utility over subtree itemsets
        containing z}) over supported itemsets only. ``rlu``, ``rsu`` and
        ``caps`` are the bound lists of ``pdb``, read from its parent's
        bucket as the search reads them."""
        nonlocal violations
        last = prefix[-1] if prefix else -1
        all_positive = not prefix or prefix[-1] < cutoff
        best = util.get(as_ids(prefix), NONE) if prefix else NONE
        child_max: dict[int, float] = {}
        child_containing: dict[int, dict[int, float]] = {}
        for z in range(last + 1, m):
            occurrences = bucket(pdb, z)
            child = project(pdb, z, occurrences)
            if child.support == 0:
                child_max[z] = NONE
                child_containing[z] = {}
                continue
            scans = (compute_bounds(pdb, occurrences, cutoff, False),
                     compute_bounds(pdb, occurrences, cutoff),
                     compute_negative_caps(pdb, occurrences, cutoff, m))
            exact = util[as_ids(prefix + (z,))]
            violations += sum(utility != exact for utility, _ in scans)
            cm, cc = dfs(prefix + (z,), child, *(bound for _, bound in scans))
            child_max[z] = cm
            child_containing[z] = cc
            if cm > best:
                best = cm
        containing: dict[int, float] = {}
        for z in range(last + 1, m):
            top = child_max[z]
            for w in range(last + 1, z):
                top = max(top, child_containing[w].get(z, NONE))
            containing[z] = top
            z_positive = z < cutoff
            if z_positive and all_positive:
                if rlu[z] < top:
                    violations += 1
                if rsu[z] < child_max[z]:
                    violations += 1
            elif not z_positive and caps[z] < child_max[z]:
                violations += 1
        return best, containing

    # the root has no parent bucket: its RLU is the RTWU the miner filters
    # by, its RSU is read from its own delivery of its positive items, as
    # the miner reads it, and its caps are 0 (empty prefix)
    root_rlu = [summaries[by_rank[r]].rtwu for r in range(cutoff)]
    root_rsu = compute_rsu(root, deliver(root, set(range(cutoff))), cutoff)
    dfs((), root, root_rlu, root_rsu, [0] * m)
    return violations


def reconstruct_merged(db: UtilityDatabase) -> UtilityDatabase:
    """Database equivalent of the fully merged top-level projection."""
    summaries = compute_item_summaries(db)
    order = build_total_order(summaries)
    everything = db.positive_items | db.negative_items
    merged = merge_identical(build_root(remap_database(db, order, everything)))
    lines = []
    for rec, offset, _, _, _ in view_fields(merged):
        labelled = sorted(
            (db.labels[order.items[r]], u)
            for r, u in zip(rec.items[offset:], rec.utilities[offset:])
        )
        items = " ".join(str(lab) for lab, _ in labelled)
        utils = " ".join(str(u) for _, u in labelled)
        lines.append(f"{items}:{sum(u for _, u in labelled)}:{utils}")
    return parse_spmf("\n".join(lines))


def merging_preserves_utilities(db: UtilityDatabase) -> bool:
    """U(X) identical on the merged and unmerged database for every supported X."""
    merged_db = reconstruct_merged(db)
    label_to_merged = {lab: i for i, lab in enumerate(merged_db.labels)}
    for itemset, expected in all_supported_utilities(db).items():
        translated = [label_to_merged[db.labels[i]] for i in itemset]
        if utility_of(merged_db, translated) != expected:
            return False
    return True
