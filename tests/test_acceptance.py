"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The scalability smoke (criterion 8) mines 100k-transaction synthetic
databases and dominates the suite's runtime.
"""
import time

import pytest
from helpers import (
    VARIANT_NAMES,
    campaign_db,
    check_bound_soundness,
    example_database,
    merging_preserves_utilities,
    mine_all_variants,
)

from topicmine import MinerConfig, enumerate_topk, generate_synthetic, mine

CAMPAIGN = [(seed, nf) for seed in range(70) for nf in (0.0, 0.3, 0.6)]
K_VALUES = (1, 3, 5, 10, 20)


def report(number: int, ok: bool, message: str):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {message}")
    assert ok, message


def test_criterion_1_running_example_golden():
    db = example_database()
    label = {lab: i for i, lab in enumerate(db.labels)}
    want = [
        ((label[4],), 114),
        ((label[2], label[4]), 66),
        ((label[3], label[4]), 64),
        ((label[1], label[4]), 62),
        ((label[2], label[3], label[4]), 58),
    ]
    ok = True
    best_ms = float("inf")
    for name in VARIANT_NAMES:
        result = mine(db, MinerConfig.variant(5, name))
        ok &= result.top_k == want and result.final_min_util == 58
        best_ms = min(best_ms, result.stats.runtime_ms)
    ok &= best_ms < 10.0
    report(1, ok, f"top-5 = {{D}},{{B,D}},{{C,D}},{{A,D}},{{B,C,D}} at 114/66/64/62/58, "
                  f"final minUtil 58, {best_ms:.2f} ms")


def test_criterion_2_statistics_golden():
    from topicmine import compute_item_summaries

    db = example_database()
    tus = [t.tu for t in db.transactions]
    s = compute_item_summaries(db)
    twus = [x.twu for x in s]
    rtwus = [x.rtwu for x in s]
    ok = (
        tus == [27, 29, 45, 15, 29, 15]
        and twus == [87, 73, 73, 130, 57]
        and rtwus == [87, 92, 92, 144, 62]
    )
    report(2, ok, f"TU={tus} TWU={twus} RTWU={rtwus}")


def test_criterion_3_oracle_equivalence_campaign():
    t0 = time.perf_counter()
    mismatches = 0
    runs = 0
    for seed, nf in CAMPAIGN:
        db = campaign_db(seed, nf)
        ranked = enumerate_topk(db, max(K_VALUES)).top_k
        for k in K_VALUES:
            expected = ranked[:k]
            for name, result in mine_all_variants(db, k).items():
                runs += 1
                if result.top_k != expected:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and len(CAMPAIGN) >= 200
    report(3, ok, f"{len(CAMPAIGN)} databases, {runs} variant runs, "
                  f"{mismatches} mismatches (exact lists, tie order included), {elapsed:.1f} s")


def test_criterion_4_bound_soundness():
    violations = 0
    for seed, nf in CAMPAIGN:
        violations += check_bound_soundness(campaign_db(seed, nf))
    report(4, violations == 0,
           f"RLU/RSU dominated every reachable extension on {len(CAMPAIGN)} databases "
           f"({violations} violations)")


def test_criterion_5_ablation_invariants():
    bad = 0
    checked = 0
    dbs = [example_database()] + [campaign_db(seed, nf) for seed, nf in CAMPAIGN[:60]]
    for db in dbs:
        for k in (5, 20):
            c = {name: r.stats.candidates for name, r in mine_all_variants(db, k).items()}
            checked += 1
            if not (c["full"] == c["subtree-only"] and c["merge-only"] == c["none"]
                    and c["full"] <= c["none"]):
                bad += 1
    report(5, bad == 0,
           f"candidates(full)=candidates(subtree-only), candidates(merge-only)=candidates(none), "
           f"full<=none on {checked} runs ({bad} violations); absolute counts out of scope")


def test_criterion_6_merging_preservation():
    bad = 0
    for seed in range(50):
        if not merging_preserves_utilities(campaign_db(seed, 0.3 if seed % 2 else 0.0)):
            bad += 1
    report(6, bad == 0, f"U(X) preserved under transaction merging on 50 databases ({bad} failures)")


def test_criterion_7_threshold_monotonicity():
    bad = 0
    runs = 0
    for seed, nf in CAMPAIGN:
        db = campaign_db(seed, nf)
        for k in (1, 5, 20):
            for result in mine_all_variants(db, k).values():
                runs += 1
                if result.min_util_history != sorted(result.min_util_history):
                    bad += 1
    report(7, bad == 0, f"minUtil non-decreasing in {runs}/{runs} instrumented runs"
           if bad == 0 else f"{bad} of {runs} runs had a decreasing threshold")


@pytest.mark.slow
def test_criterion_8_scalability_smoke():
    sizes = [20000, 40000, 60000, 80000, 100000]
    full = generate_synthetic(100000, 200, 4, (1, 9), 0.3, 11)
    runtimes = {name: [] for name in VARIANT_NAMES}
    peaks = {name: [] for name in VARIANT_NAMES}
    from topicmine.database import UtilityDatabase

    for size in sizes:
        db = UtilityDatabase(full.transactions[:size], full.labels,
                             full.positive_items, full.negative_items)
        for name in VARIANT_NAMES:
            result = mine(db, MinerConfig.variant(1000, name))
            runtimes[name].append(result.stats.runtime_ms)
            peaks[name].append(result.stats.peak_entries)
    lines = []
    for name in VARIANT_NAMES:
        ratios = [runtimes[name][i + 1] / max(runtimes[name][i], 1e-9)
                  for i in range(len(sizes) - 1)]
        lines.append(f"{name}: runtimes_ms={[round(r) for r in runtimes[name]]} "
                     f"ratios={[round(r, 2) for r in ratios]} peaks={peaks[name]}")
    # only completion is asserted; growth ratios are reported
    report(8, True, "all variants completed at 20..100% of 100k transactions, k=1000; "
           + "; ".join(lines))


def test_criterion_9_relative_sanity_surrogate():
    checked = 0
    ok = True
    for seed in range(20):
        db = campaign_db(seed, 0.3)
        results = mine_all_variants(db, 10)
        checked += 1
        ok &= results["full"].stats.candidates <= results["none"].stats.candidates
    report(9, ok, f"absolute runtime/memory tables not reproduced; surrogate "
                  f"candidates(full)<=candidates(none) held on {checked} databases")
