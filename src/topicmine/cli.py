"""Command-line surface: mine, verify against the oracle, benchmark the
ablation variants, generate synthetic data, and run the oracle directly.

Exit codes: 0 success, 1 data error, 2 usage error, 3 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys

from .database import (
    DatabaseError,
    InvalidParamsError,
    UtilityDatabase,
    generate_synthetic,
    parse_spmf,
    write_spmf,
)
from .miner import VARIANTS, MineResult, MinerConfig, mine
from .oracle import TooManyItemsError, enumerate_topk

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2
EXIT_VERIFY_FAILED = 3


def _load(path: str, lenient: bool) -> tuple[UtilityDatabase, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatabaseError(f"{path} is not UTF-8 text: {exc}") from None
    db = parse_spmf(text, strict=not lenient)
    return db, hashlib.sha256(data).hexdigest()


def _labelled(db: UtilityDatabase, itemset: tuple[int, ...]) -> list[int]:
    return sorted(db.labels[i] for i in itemset)


def _dataset_block(path: str, digest: str, db: UtilityDatabase) -> dict:
    return {"path": path, "sha256": digest,
            "transactions": len(db.transactions), "items": db.item_count}


def _top_k_block(db: UtilityDatabase, top_k: list[tuple[tuple[int, ...], int]]) -> list[dict]:
    return [{"items": _labelled(db, itemset), "utility": utility} for itemset, utility in top_k]


def _result_block(db: UtilityDatabase, result: MineResult) -> dict:
    return {
        "top_k": _top_k_block(db, result.top_k),
        "final_min_util": result.final_min_util,
        "stats": dataclasses.asdict(result.stats),
        "min_util_history": result.min_util_history,
    }


def cmd_mine(args: argparse.Namespace) -> int:
    db, digest = _load(args.input, args.lenient)
    config = MinerConfig.variant(args.k, args.variant)
    result = mine(db, config)
    if args.format == "json":
        report = {
            "schema_version": SCHEMA_VERSION,
            "dataset": _dataset_block(args.input, digest, db),
            "config": {"k": args.k, "variant": args.variant},
            "result": _result_block(db, result),
        }
        print(json.dumps(report, indent=2))
    else:
        for itemset, utility in result.top_k:
            print(f"{' '.join(str(lab) for lab in _labelled(db, itemset))}\t{utility}")
        print(f"# final_min_util={result.final_min_util} "
              f"candidates={result.stats.candidates} "
              f"runtime_ms={result.stats.runtime_ms:.2f}")
    return EXIT_OK


def _verify_one(db: UtilityDatabase, k_values: list[int], label: str) -> list[str]:
    """Compare every variant's top-k list with the oracle's, order and ties
    at k included."""
    failures = []
    expected_full = enumerate_topk(db, max(k_values)).top_k
    for k in k_values:
        expected = expected_full[:k]
        for name in VARIANTS:
            got = mine(db, MinerConfig.variant(k, name)).top_k
            if got != expected:
                failures.append(f"{label} k={k} variant={name}: expected {expected}, got {got}")
    return failures


def cmd_verify(args: argparse.Namespace) -> int:
    k_values = args.k
    failures: list[str] = []
    cases = 0
    if args.input:
        db, _ = _load(args.input, args.lenient)
        failures += _verify_one(db, k_values, args.input)
        cases += 1
    for seed in range(args.seeds):
        db = generate_synthetic(
            n_transactions=20, n_items=8, avg_len=4,
            utility_range=(1, 9), negative_fraction=0.3, seed=seed,
        )
        failures += _verify_one(db, k_values, f"seed={seed}")
        cases += 1
    if cases == 0:
        print("nothing to verify: pass --input and/or --seeds", file=sys.stderr)
        return EXIT_USAGE
    if failures:
        for line in failures:
            print(f"FAIL {line}")
        print(f"verify: {len(failures)} mismatches over {cases} databases")
        return EXIT_VERIFY_FAILED
    print(f"verify: pass ({cases} databases, k in {k_values}, all variants match oracle)")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    db, digest = _load(args.input, args.lenient)
    results = {(k, name): mine(db, MinerConfig.variant(k, name))
               for k in args.k for name in VARIANTS}

    # Candidate-count invariants: merging never changes the candidate set,
    # subtree pruning never enlarges it.
    for k in args.k:
        c = {name: results[(k, name)].stats.candidates for name in VARIANTS}
        if not (c["full"] == c["subtree-only"] and c["merge-only"] == c["none"]
                and c["full"] <= c["none"]):
            print(f"bench: candidate-count invariant violated at k={k}: {c}", file=sys.stderr)
            return EXIT_VERIFY_FAILED

    rows = []
    for (k, name), result in results.items():
        stats = dataclasses.asdict(result.stats)
        stats["runtime_ms"] = round(stats["runtime_ms"], 3)
        rows.append({"k": k, "variant": name, **stats,
                     "final_min_util": result.final_min_util})
    rows.sort(key=lambda r: (r["k"], r["variant"]))
    if args.format == "json":
        report = {
            "schema_version": SCHEMA_VERSION,
            "dataset": _dataset_block(args.input, digest, db),
            "rows": rows,
        }
        print(json.dumps(report, indent=2))
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        print(buf.getvalue(), end="")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        db = generate_synthetic(
            n_transactions=args.transactions,
            n_items=args.items,
            avg_len=args.avg_len,
            utility_range=(args.min_utility, args.max_utility),
            negative_fraction=args.negative_fraction,
            seed=args.seed,
        )
    except InvalidParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = write_spmf(db)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    db, digest = _load(args.input, args.lenient)
    result = enumerate_topk(db, args.k)
    report = {
        "schema_version": SCHEMA_VERSION,
        "dataset": _dataset_block(args.input, digest, db),
        "top_k": _top_k_block(db, result.top_k),
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _non_negative_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return n


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return n


def _k_list(value: str) -> list[int]:
    ks = [_positive_int(tok) for tok in value.split(",") if tok]
    if not ks:
        raise argparse.ArgumentTypeError(f"expected at least one k, got {value!r}")
    return ks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="topicmine",
                                     description="Exact top-k high-utility itemset mining "
                                                 "with negative utilities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine the top-k itemsets from an SPMF file")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--variant", choices=sorted(VARIANTS), default="full")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--lenient", action="store_true",
                   help="recompute mismatched TU fields instead of rejecting")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("verify", help="check all variants against the brute-force oracle")
    p.add_argument("--input")
    p.add_argument("--k", type=_k_list, default=[1, 3, 5])
    p.add_argument("--seeds", type=_non_negative_int, default=0,
                   help="additionally verify this many random small databases")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run all four variants and report stats")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=_k_list, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a synthetic SPMF file")
    p.add_argument("--transactions", type=int, required=True)
    p.add_argument("--items", type=_positive_int, required=True)
    p.add_argument("--avg-len", type=_positive_int, required=True)
    p.add_argument("--min-utility", type=_positive_int, default=1)
    p.add_argument("--max-utility", type=_positive_int, default=9)
    p.add_argument("--negative-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="file path, or - for stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="brute-force top-k (small databases only)")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatabaseError, TooManyItemsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
