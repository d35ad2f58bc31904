"""Write ``reference.json``: the expected outcome of every workload at the
reference seed.

    python3 bench/make_reference.py

An entry is written only when all four ablation variants agree on the top-k
and the final threshold; otherwise nothing is written and the exit code is 3.
Regenerate the file only when a workload definition changes, and only from
a commit whose results are trusted.
"""
from __future__ import annotations

import json
import sys

from workloads import REFERENCE, REFERENCE_SEED, WORKLOADS, digest, import_program, outcome


def main() -> int:
    tm = import_program()
    entries = {}
    for workload in WORKLOADS.values():
        text = tm.write_spmf(tm.generate_synthetic(*workload.generator_args(REFERENCE_SEED)))
        db = tm.parse_spmf(text)
        outcomes = {
            name: outcome(db, tm.mine(db, tm.MinerConfig.variant(workload.k, name)))
            for name in tm.VARIANTS
        }
        first = outcomes["full"]
        if any(o != first for o in outcomes.values()):
            sys.stderr.write(f"{workload.name}: variants disagree: {outcomes}\n")
            return 3
        entries[workload.name] = {
            "params": workload.params(),
            "input_sha256": digest(text),
            "outcome": first,
        }
        print(f"{workload.name}: all {len(outcomes)} variants agree, {first}")
    REFERENCE.write_text(json.dumps(
        {"seed": REFERENCE_SEED, "workloads": entries}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
