"""Record one point of the benchmark's trajectory.

    python3 bench/record.py N

Runs ``run.py`` at the reference seed on every workload, once untraced and
once traced, each for ``run_seconds`` from ``BENCHMARK.json``, and writes
``results/BENCH_N.json`` with each run's record and metrics.
``source_sha256`` and ``bench_sha256`` identify the code measured: the
digests of every file under ``src/`` and under ``bench/``. ``run.py`` checks
its counters and ``peak_mem_mb`` against any earlier point with the same
digests, so a figure that does not repeat fails the run. Exits 1 without
writing if any run fails.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys

from workloads import HERE, REFERENCE_SEED, RESULTS, ROOT, SRC, WORKLOADS, code_digest, run_seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("n", type=int)
    args = parser.parse_args()

    runs = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(REFERENCE_SEED), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                return 1
            runs.setdefault(name, {})[f"trace{trace}"] = {
                "record": json.loads(lines[-2]),
                "result": json.loads(lines[-1]),
            }
            print(f"{name} trace={trace}: done", flush=True)

    out = RESULTS / f"BENCH_{args.n}.json"
    RESULTS.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "schema_version": 2,
        "source_sha256": code_digest(SRC),
        "bench_sha256": code_digest(HERE),
        "seed": REFERENCE_SEED,
        "seconds": run_seconds(),
        "workloads": runs,
    }, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
