"""Benchmark workloads and the helpers shared by the benchmark scripts.

Each workload is a call to ``generate_synthetic`` plus a ``k``. The seed is
not part of a workload: ``run.py`` takes it as an argument, so the same
shapes can be measured on data the code was not tuned on.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"
REFERENCE_SEED = 11

# Exit code for a checkout that does not hold the program's source.
EXIT_NO_SOURCE = 2


@dataclass(frozen=True)
class Workload:
    name: str
    n_transactions: int
    n_items: int
    avg_len: int
    negative_fraction: float
    k: int
    utility_range: tuple[int, int] = (1, 9)

    def generator_args(self, seed: int) -> tuple:
        return (self.n_transactions, self.n_items, self.avg_len,
                self.utility_range, self.negative_fraction, seed)

    def oracle_args(self, seed: int) -> tuple:
        """A brute-force-sized instance of the same shape: same average
        length and negative fraction, at most ``ORACLE_ITEMS`` items."""
        return (ORACLE_TRANSACTIONS, min(self.n_items, ORACLE_ITEMS), self.avg_len,
                self.utility_range, self.negative_fraction, seed)

    def params(self) -> dict:
        """Everything but the seed, as it is stored in ``reference.json``."""
        return {
            "generator": [self.n_transactions, self.n_items, self.avg_len,
                          list(self.utility_range), self.negative_fraction],
            "k": self.k,
        }


ORACLE_TRANSACTIONS = 200
ORACLE_ITEMS = 16

WORKLOADS = {w.name: w for w in (
    # Why each workload was chosen: README.md and BENCHMARK.json.
    Workload("sparse-neg", 8000, 200, 4, 0.3, k=1000),
    Workload("dense-pos", 3000, 40, 10, 0.0, k=150, utility_range=(1, 99)),
    Workload("wide-shallow", 8000, 1000, 6, 0.6, k=10),
)}


def import_program():
    """Import ``topicmine`` from this checkout's ``src``; exit when absent."""
    if not (SRC / "topicmine" / "__init__.py").is_file():
        sys.stderr.write(f"no program source at {SRC}\n")
        sys.exit(EXIT_NO_SOURCE)
    sys.path.insert(0, str(SRC))
    import topicmine

    if Path(topicmine.__file__).resolve().parent != SRC / "topicmine":
        sys.stderr.write(f"imported topicmine from {topicmine.__file__}, not {SRC}\n")
        sys.exit(EXIT_NO_SOURCE)
    return topicmine


def run_seconds() -> int:
    """The measuring time of one run, as ``BENCHMARK.json`` sets it."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def code_digest(directory: Path) -> str:
    """sha256 over the names and contents of every ``.py`` file below
    ``directory``: which code a recorded result belongs to."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def digest(obj) -> str:
    """sha256 of the canonical JSON text of ``obj``."""
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(db, result) -> dict:
    """What a result is checked on: the digest of the top-k, with items as
    raw input labels, and the final threshold."""
    labelled = [[sorted(db.labels[i] for i in itemset), utility]
                for itemset, utility in result.top_k]
    return {
        "top_k_sha256": digest(labelled),
        "final_min_util": result.final_min_util,
    }
