"""Utility transaction databases: data model, SPMF-format I/O, item summaries,
and synthetic data generation.

A database is a list of transactions where every item occurrence carries a
signed integer utility (currency units). Every item has a globally fixed sign:
it occurs either only with positive utilities or only with negative ones.
"""
from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import gt, lt

log = logging.getLogger(__name__)


class DatabaseError(Exception):
    """Base class for database construction/parsing errors."""


class MalformedLineError(DatabaseError):
    pass


class TuMismatchError(DatabaseError):
    pass


class MixedSignItemError(DatabaseError):
    pass


class ZeroUtilityError(DatabaseError):
    pass


class InvalidParamsError(DatabaseError):
    pass


@dataclass(slots=True)
class Transaction:
    """One input transaction: parallel item/utility lists plus the cached total.

    ``items`` holds dense item ids in ascending order; ``tu`` is always the
    exact sum of ``utilities``. The miner reads transactions only in
    :func:`compute_item_summaries`, whose occurrence lists the root's rows
    are built from (``ordering.remap_database``).
    """

    tid: int
    items: list[int]
    utilities: list[int]
    tu: int


@dataclass
class UtilityDatabase:
    """Immutable-by-convention transaction database.

    ``labels[i]`` is the raw input label of dense item id ``i``; dense ids are
    assigned in ascending raw-label order. ``positive_items`` and
    ``negative_items`` partition the set of occurring items by utility sign.
    """

    transactions: list[Transaction]
    labels: list[int]
    positive_items: frozenset[int]
    negative_items: frozenset[int]

    @property
    def item_count(self) -> int:
        return len(self.labels)


@dataclass(slots=True)
class ItemSummary:
    """Per-item aggregates over the whole database, and the occurrences they
    are summed from."""

    item: int
    utility: int      # sum of U(x, T) over all transactions containing x
    twu: int          # sum of TU(T) over transactions containing x
    rtwu: int         # like twu, but TU replaced by its positive part
    positive: bool
    # [transaction index, utility, ...] in transaction order; the root's
    # rows are built from it (``ordering.remap_database``)
    occurrences: list[int] = field(repr=False, compare=False)


def _build_database(
    rows: list[tuple[int, int, int]], labels: list[int], utils: list[int]
) -> UtilityDatabase:
    """Assemble a database from a label column, a utility column and rows.

    ``labels`` and ``utils`` list every occurrence's raw label and utility,
    row after row: row ``(line, end, TU)`` owns the entries from the previous
    row's ``end`` (0 at first) up to its own. A row's labels are distinct and
    its TU is the sum of its utilities.

    Each column is read once for the sign sets, the zero test and the dense
    ids, which follow ascending label order. Only when a utility is zero or
    a label has both signs does a walk over the rows run, naming the first
    offending row's ``line``. Each transaction takes its slice of both
    columns, re-sorted only when its labels are out of order. Tids are
    assigned in row order starting at 1.
    """
    positive = set(compress(labels, map(gt, utils, repeat(0))))
    negative = set(compress(labels, map(lt, utils, repeat(0))))
    if 0 in utils or not positive.isdisjoint(negative):
        sign: dict[int, bool] = {}
        start = 0
        for line, end, _ in rows:
            for lab, u in zip(labels[start:end], utils[start:end]):
                if u == 0:
                    raise ZeroUtilityError(f"line {line}: item {lab} has utility 0")
                if sign.setdefault(lab, u > 0) is not (u > 0):
                    raise MixedSignItemError(f"line {line}: item {lab} occurs with both signs")
            start = end

    label_list = sorted(positive | negative)
    dense = dict(zip(label_list, range(len(label_list))))
    ids = list(map(dense.__getitem__, labels))

    transactions = []
    start = 0
    for tid, (_, end, tu) in enumerate(rows, start=1):
        items = ids[start:end]
        row_utils = utils[start:end]
        if items != sorted(items):
            items, row_utils = map(list, zip(*sorted(zip(items, row_utils))))
        transactions.append(Transaction(tid, items, row_utils, tu))
        start = end

    positive_ids = frozenset(map(dense.__getitem__, positive))
    negative_ids = frozenset(map(dense.__getitem__, negative))
    return UtilityDatabase(transactions, label_list, positive_ids, negative_ids)


class _Labels(dict):
    """Token -> int memo of one parse's labels; a miss stores and returns
    ``int(token)``. Labels name items, which recur across transactions in
    data worth mining, so most lookups hit."""

    def __missing__(self, token: str) -> int:
        value = self[token] = int(token)
        return value


def parse_spmf(text: str, strict: bool = True) -> UtilityDatabase:
    """Parse the SPMF utility format: ``i1 i2 ... im:TU:u1 u2 ... um``.

    Lines starting with ``#`` or ``@`` are skipped. Tokens are ASCII decimal
    integers with an optional sign, and labels may come in any order within
    a line. A declared TU that differs from the sum of the utilities is an
    error in strict mode and is otherwise recomputed with a warning. Only a
    newline ends a line (a carriage return before it is stripped), and errors
    name that physical line. Each distinct label token is converted once
    per call; utilities, which need not repeat, are converted one by one.
    Each data line extends one label column and one utility column;
    :func:`_build_database` builds from them, so sign and zero errors are
    raised only once every line has parsed.
    """
    label = _Labels().__getitem__
    rows: list[tuple[int, int, int]] = []
    label_col: list[int] = []
    util_col: list[int] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "@")):
            continue
        if not line.isascii() or "_" in line:
            raise MalformedLineError(f"line {lineno}: tokens must be ASCII decimal integers")
        fields = line.split(":")
        if len(fields) != 3:
            raise MalformedLineError(f"line {lineno}: expected 3 ':'-fields, got {len(fields)}")
        try:
            labels = list(map(label, fields[0].split()))
            declared_tu = int(fields[1])
            utils = list(map(int, fields[2].split()))
        except ValueError as exc:
            raise MalformedLineError(f"line {lineno}: {exc}") from None
        if len(labels) != len(utils):
            raise MalformedLineError(
                f"line {lineno}: {len(labels)} items but {len(utils)} utilities"
            )
        if not labels:
            raise MalformedLineError(f"line {lineno}: empty transaction")
        if len(set(labels)) != len(labels):
            raise MalformedLineError(f"line {lineno}: duplicate item in transaction")
        actual_tu = sum(utils)
        if declared_tu != actual_tu:
            if strict:
                raise TuMismatchError(
                    f"line {lineno}: declared TU {declared_tu} != sum {actual_tu}"
                )
            log.warning("line %d: declared TU %d != sum %d, recomputed",
                        lineno, declared_tu, actual_tu)
        label_col += labels
        util_col += utils
        rows.append((lineno, len(label_col), actual_tu))
    return _build_database(rows, label_col, util_col)


def write_spmf(db: UtilityDatabase) -> str:
    """Serialize a database back to SPMF utility format.

    Items are written in stored order, ascending dense id, which is
    ascending raw-label order, so ``parse_spmf(write_spmf(db))`` reproduces
    the database exactly.
    """
    lines = []
    for t in db.transactions:
        items = " ".join(str(db.labels[i]) for i in t.items)
        utils = " ".join(map(str, t.utilities))
        lines.append(f"{items}:{t.tu}:{utils}")
    return "\n".join(lines) + ("\n" if lines else "")


def compute_item_summaries(db: UtilityDatabase) -> list[ItemSummary]:
    """Compute utility, TWU and RTWU for every item (dense-id order).

    One pass over the transactions lists each item's occurrences; it is the
    only Python-level loop over them. The sums are read from the lists by
    builtins: an item's utility sums its utilities, its TWU and RTWU sum the
    TU and the positive part of the TU of the transactions it occurs in."""
    transactions = db.transactions
    occurrences = [[] for _ in range(db.item_count)]
    for j, t in enumerate(transactions):
        for i, u in zip(t.items, t.utilities):
            occurrences[i] += (j, u)
    tu = [t.tu for t in transactions]
    positive = (0).__lt__
    rtu = [sum(filter(positive, t.utilities)) for t in transactions]
    summaries = []
    for i, occ in enumerate(occurrences):
        tids = occ[::2]
        summaries.append(ItemSummary(i, sum(occ[1::2]), sum(map(tu.__getitem__, tids)),
                                     sum(map(rtu.__getitem__, tids)),
                                     i in db.positive_items, occ))
    return summaries


def generate_synthetic(
    n_transactions: int,
    n_items: int,
    avg_len: int,
    utility_range: tuple[int, int],
    negative_fraction: float,
    seed: int,
) -> UtilityDatabase:
    """Generate a random database with a fixed per-item sign assignment.

    ``utility_range`` is the (inclusive) magnitude range of occurrence
    utilities; items drawn as negative get negated magnitudes. Deterministic
    for a fixed seed.
    """
    lo, hi = utility_range
    if n_transactions < 0 or n_items <= 0:
        raise InvalidParamsError("n_transactions must be >= 0 and n_items > 0")
    if not (1 <= avg_len <= n_items):
        raise InvalidParamsError("avg_len must be in [1, n_items]")
    if lo <= 0 or hi < lo:
        raise InvalidParamsError("utility_range must be a positive magnitude range")
    if not (0 <= negative_fraction < 1):
        raise InvalidParamsError("negative_fraction must be in [0, 1)")

    rng = random.Random(seed)
    all_labels = list(range(1, n_items + 1))
    n_neg = round(n_items * negative_fraction)
    negative_labels = set(rng.sample(all_labels, n_neg))

    rows = []
    label_col: list[int] = []
    util_col: list[int] = []
    for tid in range(1, n_transactions + 1):
        length = max(1, min(n_items, round(rng.gauss(avg_len, max(1.0, avg_len / 3)))))
        labels = rng.sample(all_labels, length)
        utils = []
        for lab in labels:
            mag = rng.randint(lo, hi)
            utils.append(-mag if lab in negative_labels else mag)
        label_col += labels
        util_col += utils
        rows.append((tid, len(label_col), sum(utils)))
    return _build_database(rows, label_col, util_col)
