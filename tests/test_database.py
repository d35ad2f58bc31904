import hashlib
import logging
import random

import pytest
from helpers import reference_item_summaries, reference_parse_spmf
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topicmine import (
    DatabaseError,
    MalformedLineError,
    MixedSignItemError,
    TuMismatchError,
    ZeroUtilityError,
    InvalidParamsError,
    compute_item_summaries,
    generate_synthetic,
    parse_spmf,
    write_spmf,
)


@st.composite
def spmf_texts(draw):
    """SPMF text with labels shuffled within lines, negative items, comment,
    meta, blank and CRLF lines, and up to two injected faults: a zero
    utility, a label given the other sign in some line (a mixed-sign label
    unless that is its only occurrence) or a declared TU off by one."""
    universe = draw(st.lists(st.integers(-3, 20), min_size=1, max_size=8, unique=True))
    negative = draw(st.sets(st.sampled_from(universe)))
    rows = [(labels, [draw(st.integers(1, 9)) * (-1 if lab in negative else 1) for lab in labels])
            for labels in draw(st.lists(st.lists(st.sampled_from(universe), min_size=1, unique=True),
                                        max_size=8))]
    off_by_one = set()
    for fault in draw(st.lists(st.sampled_from(["zero", "sign", "tu"]), max_size=2)):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        labels, utils = rows[i]
        j = draw(st.integers(0, len(labels) - 1))
        if fault == "zero":
            utils[j] = 0
        elif fault == "tu":
            off_by_one.add(i)
        else:
            other_labels, other_utils = rows[draw(st.integers(0, len(rows) - 1))]
            u = -utils[j] or 1
            if labels[j] in other_labels:
                other_utils[other_labels.index(labels[j])] = u
            else:
                other_labels.append(labels[j])
                other_utils.append(u)
    lines = []
    for i, (labels, utils) in enumerate(rows):
        lines += draw(st.lists(st.sampled_from(["", "  ", "# 1:0:0", "@meta"]), max_size=2))
        tu = sum(utils) + (i in off_by_one)
        lines.append(" ".join(map(str, labels)) + f":{tu}:" + " ".join(map(str, utils)))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


@st.composite
def valid_databases(draw):
    """A database parsed from valid SPMF text: all-positive, all-negative or
    mixed signs, labels shuffled within lines, repeated lines, and from no
    line up."""
    universe = draw(st.lists(st.integers(-3, 20), min_size=1, max_size=8, unique=True))
    signs = draw(st.sampled_from(["positive", "negative", "mixed"]))
    if signs == "mixed":
        negative = draw(st.sets(st.sampled_from(universe)))
    else:
        negative = set(universe) if signs == "negative" else set()
    rows = draw(st.lists(st.lists(st.sampled_from(universe), min_size=1, unique=True),
                         max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    lines = []
    for labels in draw(st.permutations(rows)):
        utils = [draw(st.integers(1, 9)) * (-1 if lab in negative else 1) for lab in labels]
        lines.append(" ".join(map(str, labels)) + f":{sum(utils)}:" + " ".join(map(str, utils)))
    return parse_spmf("\n".join(lines))


def parse_outcome(parse, text, strict):
    """The database ``parse`` builds from ``text``, or the class and message
    of the error it raises."""
    try:
        return parse(text, strict=strict)
    except DatabaseError as exc:
        return type(exc), str(exc)


class TestParse:
    def test_single_positive_line(self):
        db = parse_spmf("1 4 5:27:5 12 10")
        (t,) = db.transactions
        assert t.tid == 1
        assert [(db.labels[i], u) for i, u in zip(t.items, t.utilities)] == [
            (1, 5), (4, 12), (5, 10),
        ]
        assert t.tu == 27

    def test_mixed_sign_line(self):
        db = parse_spmf("2 3 4:29:-3 -4 36")
        (t,) = db.transactions
        assert t.tu == 29
        assert {db.labels[i] for i in db.negative_items} == {2, 3}
        assert {db.labels[i] for i in db.positive_items} == {4}

    def test_empty_input(self):
        db = parse_spmf("")
        assert db.transactions == [] and db.item_count == 0

    def test_comments_and_blank_lines_skipped(self):
        db = parse_spmf("# header\n@meta x\n\n1:5:5\n")
        assert len(db.transactions) == 1

    def test_running_example(self, example_db):
        assert len(example_db.transactions) == 6
        assert [t.tu for t in example_db.transactions] == [27, 29, 45, 15, 29, 15]
        assert example_db.item_count == 5

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLineError):
            parse_spmf("1 2:3")

    def test_item_utility_count_mismatch(self):
        with pytest.raises(MalformedLineError):
            parse_spmf("1 2:10:5")

    def test_duplicate_item(self):
        with pytest.raises(MalformedLineError):
            parse_spmf("1 1:10:5 5")

    def test_tu_mismatch_strict(self):
        with pytest.raises(TuMismatchError, match="line 1"):
            parse_spmf("1 2:99:5 5")

    def test_tu_mismatch_lenient_recomputes(self):
        db = parse_spmf("1 2:99:5 5", strict=False)
        assert db.transactions[0].tu == 10

    def test_mixed_sign_item_rejected(self):
        with pytest.raises(MixedSignItemError):
            parse_spmf("1 2:8:5 3\n1:-5:-5")

    def test_zero_utility_rejected(self):
        with pytest.raises(ZeroUtilityError):
            parse_spmf("1 2:5:5 0")

    # Each bad line sits on physical line 5, after a comment holding a bad
    # line, a meta line, a blank line and one good line, and a second bad
    # line of the same kind follows it.
    @pytest.mark.parametrize(
        "bad, later, error",
        [
            ("1 2:3", "1:2:3:4", MalformedLineError),
            ("1 x:5:5 0", "y:1:1", MalformedLineError),
            ("1 2:10:5", "3:1:1 1", MalformedLineError),
            (":0:", " : 0 : ", MalformedLineError),
            ("1 1:10:5 5", "2 2:2:1 1", MalformedLineError),
            ("1_0:5:5", "2:1_0:10", MalformedLineError),
            ("\u0661:5:5", "2:5:\u0665", MalformedLineError),
            ("1 2:99:5 5", "3:9:8", TuMismatchError),
            ("1:-5:-5", "1:-3:-3", MixedSignItemError),
            ("2 3:5:5 0", "4:0:0", ZeroUtilityError),
            ("1:5:5\x0b2:0:0", "3\x0c4:1:1", MalformedLineError),
        ],
        ids=["fields", "token", "count", "empty", "duplicate", "underscore",
             "non-ascii", "tu", "mixed-sign", "zero", "vertical-tab"],
    )
    def test_first_bad_physical_line_named(self, bad, later, error):
        text = f"# 1:-5:0\n@meta x\n\n1:5:5\n{bad}\n6:1:1\n{later}\n"
        with pytest.raises(error, match=r"^line 5: "):
            parse_spmf(text)

    def test_only_newline_ends_a_line(self):
        # form feeds, vertical tabs, \x85 and \u2028 end no line, so a
        # comment keeps its tail and line numbers match ``grep -n``
        with pytest.raises(ZeroUtilityError, match=r"^line 3: item 3 "):
            parse_spmf("# a\x0c1:0:0\u2028\x85\n1:5:5\r\n2\x0b3:5:5 0\n")

    def test_line_errors_precede_sign_and_zero_errors(self):
        # sign and zero errors need the whole file, so a malformed or
        # mismatching line anywhere is reported first
        with pytest.raises(MalformedLineError, match=r"^line 3: "):
            parse_spmf("1 2:5:5 0\n1:-1:-1\n1 2:3")
        with pytest.raises(TuMismatchError, match=r"^line 2: "):
            parse_spmf("1:0:0\n1 2:99:5 5")

    def test_signed_tokens_and_non_ascii_comments(self):
        db = parse_spmf("# caf\u00e9 \u0661\n@ \u2014\n+1 2:+2:+5 -3\n-4:-1:-1")
        assert db.labels == [-4, 1, 2]
        assert [(t.items, t.utilities, t.tu) for t in db.transactions] == [
            ([1, 2], [5, -3], 2), ([0], [-1], -1),
        ]

    def test_lenient_warns_once_per_mismatching_line(self, caplog):
        text = "1 2:99:5 5\n# c\n3:4:4\n1 3:0:5 4\n"
        with caplog.at_level(logging.WARNING, logger="topicmine.database"):
            db = parse_spmf(text, strict=False)
        assert [r.getMessage() for r in caplog.records] == [
            "line 1: declared TU 99 != sum 10, recomputed",
            "line 4: declared TU 0 != sum 9, recomputed",
        ]
        assert [t.tu for t in db.transactions] == [10, 4, 9]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.6]))
    def test_pair_order_within_lines_is_free(self, seed, nf):
        db = generate_synthetic(15, 8, 4, (1, 9), nf, seed)
        rng = random.Random(seed)
        lines = []
        for line in write_spmf(db).splitlines():
            labels, tu, utils = line.split(":")
            pairs = list(zip(labels.split(), utils.split()))
            rng.shuffle(pairs)
            lines.append(" ".join(p[0] for p in pairs) + f":{tu}:"
                         + " ".join(p[1] for p in pairs))
        assert parse_spmf("\n".join(lines)) == db

    @settings(max_examples=300, deadline=None)
    @given(spmf_texts(), st.booleans())
    def test_column_build_matches_per_row_reference(self, text, strict):
        # the same database, or the same error class and message, as the
        # per-row reference builder
        assert (parse_outcome(parse_spmf, text, strict)
                == parse_outcome(reference_parse_spmf, text, strict))


class TestWrite:
    def test_empty_round_trip(self):
        assert write_spmf(parse_spmf("")) == ""

    def test_running_example_tus(self, example_text, example_db):
        lines = write_spmf(example_db).splitlines()
        assert [int(line.split(":")[1]) for line in lines] == [27, 29, 45, 15, 29, 15]
        assert parse_spmf(write_spmf(example_db)) == example_db

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.6]))
    def test_random_round_trip(self, seed, nf):
        db = generate_synthetic(15, 8, 4, (1, 9), nf, seed)
        assert parse_spmf(write_spmf(db)) == db


class TestSummaries:
    def test_running_example(self, example_db, ids):
        s = {x.item: x for x in compute_item_summaries(example_db)}
        twu = {k: s[v].twu for k, v in ids.items()}
        assert twu == {"A": 87, "B": 73, "C": 73, "D": 130, "E": 57}
        rtwu = {k: s[v].rtwu for k, v in ids.items()}
        assert rtwu == {"A": 87, "B": 92, "C": 92, "D": 144, "E": 62}
        util = {k: s[v].utility for k, v in ids.items()}
        assert util == {"A": 25, "B": -9, "C": -10, "D": 114, "E": 40}

    def test_sign_partition_and_rtwu_dominance(self, example_db):
        for s in compute_item_summaries(example_db):
            assert s.rtwu >= s.twu
            assert s.rtwu >= 0
            assert (s.item in example_db.positive_items) != (
                s.item in example_db.negative_items
            )

    def test_rtwu_equals_twu_without_negatives(self):
        db = parse_spmf("1 2:8:5 3\n2 3:9:4 5")
        for s in compute_item_summaries(db):
            assert s.rtwu == s.twu

    def test_rtwu_is_zero_without_positives(self):
        db = parse_spmf("1 2:-8:-5 -3\n2 3:-9:-4 -5")
        assert [(s.twu, s.rtwu) for s in compute_item_summaries(db)] == [(-8, 0), (-17, 0), (-9, 0)]

    @settings(max_examples=200, deadline=None)
    @given(valid_databases())
    @example(parse_spmf(""))
    @example(parse_spmf("3 1 2:6:1 2 3"))
    @example(parse_spmf("2 1:-5:-4 -1\n2 1:-5:-4 -1"))
    def test_matches_per_occurrence_reference(self, db):
        # the sums read by builtins from each item's occurrence list equal
        # the sums made one occurrence at a time, and the list holds every
        # occurrence in transaction order
        got = [(s.item, s.utility, s.twu, s.rtwu, s.positive, s.occurrences)
               for s in compute_item_summaries(db)]
        assert got == reference_item_summaries(db)


class TestGenerate:
    def test_zero_transactions(self):
        db = generate_synthetic(0, 10, 5, (1, 10), 0.2, 3)
        assert db.transactions == [] and db.item_count == 0

    def test_written_file_is_pinned(self):
        # parse_spmf and generate_synthetic share one builder; the
        # benchmark's reference inputs are files written this way
        text = write_spmf(generate_synthetic(50, 12, 4, (1, 9), 0.3, 7))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ce27c2f1b4347a5ace33f604b6577ee48e4ed0d6f38a5671cd6050b511965754"
        )

    def test_deterministic(self):
        a = generate_synthetic(100, 20, 5, (1, 9), 0.25, 42)
        b = generate_synthetic(100, 20, 5, (1, 9), 0.25, 42)
        assert a == b

    def test_shape_and_sign_fraction(self):
        db = generate_synthetic(1000, 50, 8, (1, 9), 0.3, 7)
        assert parse_spmf(write_spmf(db)) == db
        # item signs fixed before generation: ~30% of the universe is negative
        assert 10 <= len(db.negative_items) <= 20
        for t in db.transactions:
            for i, u in zip(t.items, t.utilities):
                assert (u > 0) == (i in db.positive_items)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_transactions=-1, n_items=5, avg_len=2),
            dict(n_transactions=5, n_items=5, avg_len=9),
            dict(n_transactions=5, n_items=5, avg_len=2, utility_range=(0, 5)),
            dict(n_transactions=5, n_items=5, avg_len=2, negative_fraction=1.0),
        ],
    )
    def test_invalid_params(self, kwargs):
        defaults = dict(utility_range=(1, 9), negative_fraction=0.2, seed=1)
        defaults.update(kwargs)
        with pytest.raises(InvalidParamsError):
            generate_synthetic(**defaults)
