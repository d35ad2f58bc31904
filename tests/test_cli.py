import json

import pytest
from helpers import EXAMPLE_TEXT

from topicmine.cli import EXIT_DATA_ERROR, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, main


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.spmf"
    path.write_text(EXAMPLE_TEXT)
    return str(path)


class TestMine:
    def test_json_report(self, example_file, capsys):
        assert main(["mine", "--input", example_file, "--k", "5", "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 1
        assert report["result"]["final_min_util"] == 58
        assert report["result"]["top_k"] == [
            {"items": [4], "utility": 114},
            {"items": [2, 4], "utility": 66},
            {"items": [3, 4], "utility": 64},
            {"items": [1, 4], "utility": 62},
            {"items": [2, 3, 4], "utility": 58},
        ]
        history = report["result"]["min_util_history"]
        assert history == [1, 40, 58]
        assert list(report["result"]["stats"]) == [
            "candidates", "projections", "merges", "runtime_ms", "peak_entries"]

    def test_k_zero_is_usage_error(self, example_file):
        with pytest.raises(SystemExit) as exc:
            main(["mine", "--input", example_file, "--k", "0"])
        assert exc.value.code == 2

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.spmf"
        bad.write_text("1 2:3\n")
        assert main(["mine", "--input", str(bad), "--k", "5"]) == EXIT_DATA_ERROR

    def test_undecodable_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.spmf"
        bad.write_bytes(b"\xff")
        assert main(["mine", "--input", str(bad), "--k", "5"]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "UTF-8" in err

    def test_byte_order_mark_and_crlf_lines(self, example_file, tmp_path, capsys):
        marked = tmp_path / "marked.spmf"
        marked.write_bytes(b"\xef\xbb\xbf" + EXAMPLE_TEXT.replace("\n", "\r\n").encode())
        reports = []
        for path in (example_file, str(marked)):
            assert main(["mine", "--input", path, "--k", "5", "--format", "json"]) == EXIT_OK
            reports.append(json.loads(capsys.readouterr().out)["result"])
        plain, bom = reports
        assert bom["top_k"] == plain["top_k"] and len(bom["top_k"]) == 5
        assert bom["final_min_util"] == plain["final_min_util"]

    def test_variant_none_same_itemsets_more_candidates(self, example_file, capsys):
        main(["mine", "--input", example_file, "--k", "5", "--variant", "full"])
        full = json.loads(capsys.readouterr().out)
        main(["mine", "--input", example_file, "--k", "5", "--variant", "none"])
        none = json.loads(capsys.readouterr().out)
        assert full["result"]["top_k"] == none["result"]["top_k"]
        assert none["result"]["stats"]["candidates"] >= full["result"]["stats"]["candidates"]


class TestVerify:
    def test_running_example_passes(self, example_file, capsys):
        assert main(["verify", "--input", example_file, "--k", "1,3,5"]) == EXIT_OK
        assert "pass" in capsys.readouterr().out

    def test_random_seeds_pass(self, capsys):
        assert main(["verify", "--seeds", "10", "--k", "1,5"]) == EXIT_OK

    def test_empty_k_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seeds", "1", "--k", ","])
        assert exc.value.code == EXIT_USAGE
        assert "at least one k" in capsys.readouterr().err

    def test_negative_seed_count_is_usage_error(self, example_file, capsys):
        for extra in ([], ["--input", example_file]):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--seeds", "-3"] + extra)
            assert exc.value.code == EXIT_USAGE
            assert "must be >= 0" in capsys.readouterr().err

    def test_detects_corrupted_results(self, example_file, tmp_path, capsys, monkeypatch):
        # harness self-test: a miner that drops the best itemset, or returns
        # the right itemsets with a wrong tie order, must be flagged
        import topicmine.cli as cli

        real_mine = cli.mine

        def dropped(db, config):
            result = real_mine(db, config)
            result.top_k = result.top_k[1:]
            return result

        def reversed_ties(db, config):
            result = real_mine(db, config)
            result.top_k = result.top_k[::-1]
            return result

        ties = tmp_path / "ties.spmf"
        ties.write_text("1:3:3\n2:3:3\n3:3:3\n")  # three itemsets of utility 3
        for corrupted, path in ((dropped, example_file), (reversed_ties, str(ties))):
            monkeypatch.setattr(cli, "mine", corrupted)
            assert main(["verify", "--input", path, "--k", "5"]) == EXIT_VERIFY_FAILED
            assert "FAIL" in capsys.readouterr().out


class TestBench:
    def test_csv_rows_and_invariants(self, example_file, capsys):
        assert main(["bench", "--input", example_file, "--k", "3,5"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ("k,variant,candidates,projections,merges,runtime_ms,"
                            "peak_entries,final_min_util")
        assert len(lines) == 1 + 8  # header + 2 k-values x 4 variants

    def test_json_format(self, example_file, capsys):
        assert main(["bench", "--input", example_file, "--k", "5", "--format", "json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert len(report["rows"]) == 4
        by_variant = {r["variant"]: r for r in report["rows"]}
        assert by_variant["full"]["candidates"] == by_variant["subtree-only"]["candidates"]
        assert by_variant["merge-only"]["candidates"] == by_variant["none"]["candidates"]

    def test_empty_k_list_is_usage_error(self, example_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--input", example_file, "--k", ","])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_empty_db(self, tmp_path, capsys):
        empty = tmp_path / "empty.spmf"
        empty.write_text("")
        assert main(["bench", "--input", str(empty), "--k", "5"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.split(",")[2] == "0" for line in lines[1:])  # candidates column


class TestGen:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "gen.spmf"
        args = ["gen", "--transactions", "50", "--items", "12", "--avg-len", "4",
                "--negative-fraction", "0.3", "--seed", "9", "--output", str(out)]
        assert main(args) == EXIT_OK
        assert main(["verify", "--input", str(out), "--k", "1,5"]) == EXIT_OK

    def test_same_seed_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.spmf", tmp_path / "b.spmf"]
        for path in paths:
            args = ["gen", "--transactions", "30", "--items", "10", "--avg-len", "3",
                    "--seed", "4", "--output", str(path)]
            assert main(args) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_negative_fraction(self, tmp_path):
        out = tmp_path / "neg.spmf"
        args = ["gen", "--transactions", "200", "--items", "50", "--avg-len", "5",
                "--negative-fraction", "0.3", "--seed", "2", "--output", str(out)]
        assert main(args) == EXIT_OK
        from topicmine import parse_spmf

        db = parse_spmf(out.read_text())
        assert 10 <= len(db.negative_items) <= 20

    @pytest.mark.parametrize("bad", [
        ["--negative-fraction", "1.5"],
        ["--min-utility", "9", "--max-utility", "2"],
    ])
    def test_invalid_params_are_usage_error(self, tmp_path, capsys, bad):
        out = tmp_path / "gen.spmf"
        args = ["gen", "--transactions", "10", "--items", "5", "--avg-len", "2",
                "--output", str(out)] + bad
        assert main(args) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestOracleCommand:
    def test_matches_miner(self, example_file, capsys):
        assert main(["oracle", "--input", example_file, "--k", "5"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["top_k"][0] == {"items": [4], "utility": 114}
