import gc
import io
import json
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pscore import solve_pipeline
from pscore.cli import SLICE, _file_context, _load_counts, _sniff_format, _write_output, build_parser, main
from pscore.cli import parse_year_range
from pscore.errors import ParameterError, ParseError, ValidationError
from pscore.records import _undecodable_line, ingest, load_author_pubs
from pscore.scoring import load_venue_scores

from conftest import DATA_DIR, GOLDEN_GAMMA, GOLDEN_NU, GOLDEN_NU_MAX1
from oracles import dense_blocks, parse_records, serialize_records

GOLDEN_ARGS = [
    "--input", str(DATA_DIR / "golden_records.jsonl"),
    "--groups-file", str(DATA_DIR / "golden_groups.txt"),
    "--author-counts", str(DATA_DIR / "golden_author_counts.csv"),
    "--d", str(1 / 3),
]
DISJOINT_ARGS = [
    "--input", str(DATA_DIR / "disjoint_records.jsonl"),
    "--groups-file", str(DATA_DIR / "disjoint_groups.txt"),
    "--d", "1",
]

REPORTS = DATA_DIR / "reports"


def solved_chain(argv):
    """The chain that ``pscore`` solves for the command line ``argv``."""
    args = build_parser().parse_args(argv)
    return solve_pipeline(_load_counts(args), args.d, args.allow_largest_component).chain


def read_venue_tsv(path):
    names, raw, norm = [], [], []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split("\t")
            continue
        cells = line.split("\t")
        names.append(cells[0])
        raw.append(float(cells[1]))
        norm.append(float(cells[2]))
    return names, np.array(raw), np.array(norm)


class TestVenuesCommand:
    def test_tsv_golden(self, tmp_path):
        out = tmp_path / "venues.tsv"
        assert main(["venues", *GOLDEN_ARGS, "-o", str(out)]) == 0
        names, raw, norm = read_venue_tsv(out)
        assert names == ["v1", "v2", "v3"]
        assert_allclose(raw, GOLDEN_NU, rtol=0, atol=1e-12)
        assert_allclose(norm, GOLDEN_NU_MAX1, rtol=0, atol=1e-12)
        assert f"# d = {1 / 3!r}" in out.read_text().splitlines()

    def test_json_golden(self, tmp_path):
        out = tmp_path / "venues.json"
        assert main(["venues", *GOLDEN_ARGS, "--format", "json", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert [item["venue"] for item in payload] == ["v1", "v2", "v3"]
        assert_allclose([item["raw_score"] for item in payload], GOLDEN_NU, rtol=0, atol=1e-12)

    def test_stdout_default(self, capsys):
        assert main(["venues", *GOLDEN_ARGS]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "venue\traw_score\tnormalized_score"
        assert lines[3].startswith("v1\t")

    def test_emit_debug_matrices_is_refused(self, tmp_path, capsys):
        # the option is gone: it is refused as unknown, before any output is written
        out = tmp_path / "venues.tsv"
        with pytest.raises(SystemExit) as exc:
            main(["venues", *GOLDEN_ARGS, "-o", str(out), "--emit-debug-matrices"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --emit-debug-matrices" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dataset, args", [
        ("golden", GOLDEN_ARGS),
        ("disjoint", DISJOINT_ARGS[:-1] + ["0.5"]),
    ])
    def test_debug_matrices_match_the_dense_release(self, dataset, args):
        # written by a release that printed the blocks of the chain it solved; the oracle's blocks
        # of that chain, printed the same way, must match them byte for byte
        chain = solved_chain(["venues", *args])
        venues, groups = chain.counts.venue_names, chain.counts.group_names
        alpha, beta = dense_blocks(chain.counts, chain.d)
        for block, labels, matrix, comment in (
            ("alpha", venues, alpha, "venue -> group block (one venue per row)"),
            ("beta", groups, beta, "group -> venue block (one group per row)"),
            ("reduced", groups, beta @ alpha, "group -> group reduced chain"),
        ):
            rows = "".join(label + "".join(f"\t{x:.12g}" for x in row) + "\n" for label, row in zip(labels, matrix))
            expected = (DATA_DIR / "debug_matrices" / f"{dataset}.{block}.tsv").read_bytes()
            assert f"# {comment}\n{rows}".encode() == expected

    def test_d_next_to_one_ranks_as_d_one(self, capsys):
        reports = {}
        for d in ("0.999999999999", "1"):
            assert main(["groups", *GOLDEN_ARGS[:-1], d]) == 0
            reports[d] = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("# d = ")]
        assert reports["0.999999999999"] == reports["1"]

    def test_bad_d_rejected(self, capsys):
        args = GOLDEN_ARGS[:-1] + ["1.5"]
        assert main(["venues", *args]) == 1
        assert "[0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("d", ["-0.5", "nan"])
    def test_bad_d_reported_before_any_file_is_read(self, tmp_path, capsys, d):
        missing = str(tmp_path / "missing.jsonl")
        assert main(["venues", "--input", missing, "--groups-file", missing,
                     "--author-counts", missing, "--d", d]) == 1
        assert capsys.readouterr().err == f"pscore: error: mixing parameter d must lie in [0, 1], got {float(d)}\n"


class TestGroupsCommand:
    def test_tsv_golden(self, tmp_path):
        out = tmp_path / "groups.tsv"
        assert main(["groups", *GOLDEN_ARGS, "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[-2] == f"1\tGroup 2\t{GOLDEN_GAMMA[1]:.6f}"
        assert lines[-1] == f"2\tGroup 1\t{GOLDEN_GAMMA[0]:.6f}"

    def test_symmetric_dataset_ties(self, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(
            '{"id":"a","group":"GB","authors":["x"],"venue":"v1"}\n'
            '{"id":"b","group":"GA","authors":["y"],"venue":"v2"}\n'
        )
        out = tmp_path / "groups.tsv"
        code = main([
            "groups", "--input", str(records), "--group", "GA", "--group", "GB",
            "--d", "0.5", "-o", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[-2] == "1\tGA\t0.500000"
        assert lines[-1] == "1\tGB\t0.500000"


def report_rows(text, format):
    """(rank, name, score to 6 decimals) per row of a ranking report, TSV or JSON."""
    if format == "json":
        return [[str(e["rank"]), e["name"], f"{e['score']:.6f}"] for e in json.loads(text)]
    return [line.split("\t") for line in text.splitlines() if not line.startswith("#")][1:]


@pytest.mark.parametrize("command", ["groups", "authors"])
def test_json_ranking_holds_the_tsv_rows(tmp_path, capsys, command):
    if command == "authors":
        scores = tmp_path / "venues.tsv"
        assert main(["venues", *GOLDEN_ARGS, "-o", str(scores)]) == 0
        argv = ["authors", "--venue-scores", str(scores), "--author-pubs", str(DATA_DIR / "golden_author_pubs.jsonl")]
    else:
        argv = ["groups", *GOLDEN_ARGS]
    rows = {}
    for format in ("tsv", "json"):
        capsys.readouterr()
        assert main([*argv, "--format", format]) == 0
        rows[format] = report_rows(capsys.readouterr().out, format)
    assert rows["json"] == rows["tsv"]
    assert len(rows["tsv"]) == 2 and rows["tsv"][0][0] == "1"
    if command == "authors":
        assert rows["tsv"] == [["1", "Bob", "1.000000"], ["2", "Alice", f"{891 / 1051:.6f}"]]


@pytest.mark.parametrize("report", sorted(path.name for path in REPORTS.iterdir()))
def test_reports_match_byte_for_byte(tmp_path, report):
    # written by an earlier release; any change to a printed digit, a comment line or the layout shows here
    dataset, command, format = report.rsplit(".", 2)
    if command == "authors":
        argv = ["authors", "--venue-scores", str(REPORTS / "golden.venues.tsv"),
                "--author-pubs", str(DATA_DIR / "golden_author_pubs.jsonl")]
    else:
        argv = [command, *{"golden": GOLDEN_ARGS, "disjoint-d0.5": DISJOINT_ARGS[:-1] + ["0.5"],
                           "disjoint-d1": [*DISJOINT_ARGS, "--allow-largest-component"]}[dataset]]
    assert main([*argv, "--format", format, "-o", str(tmp_path / report)]) == 0
    assert (tmp_path / report).read_bytes() == (REPORTS / report).read_bytes()


def test_a_report_is_written_in_slices_byte_for_byte(tmp_path, capfdbinary):
    # lines of two- to four-byte characters, 201 to a line, so that no slice boundary falls at a newline
    text = "".join("Å名前\U0001f600" * 50 + "\n" for _ in range(700))
    assert len(text) > 2 * SLICE and len(text.encode()) > 128 * 1024
    assert all(len(text[k].encode()) > 1 for k in (SLICE - 1, SLICE, 2 * SLICE - 1, 2 * SLICE))
    _write_output(text, str(tmp_path / "report.tsv"))
    assert (tmp_path / "report.tsv").read_bytes() == text.encode("utf-8")
    for path in (None, "-"):
        _write_output(text, path)
        sys.stdout.flush()
        assert capfdbinary.readouterr().out == text.encode("utf-8")


class TestAuthorsCommand:
    def test_end_to_end(self, tmp_path):
        scores = tmp_path / "venues.tsv"
        assert main(["venues", *GOLDEN_ARGS, "-o", str(scores)]) == 0
        out = tmp_path / "authors.tsv"
        code = main([
            "authors", "--venue-scores", str(scores),
            "--author-pubs", str(DATA_DIR / "golden_author_pubs.jsonl"),
            "-o", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        # Bob: 2 papers at the top venue; Alice: one paper everywhere -> 891/1051
        assert lines[-2] == "1\tBob\t1.000000"
        assert lines[-1] == f"2\tAlice\t{891 / 1051:.6f}"

    def test_json_venue_scores_accepted(self, tmp_path):
        scores = tmp_path / "venues.json"
        assert main(["venues", *GOLDEN_ARGS, "--format", "json", "-o", str(scores)]) == 0
        out = tmp_path / "authors.tsv"
        code = main([
            "authors", "--venue-scores", str(scores),
            "--author-pubs", str(DATA_DIR / "golden_author_pubs.jsonl"),
            "-o", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines()[-2].startswith("1\tBob")

    def test_per_paper_records_aggregated(self, tmp_path):
        scores = tmp_path / "venues.tsv"
        assert main(["venues", *GOLDEN_ARGS, "-o", str(scores)]) == 0
        pubs = tmp_path / "pubs.jsonl"
        pubs.write_text(
            '{"authors": ["Zed", "Yan"], "venue": "v2"}\n'
            '{"authors": ["Zed"], "venue": "v2"}\n'
        )
        out = tmp_path / "authors.tsv"
        assert main(["authors", "--venue-scores", str(scores), "--author-pubs", str(pubs),
                     "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[-2] == "1\tZed\t1.000000"
        assert lines[-1] == "2\tYan\t0.500000"

    @pytest.mark.parametrize("lines, line", [
        (['{"author": "A", "venue": "v1", "count": 1%s}' % ("0" * 399)], 1),
        (['{"author": "A", "venue": "v1", "count": 9007199254740992}',
          '{"author": "a", "venue": "V1", "count": 1}'], 2),  # 2**53 + 1 in sum
    ])
    def test_count_above_2_53_names_file_and_line(self, tmp_path, capsys, lines, line):
        what, count = ("'count'", 10**399) if line == 1 else ("total 'count' for 'A' at 'v1'", 2**53 + 1)
        scores = tmp_path / "venues.tsv"
        assert main(["venues", *GOLDEN_ARGS, "-o", str(scores)]) == 0
        pubs = tmp_path / "pubs.jsonl"
        pubs.write_text("".join(text + "\n" for text in lines))
        assert main(["authors", "--venue-scores", str(scores), "--author-pubs", str(pubs)]) == 1
        error = f"pscore: error: {pubs}: line {line}: {what} must lie in [1, 2**53], got {count}\n"
        assert capsys.readouterr().err == error

    def test_unknown_venue_warns_but_ranks(self, tmp_path, caplog):
        scores = tmp_path / "venues.tsv"
        assert main(["venues", *GOLDEN_ARGS, "-o", str(scores)]) == 0
        pubs = tmp_path / "pubs.jsonl"
        pubs.write_text(
            '{"author": "A", "venue": "v1", "count": 1}\n'
            '{"author": "A", "venue": "offbook", "count": 3}\n'
        )
        out = tmp_path / "authors.tsv"
        with caplog.at_level("WARNING", logger="pscore.scoring"):
            assert main(["authors", "--venue-scores", str(scores),
                         "--author-pubs", str(pubs), "-o", str(out)]) == 0
        assert "offbook" in caplog.text


class TestVenueScoreFileErrors:
    """Bad venue-score files end in an error naming the file and the line or entry."""

    def run_authors(self, tmp_path, name, text):
        scores = tmp_path / name
        scores.write_text(text)
        code = main(["authors", "--venue-scores", str(scores),
                     "--author-pubs", str(DATA_DIR / "golden_author_pubs.jsonl"),
                     "-o", str(tmp_path / "authors.tsv")])
        assert not (tmp_path / "authors.tsv").exists()
        return code, str(scores)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.5"])
    def test_non_finite_or_negative_tsv_score(self, tmp_path, capsys, bad):
        code, path = self.run_authors(tmp_path, "v.tsv", f"venue\traw_score\nv1\t{bad}\nv2\t1\n")
        assert code == 1
        assert f"{path}: line 2: raw_score must be finite and nonnegative" in capsys.readouterr().err

    def test_nan_json_score(self, tmp_path, capsys):
        code, path = self.run_authors(tmp_path, "v.json", '[{"venue": "v1", "raw_score": NaN}]')
        assert code == 1
        assert f"{path}: entry 0: raw_score must be finite" in capsys.readouterr().err

    def test_truncated_json(self, tmp_path, capsys):
        code, path = self.run_authors(tmp_path, "v.json", '[{"venue": "v1",\n "raw_score": ')
        assert code == 1
        assert f"{path}: line 2: malformed JSON" in capsys.readouterr().err

    def test_non_numeric_json_score(self, tmp_path, capsys):
        text = '[{"venue": "v1", "raw_score": 1.0}, {"venue": "v2", "raw_score": "x"}]'
        code, path = self.run_authors(tmp_path, "v.json", text)
        assert code == 1
        assert f"{path}: entry 1: raw_score is not a number: 'x'" in capsys.readouterr().err

    def test_json_boolean_score(self, tmp_path, capsys):
        text = '[{"venue": "v1", "raw_score": true}]'
        code, path = self.run_authors(tmp_path, "v.json", text)
        assert code == 1
        assert f"{path}: entry 0: raw_score is not a number: True" in capsys.readouterr().err

    def test_empty_tsv_venue(self, tmp_path, capsys):
        code, path = self.run_authors(tmp_path, "v.tsv", "venue\traw_score\nv1\t0.5\n\t0.5\n")
        assert code == 1
        assert f"{path}: line 3: field 'venue' is empty" in capsys.readouterr().err

    def test_null_json_venue(self, tmp_path, capsys):
        text = '[{"venue": "v1", "raw_score": 0.5}, {"venue": null, "raw_score": 0.5}]'
        code, path = self.run_authors(tmp_path, "v.json", text)
        assert code == 1
        assert f"{path}: entry 1: missing required field 'venue'" in capsys.readouterr().err

    def test_duplicate_tsv_venue(self, tmp_path, capsys):
        code, path = self.run_authors(tmp_path, "v.tsv", "venue\traw_score\nv1\t0.5\nV1\t0.5\n")
        assert code == 1
        assert f"{path}: line 3: venue 'V1' is listed twice (first at line 2)" in capsys.readouterr().err

    def test_scores_not_summing_to_one(self, tmp_path, capsys):
        code, path = self.run_authors(tmp_path, "v.tsv", "venue\traw_score\nv1\t0.7\nv2\t0.7\n")
        assert code == 1
        err = capsys.readouterr().err
        assert f"pscore: error: {path}: raw venue scores sum to 1.4, not 1 (tolerance 1e-10)" in err
        with pytest.raises(ValidationError, match="sum to 1.4"), open(path, "rb") as fh:
            load_venue_scores(fh)

    def test_empty_score_file_named_once(self, tmp_path, capsys):
        scores = tmp_path / "empty.tsv"
        scores.write_text("venue\traw_score\n")
        code = main(["authors", "--venue-scores", str(scores),
                     "--author-pubs", str(DATA_DIR / "golden_author_pubs.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == f"pscore: error: {scores}: no venue scores found\n"

    def test_duplicate_json_venue(self, tmp_path):
        scores = tmp_path / "v.json"
        scores.write_text('[{"venue": "v1", "raw_score": 0.5}, {"venue": " V1 ", "raw_score": 0.5}]')
        with pytest.raises(ValidationError) as exc, open(scores, "rb") as fh:
            load_venue_scores(fh)
        assert str(exc.value) == "entry 1: venue 'V1' is listed twice (first at entry 0)"


class TestValidateCommand:
    def test_golden_statistics(self, capsys):
        assert main(["validate", *GOLDEN_ARGS]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "reference groups: 2" in out
        assert out[1:3] == ["venues: 3", "nonzero (group, venue) cells: 6"]
        assert "records kept: 14" in out
        assert "records dropped (outside reference set): 0" in out
        assert "duplicate records merged: 0" in out
        assert out[-1].endswith("irreducible")

    def test_empty_input_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["validate", "--input", str(empty),
                     "--groups-file", str(DATA_DIR / "golden_groups.txt")])
        assert code == 1
        assert "empty dataset" in capsys.readouterr().err

    def test_author_count_below_one_names_file_and_line(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("venue,count\nv1,0\n")
        args = GOLDEN_ARGS[:4] + ["--author-counts", str(counts)]
        assert main(["validate", *args]) == 1
        assert capsys.readouterr().err == f"pscore: error: {counts}: line 2: 'count' must lie in [1, 2**53], got 0\n"

    def test_author_count_above_2_53_names_file_and_line(self, tmp_path, capsys):
        counts = tmp_path / "counts.jsonl"
        counts.write_text('{"venue": "v1", "count": 12}\n{"venue": "v2", "count": 100000000000000000000000}\n')
        args = GOLDEN_ARGS[:4] + ["--author-counts", str(counts)]
        assert main(["validate", *args]) == 1
        error = f"pscore: error: {counts}: line 2: 'count' must lie in [1, 2**53], got {10**23}\n"
        assert capsys.readouterr().err == error

    def test_year_filter_changes_counts(self, capsys):
        assert main(["validate", *GOLDEN_ARGS, "--years", "2013:2014"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "records kept: 9" in out
        assert "venues: 2" in out
        assert "nonzero (group, venue) cells: 4" in out

    def test_reports_disconnection(self, capsys):
        assert main(["validate", *DISJOINT_ARGS]) == 0
        out = capsys.readouterr().out
        assert "disconnected into 2 components" in out
        assert "{G1}" in out and "{G2}" in out


class TestDisconnectionHandling:
    def test_hard_error_by_default(self, tmp_path, capsys):
        out = tmp_path / "venues.tsv"
        assert main(["venues", *DISJOINT_ARGS, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "disconnected" in err and "{G1}" in err and "{G2}" in err
        assert not out.exists()

    def test_largest_component_venues(self, tmp_path):
        out = tmp_path / "venues.tsv"
        code = main(["venues", *DISJOINT_ARGS, "--allow-largest-component", "-o", str(out)])
        assert code == 0
        names, raw, norm = read_venue_tsv(out)
        # G1 has two papers to G2's one, so the G1/v1 component wins
        assert names == ["v1", "v2"]
        assert_allclose(raw, [1.0, 0.0], rtol=0, atol=0)
        assert_allclose(norm, [1.0, 0.0], rtol=0, atol=0)

    def test_largest_component_groups(self, tmp_path):
        out = tmp_path / "groups.tsv"
        code = main(["groups", *DISJOINT_ARGS, "--allow-largest-component", "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[-2] == "1\tG1\t1.000000"
        assert lines[-1] == "2\tG2\t0.000000"

    @pytest.mark.parametrize("command", ["venues", "groups"])
    def test_largest_component_solves_its_own_axes(self, tmp_path, command):
        argv = [command, *DISJOINT_ARGS, "--allow-largest-component", "-o", str(tmp_path / "report.tsv")]
        assert main(argv) == 0
        # only the solved component's axes: venue v1, group G1
        solved = solved_chain(argv).counts
        assert (solved.group_names, solved.venue_names) == (("G1",), ("v1",))

    def test_a_later_largest_component_is_solved(self, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(
            '{"id":"a","group":"G1","authors":["x"],"venue":"v1"}\n'
            '{"id":"b","group":"G2","authors":["y"],"venue":"v2"}\n'
            '{"id":"c","group":"G2","authors":["y"],"venue":"v2"}\n'
        )
        argv = ["venues", "--input", str(records), "--group", "G1", "--group", "G2", "--d", "1",
                "--allow-largest-component", "-o", str(tmp_path / "report.tsv")]
        assert main(argv) == 0
        solved = solved_chain(argv).counts
        assert (solved.group_names, solved.venue_names) == (("G2",), ("v2",))

    def test_below_d_one_not_affected(self, tmp_path):
        out = tmp_path / "venues.tsv"
        args = DISJOINT_ARGS[:-1] + ["0.9"]
        assert main(["venues", *args, "-o", str(out)]) == 0


class TestCsvIngestion:
    def test_csv_records_match_jsonl(self, tmp_path):
        with open(DATA_DIR / "golden_records.jsonl", encoding="utf-8", newline="") as fh:
            records = parse_records(fh, "jsonl")
        csv_path = tmp_path / "records.csv"
        csv_path.write_text(serialize_records(records, "csv"))
        out_csv = tmp_path / "out_csv.tsv"
        out_jsonl = tmp_path / "out_jsonl.tsv"
        args = GOLDEN_ARGS[2:]
        assert main(["venues", "--input", str(csv_path), *args, "-o", str(out_csv)]) == 0
        assert main(["venues", *GOLDEN_ARGS, "-o", str(out_jsonl)]) == 0
        assert out_csv.read_bytes() == out_jsonl.read_bytes()


class TestHelpers:
    def test_parse_year_range(self):
        assert parse_year_range("2000:2010") == (2000, 2010)
        assert parse_year_range("2000:") == (2000, None)
        assert parse_year_range(":2010") == (None, 2010)
        for bad in ("2010", "a:b", "2011:2010"):
            with pytest.raises(ParameterError):
                parse_year_range(bad)

    def test_load_venue_scores_round_trip(self, tmp_path):
        out = tmp_path / "venues.tsv"
        assert main(["venues", *GOLDEN_ARGS, "-o", str(out)]) == 0
        with open(out, "rb") as fh:
            nu = load_venue_scores(fh)
        assert nu.names == ("v1", "v2", "v3")
        assert_allclose(nu.scores, GOLDEN_NU, rtol=0, atol=1e-12)

    def test_load_venue_scores_rejects_garbage(self, tmp_path):
        with pytest.raises(ValidationError):
            load_venue_scores(io.BytesIO(b"venue\traw_score\nv1\tmuch\n"))
        with pytest.raises((ValidationError, ParseError)):
            load_venue_scores(io.BytesIO(b""))

    def test_load_author_pubs_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            load_author_pubs(io.StringIO('{"author": "A", "venue": "v1", "count": 0}\n'))
        with pytest.raises(ParseError):
            load_author_pubs(io.StringIO('{"venue": "v1"}\n'))
        with pytest.raises(ValidationError):
            load_author_pubs(io.StringIO(""))

    def test_file_context_keeps_line_and_field(self, tmp_path):
        pubs = tmp_path / "p2.jsonl"
        pubs.write_text('{"author": "A", "venue": "v1", "count": 1}\n{"author": "A", "venue": "v1", "count": 0}\n')
        with pytest.raises(ValidationError) as exc:
            with _file_context(str(pubs)) as fh:
                load_author_pubs(fh)
        assert str(exc.value) == f"{pubs}: line 2: 'count' must lie in [1, 2**53], got 0"
        assert exc.value.line == 2
        assert exc.value.field == "count"

    def test_sniff_format_without_suffix(self, tmp_path):
        jsonl = tmp_path / "records"
        jsonl.write_text("\ufeff  \n" + '{"group": "G"}\n' * 5000, encoding="utf-8")
        csv_file = tmp_path / "records.txt"
        csv_file.write_text("id,title,group,authors,venue,year\n", encoding="utf-8")
        for path, expected in ((jsonl, "jsonl"), (csv_file, "csv")):
            with open(path, "rb") as fh:
                assert _sniff_format(str(path), fh) == expected
                assert fh.read() == path.read_bytes()  # the sniff consumed nothing

    def test_inputs_are_closed(self, tmp_path):
        scores = tmp_path / "venues.tsv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["venues", *GOLDEN_ARGS, "-o", str(scores)]) == 0
            assert main(["authors", "--venue-scores", str(scores),
                         "--author-pubs", str(DATA_DIR / "golden_author_pubs.jsonl"),
                         "-o", str(tmp_path / "authors.tsv")]) == 0
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_missing_groups_flag(self, capsys):
        assert main(["venues", "--input", str(DATA_DIR / "golden_records.jsonl")]) == 1
        assert "reference groups" in capsys.readouterr().err

    def test_missing_input_file(self, capsys):
        assert main(["venues", "--input", "/nonexistent.jsonl", "--group", "G"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_errors_carry_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"group":"G","authors":["a"],"venue":"v"}\n{oops}\n')
        assert main(["venues", "--input", str(bad), "--group", "G"]) == 1
        err = capsys.readouterr().err
        assert "bad.jsonl" in err and "line 2" in err


class TestUndecodableInput:
    """Bytes that are not UTF-8, in any input file, end in a ParseError naming the file and line."""

    SCORES = b"venue\traw_score\nv1\t1\n"
    CASES = {
        "records.jsonl": (b'{"group": "Group 1", "authors": ["A"], "venue": "v1"}\n' * 2
                          + b'{"group": "Group 1", "authors": ["\xff"], "venue": "v1"}\n'),
        "records.csv": b"id,title,group,authors,venue,year\np1,T,Group 1,A,v1,2013\np2,T,Group 1,\xff,v1,2013\n",
        "author_counts.csv": b"venue,count\nv1,10\nv\xff,5\n",
        "groups.txt": b"Group 1\nGroup 2\nGroup \xff\n",
        "venue_scores.tsv": b"venue\traw_score\nv1\t1\nv\xff\t0\n",
        "author_pubs.jsonl": (b'{"author": "A", "venue": "v1", "count": 1}\n' * 2
                              + b'{"author": "\xff", "venue": "v1", "count": 1}\n'),
    }

    @staticmethod
    def argv(name: str, bad: str, scores: str) -> list[str]:
        records = bad if name.startswith("records") else str(DATA_DIR / "golden_records.jsonl")
        groups = bad if name == "groups.txt" else str(DATA_DIR / "golden_groups.txt")
        if name == "venue_scores.tsv":
            return ["authors", "--venue-scores", bad, "--author-pubs", str(DATA_DIR / "golden_author_pubs.jsonl")]
        if name == "author_pubs.jsonl":
            return ["authors", "--venue-scores", scores, "--author-pubs", bad]
        counts = ["--author-counts", bad] if name == "author_counts.csv" else []
        return ["venues", "--input", records, "--groups-file", groups, *counts]

    @pytest.mark.parametrize("name", list(CASES))
    def test_named_with_file_and_line(self, tmp_path, capsys, name):
        bad, scores = tmp_path / name, tmp_path / "scores.tsv"
        bad.write_bytes(self.CASES[name])
        scores.write_bytes(self.SCORES)
        assert main(self.argv(name, str(bad), str(scores))) == 1
        assert capsys.readouterr().err == f"pscore: error: {bad}: line 3: not UTF-8 text (invalid start byte)\n"

    def test_line_counted_in_the_file_not_in_the_read_chunk(self, tmp_path, capsys):
        # the text reader decodes in chunks, so the error's own offset is relative to a later chunk
        records = tmp_path / "records.jsonl"
        line = b'{"group": "Group 1", "authors": ["Ana \xc3\xa9"], "venue": "v1"}\n'
        records.write_bytes(line * 4999 + line.replace(b"\xc3\xa9", b"\xc3"))
        assert main(["venues", "--input", str(records), "--groups-file", str(DATA_DIR / "golden_groups.txt")]) == 1
        err = capsys.readouterr().err
        assert err == f"pscore: error: {records}: line 5000: not UTF-8 text (invalid continuation byte)\n"
        for data, where in ((line * 2 + b"\xc3", 3),  # cut off at the end of the file
                            (line.replace(b"\n", b"\r") * 2 + line.replace(b"\n", b"\r\n") + b"\xff", 4)):
            with pytest.raises(ParseError) as exc:
                ingest(io.BytesIO(data), "jsonl", ["Group 1"])
            assert exc.value.line == where
        assert _undecodable_line(io.BytesIO(line), 0) is None
