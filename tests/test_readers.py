"""Every input goes through the shared readers, with one line-ending rule.

``records.text_stream`` decodes each file, its lines end at ``\\n``, ``\\r``
or ``\\r\\n`` and nowhere else, and ``records.csv_rows`` splits the records
CSV, the author-count CSV and the venue-score TSV into rows. A CSV error
is a ``ParseError`` naming the file and line; the venue-score TSV has no
quoting, so a venue name holding quotes and commas comes back as written.
"""

import io
import json

import pytest

from conftest import DATA_DIR
from pscore import ParseError, ValidationError, ingest, parse_author_counts
from pscore.cli import main
from pscore.scoring import load_venue_scores

FIELD_LIMIT = "field larger than field limit (131072)"
BIG = "v" * 200_000
GOLDEN_PUBS = str(DATA_DIR / "golden_author_pubs.jsonl")


def authors(scores, pubs=GOLDEN_PUBS, *extra):
    return main(["authors", "--venue-scores", str(scores), "--author-pubs", str(pubs), *extra])


class TestOversizedCsvField:
    """A field over the ``csv`` module's size limit is a ParseError at its line, not a traceback."""

    def test_records_csv(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_text(f"id,title,group,authors,venue,year\np1,T,G,A,{BIG},2014\n")
        with pytest.raises(ParseError) as exc, open(path, "rb") as fh:
            ingest(fh, "csv", ["G"])
        assert (exc.value.line, str(exc.value)) == (2, f"line 2: malformed CSV: {FIELD_LIMIT}")
        assert main(["venues", "--input", str(path), "--group", "G"]) == 1
        assert capsys.readouterr().err == f"pscore: error: {path}: line 2: malformed CSV: {FIELD_LIMIT}\n"

    def test_author_counts_csv(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text(f"venue,count\nv1,3\n{BIG},1\n")
        with pytest.raises(ParseError, match="^line 3: malformed CSV: "), open(path, "rb") as fh:
            parse_author_counts(fh, "csv")
        assert main(["validate", "--input", str(DATA_DIR / "golden_records.jsonl"),
                     "--groups-file", str(DATA_DIR / "golden_groups.txt"), "--author-counts", str(path)]) == 1
        assert capsys.readouterr().err == f"pscore: error: {path}: line 3: malformed CSV: {FIELD_LIMIT}\n"

    def test_venue_score_tsv(self, tmp_path, capsys):
        path = tmp_path / "venues.tsv"
        path.write_text(f"# pscore venues\n# d = 0.5\nvenue\traw_score\n{BIG}\t1\n")
        assert authors(path) == 1
        assert capsys.readouterr().err == f"pscore: error: {path}: line 4: malformed CSV: {FIELD_LIMIT}\n"


class TestLineEnds:
    def test_form_feed_does_not_end_a_venue_score_line(self, tmp_path, capsys):
        path = tmp_path / "venues.tsv"
        path.write_bytes(b"venue\traw_score\nv1\t1\x0c\nv2\tx\n")
        assert authors(path) == 1
        assert capsys.readouterr().err == f"pscore: error: {path}: line 3: raw_score is not a number: 'x'\n"

    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"])
    def test_venue_score_lines_end_at_newlines_only(self, end):
        text = end.join(["# pscore venues", "", "venue\traw_score", "v\x1cone\t0.25", "v two\t0.75", "v3\tx"])
        with pytest.raises(ValidationError, match="^line 6: raw_score is not a number: 'x'$"):
            load_venue_scores(io.BytesIO(text.encode()))

    def test_json_error_counts_carriage_returns(self):
        with pytest.raises(ParseError, match="^line 2: malformed JSON: "):
            load_venue_scores(io.BytesIO(b'[{"venue": "v1",\r "raw_score": '))

    def test_header_error_names_the_header_line(self):
        with pytest.raises(ParseError, match="^line 3: header is missing column\\(s\\): raw_score$"):
            load_venue_scores(io.BytesIO(b"# pscore venues\n# d = 0.5\nvenue\tscore\nv1\t1\n"))

    def test_form_feed_inside_a_group_name(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text('{"group": "Group 1 Group 2", "authors": ["A"], "venue": "v1"}\n')
        groups = tmp_path / "groups.txt"
        groups.write_bytes(b"Group 1\x0cGroup 2\n")
        assert main(["validate", "--input", str(records), "--groups-file", str(groups)]) == 0
        assert "reference groups: 1\n" in capsys.readouterr().out


class TestBlankLinesBeforeCsvHeader:
    """Empty lines before a CSV header are skipped, as they are after it."""

    def test_records_csv(self):
        text = "id,title,group,authors,venue,year\np1,T,G,A,v1,2014\n"
        table = ingest(io.StringIO("\n\r\n" + text, newline=""), "csv", ["G"])
        assert (table.venue_names, table.n_group.tolist()) == (("v1",), [1])
        with pytest.raises(ParseError, match="^line 3: header is missing column"):
            ingest(io.StringIO("\n\nid,group\n"), "csv", ["G"])

    def test_author_counts_csv(self):
        assert parse_author_counts(io.StringIO("\n\n"), "csv") == {}
        assert parse_author_counts(io.StringIO("\nvenue,count\nv1,3\n"), "csv") == {"v1": 3}


def test_quoted_venue_name_round_trips(tmp_path, caplog):
    venue = '"Quoted" Conf, 2nd'
    records = tmp_path / "records.jsonl"
    records.write_text("".join(json.dumps({"group": g, "authors": [a], "venue": v}) + "\n" for g, a, v in [
        ("G1", "A", venue), ("G1", "B", "v2"), ("G2", "B", "v2"), ("G2", "A", venue), ("G2", "C", venue),
    ]))
    pubs = tmp_path / "pubs.jsonl"
    pubs.write_text(json.dumps({"author": "Ann", "venue": venue, "count": 1}) + "\n"
                    + json.dumps({"author": "Bo", "venue": "v2", "count": 1}) + "\n")
    reports = []
    for fmt in ("tsv", "json"):
        scores = tmp_path / f"venues.{fmt}"
        assert main(["venues", "--input", str(records), "--group", "G1", "--group", "G2",
                     "--format", fmt, "-o", str(scores)]) == 0
        with open(scores, "rb") as fh:
            assert load_venue_scores(fh).names == (venue, "v2")
        out = tmp_path / f"authors.{fmt}.tsv"
        with caplog.at_level("WARNING", logger="pscore.scoring"):
            assert authors(scores, pubs, "-o", str(out)) == 0
        reports.append(out.read_text())
    assert "outside the scored set" not in caplog.text
    assert reports[0] == reports[1] == "# pscore authors\nrank\tname\tscore\n1\tAnn\t1.000000\n2\tBo\t0.577778\n"
