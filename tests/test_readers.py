"""Every input goes through the shared readers, with one line-ending rule.

``records.text_stream`` decodes each file, its lines end at ``\\n``, ``\\r``
or ``\\r\\n`` and nowhere else, and ``records.csv_rows`` splits the records
CSV, the author-count CSV and the venue-score TSV into rows. A CSV error
is a ``ParseError`` naming the file and line; the venue-score TSV has no
quoting, so a venue name holding quotes and commas comes back as written.
Bytes that are not UTF-8 are a ``ParseError`` from ``text_stream`` itself,
naming the line when the stream can seek back and no line when it cannot,
so every library reader reports them without code of its own; a stream
already opened as text fails in its own decoder, and that too is a
``ParseError``, with no line. The CLI
opens each input once, so a pipe gives the same report as a file.
"""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from pscore import InternalError, ParseError, PScoreError, ValidationError, ingest, parse_author_counts
from pscore.cli import main
from pscore.records import MAX_COUNT, load_author_pubs, parse_records
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
    assert_venue_round_trips(tmp_path, caplog, '"Quoted" Conf, 2nd')


def test_hash_venue_name_round_trips(tmp_path, caplog):
    # `#` lines are comments only above the header, so this venue's row is read as data
    assert_venue_round_trips(tmp_path, caplog, "#1 Conf")


def assert_venue_round_trips(tmp_path, caplog, venue):
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


# each reader with a file whose third line holds a byte that is not UTF-8
BAD_ON_LINE_3 = [
    pytest.param(lambda fh: ingest(fh, "jsonl", ["G"]),
                 b'{"group": "G", "authors": ["A"], "venue": "v1"}\n' * 2
                 + b'{"group": "G", "authors": ["\xff"], "venue": "v1"}\n', id="ingest-jsonl"),
    pytest.param(lambda fh: ingest(fh, "csv", ["G"]),
                 b"id,title,group,authors,venue,year\np1,T,G,A,v1,2013\np2,T,G,\xff,v1,2013\n", id="ingest-csv"),
    pytest.param(lambda fh: parse_records(fh, "jsonl"),
                 b'{"group": "G", "authors": ["A"], "venue": "v1"}\r\n\r\n'
                 + b'{"group": "G", "authors": ["\xc3"], "venue": "v1"}\n', id="parse_records-jsonl"),
    pytest.param(lambda fh: parse_records(fh, "csv"),
                 b"id,title,group,authors,venue,year\rp1,T,G,A,v1,2013\rp2,T,G,A,v\xff,2013\r", id="parse_records-csv"),
    pytest.param(lambda fh: parse_author_counts(fh, "jsonl"),
                 b'{"venue": "v1", "count": 3}\n\n{"venue": "v\xff", "count": 3}\n', id="parse_author_counts-jsonl"),
    pytest.param(lambda fh: parse_author_counts(fh, "csv"),
                 b"venue,count\nv1,10\nv\xff,5\n", id="parse_author_counts-csv"),
    pytest.param(load_author_pubs,
                 b'{"author": "A", "venue": "v1", "count": 1}\n' * 2
                 + b'{"authors": ["\xff"], "venue": "v1"}\n', id="load_author_pubs"),
    pytest.param(load_venue_scores, b"venue\traw_score\nv1\t1\nv\xff\t0\n", id="load_venue_scores-tsv"),
    pytest.param(load_venue_scores,
                 b'[{"venue": "v1", "raw_score": 1},\n {"venue": "v2", "raw_score": 0},\n'
                 b' {"venue": "v\xff", "raw_score": 0}]\n', id="load_venue_scores-json"),
]


def pipe(data: bytes):
    """A binary stream over a pipe, which cannot seek, holding ``data``."""
    read_end, write_end = os.pipe()
    with open(write_end, "wb") as fh:
        fh.write(data)  # small enough for the pipe's buffer
    return open(read_end, "rb")


class TestUndecodableBytes:
    @pytest.mark.parametrize("read, data", BAD_ON_LINE_3)
    def test_seekable_stream_names_the_line(self, read, data):
        stream = io.BytesIO(b"skipped by the caller\n" + data)
        stream.readline()  # the line is counted from where the read began
        with pytest.raises(ParseError, match="^line 3: not UTF-8 text \\(") as exc:
            read(stream)
        assert exc.value.line == 3

    @pytest.mark.parametrize("read, data", BAD_ON_LINE_3)
    def test_pipe_names_no_line(self, read, data):
        with pipe(data) as fh, pytest.raises(ParseError, match="^not UTF-8 text \\(") as exc:
            read(fh)
        assert exc.value.line is None

    @pytest.mark.parametrize("read, data", BAD_ON_LINE_3)
    def test_text_stream_names_no_line(self, tmp_path, read, data):
        # a stream opened as text fails in its own decoder, which tells no line
        path = tmp_path / "input"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as fh, pytest.raises(ParseError, match="^not UTF-8 text \\(") as exc:
            read(fh)
        assert exc.value.line is None


SRC = str(Path(__file__).resolve().parents[1] / "src")


def pscore(*argv: str, stdin: bytes = b"") -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "pscore.cli", *argv], input=stdin, env=env,
                          capture_output=True, check=False)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
class TestPipedInput:
    """An input read from a pipe gives the report that the same file gives."""

    def test_records(self, tmp_path):
        # 512 lines of 128 bytes: a 16 KiB read ahead of the reader would end on a line end
        lines = []
        for i in range(512):
            group, venue = ("G1", "v1") if i < 128 else ("G1" if i % 2 else "G2", "v2")
            record = {"id": f"p{i:03d}", "group": group, "authors": [f"a{i % 7}"], "venue": venue, "title": ""}
            record["title"] = "x" * (127 - len(json.dumps(record)))
            lines.append(json.dumps(record) + "\n")
        data = "".join(lines).encode()
        assert len(data) == 512 * 128
        records = tmp_path / "records"  # no suffix, so the format is sniffed in both runs
        records.write_bytes(data)
        groups = ["--group", "G1", "--group", "G2"]
        from_file = pscore("venues", "--input", str(records), *groups)
        from_pipe = pscore("venues", "--input", "/dev/stdin", *groups, stdin=data)
        assert (from_file.returncode, from_pipe.returncode) == (0, 0)
        assert b"\nv1\t" in from_file.stdout
        assert from_pipe.stdout == from_file.stdout

    def test_author_counts(self, tmp_path):
        dataset = ["--input", str(DATA_DIR / "golden_records.jsonl"),
                   "--groups-file", str(DATA_DIR / "golden_groups.txt")]
        counts = DATA_DIR / "golden_author_counts.csv"
        from_file = pscore("venues", *dataset, "--author-counts", str(counts))
        from_pipe = pscore("venues", *dataset, "--author-counts", "/dev/stdin", stdin=counts.read_bytes())
        assert (from_file.returncode, from_pipe.returncode) == (0, 0)
        assert from_file.stdout != pscore("venues", *dataset).stdout  # the overrides take effect
        assert from_pipe.stdout == from_file.stdout


OVERFLOWING_SCORE = b'[{"venue": "v", "raw_score": 1' + b"0" * 400 + b"}]"


def test_score_beyond_the_float_range():
    with pytest.raises(ValidationError, match="^entry 0: raw_score must be finite and nonnegative, got 10+$"):
        load_venue_scores(io.BytesIO(OVERFLOWING_SCORE))


VALID_AUTHOR_COUNTS = {
    "jsonl": b'{"venue": "v1", "count": 3}\n{"venue": "V 2", "count": 10}\n',
    "csv": b"venue,count\nv1,3\r\n\"V, 2\",10\n",
}
VALID_VENUE_SCORES = [
    b"# pscore venues\n# d = 0.5\nvenue\traw_score\tnormalized_score\nv1\t0.25\t0.333333333333\n#2\t0.75\t1\n",
    b'[{"venue": "v1", "raw_score": 0.25, "normalized_score": 0.333333333333},\n'
    b' {"venue": "#2", "raw_score": 0.75, "normalized_score": 1}]\n',
]
# bytes that matter to one reader or another
TOKENS = [b"\xff", b"\xc3", b"\x00", b"\n", b"\r", b"\t", b",", b'"', b"#", b"[", b"{", b"}", b" ",
          b"-", b".", b"e999", b"nan", b"inf", b"0" * 400, b"[" * 2000, b"\xef\xbb\xbf"]


@st.composite
def mutated(draw, valid: list[bytes]) -> bytes:
    """A valid file with a few bytes inserted, deleted or overwritten."""
    data = bytearray(draw(st.sampled_from(valid)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        chunk = draw(st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=3)))
        cut = draw(st.integers(0, 3))
        data[at:at + cut] = chunk if draw(st.booleans()) else b""
    return bytes(data)


def outcome_of(read, data: bytes):
    """What ``read`` gives for ``data``; a PScoreError other than InternalError is a valid answer."""
    try:
        return read(io.BytesIO(data))
    except PScoreError as exc:
        assert not isinstance(exc, InternalError), exc
        if "not UTF-8 text" in str(exc):
            assert exc.line is not None, exc  # a BytesIO can seek back
        return None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["jsonl", "csv"]).flatmap(
    lambda fmt: st.tuples(st.just(fmt), st.one_of(st.binary(max_size=64), mutated([VALID_AUTHOR_COUNTS[fmt]])))))
@example(("csv", b"venue,count\nv1,1" + b"0" * 400 + b"\n"))
@example(("jsonl", b'{"venue": "v1", "count": 3}\n\xff\n'))
def test_author_counts_return_or_raise_a_pscore_error(case):
    fmt, data = case
    counts = outcome_of(lambda fh: parse_author_counts(fh, fmt), data)
    if counts is not None:
        assert all(isinstance(c, int) and 1 <= c <= MAX_COUNT for c in counts.values())


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), mutated(VALID_VENUE_SCORES)))
@example(OVERFLOWING_SCORE)
@example(b"venue\traw_score\n#1 Conf\t1\n")
@example(b'[{"venue": "v", "raw_score": 1}]\n\xff')
def test_venue_scores_return_or_raise_a_pscore_error(data):
    # a venue-score JSON nested too deep or holding an over-long integer names no line: json gives none
    nu = outcome_of(load_venue_scores, data)
    if nu is not None:
        assert all(map(math.isfinite, nu.scores))


VALID_RECORDS = {
    "jsonl": b'{"id": "p1", "group": "G1", "authors": ["A", "B"], "venue": "v1", "year": 2013}\n'
             b'{"title": "T", "group": "g2", "authors": ["b"], "venue": "V1", "year": "2014"}\n'
             b'{"id": 7, "group": "Other", "authors": ["C"], "venue": "v2"}\n',
    "csv": b"id,title,group,authors,venue,year\np1,,G1,A;B,v1,2013\r\n,\"T, 2\",g2,b,V1,2014\n7,,Other,C,v2,\n",
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["jsonl", "csv"]).flatmap(
    lambda fmt: st.tuples(st.just(fmt), st.one_of(st.binary(max_size=64), mutated([VALID_RECORDS[fmt]])))),
    st.sampled_from([None, (2013, 2014)]))
@example(("jsonl", VALID_RECORDS["jsonl"]), None)
@example(("csv", VALID_RECORDS["csv"]), (2013, 2014))
def test_records_return_or_raise_a_pscore_error(case, years):
    fmt, data = case
    table = outcome_of(lambda fh: ingest(fh, fmt, ["G1", "G2"], years=years), data)
    if table is not None:
        assert table.n_group_venue.min() >= 1 and table.d_venue.min() >= 1
