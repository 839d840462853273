"""One rule per input value, and one place that writes where an input error is.

``records.check_count`` says what a count is: an integer, not a ``bool``,
in [low, 2**53]. ``records.required_name`` says what a name is: a string
that is not blank. ``records.author_names`` says what an author list is: a
list of strings with at least one name that is not blank.
``records.listed_name`` adds the repeat rule to the name rule: a name
list may not name one thing twice, in any case or spacing. Every entry
point that reads one of them, from a file or from a library caller's
mapping, goes through the rule, so each gives the same messages, with the
line or entry when there is one and the field always. An input error
keeps its file, entry, line and field as attributes, and only its
``str`` writes them in front of the message.
"""

import io
import json
import pickle

import numpy as np
import pytest

from pscore import ParseError, PublicationRecord, ScoreVector, ValidationError, aggregate
from pscore import build_dataset, ingest, parse_author_counts, parse_records, rank_authors
from pscore.cli import _file_context, build_parser
from pscore.records import MAX_COUNT, load_author_pubs, locating
from pscore.scoring import load_venue_scores

TABLE = build_dataset([PublicationRecord(group="G1", authors=("A",), venue="v1")], ["G1"])
NU = ScoreVector(("v1",), (1.0,))


def jsonl(*objects):
    return io.StringIO("".join(json.dumps(obj) + "\n" for obj in objects))


# the lowest count it takes, what its messages call a count, the line of the count, whether it reads CSV text, a run
ENTRY_POINTS = [
    pytest.param(1, "'count'", 2, False, lambda count: parse_author_counts(
        jsonl({"venue": "v0", "count": 1}, {"venue": "v1", "count": count}), "jsonl"), id="parse_author_counts-jsonl"),
    pytest.param(1, "'count'", 3, True, lambda count: parse_author_counts(
        io.StringIO(f"venue,count\nv0,1\nv1,{count}\n"), "csv"), id="parse_author_counts-csv"),
    pytest.param(1, "'count'", 2, False, lambda count: load_author_pubs(
        jsonl({"author": "A", "venue": "v0", "count": 1}, {"author": "A", "venue": "v1", "count": count})),
        id="load_author_pubs"),
    pytest.param(1, "author-count override for 'v1'", None, False,
                 lambda count: aggregate(TABLE, {"v1": count}), id="aggregate"),
    pytest.param(0, "publication count for author 'A'", None, False,
                 lambda count: rank_authors({"A": {"v1": count}, "B": {"v1": 1}}, NU), id="rank_authors"),
]


@pytest.mark.parametrize("low, what, line, csv, read", ENTRY_POINTS)
def test_count_rule(low, what, line, csv, read):
    at = f"line {line}: " if line else ""
    read(low)
    read(MAX_COUNT)
    for bad in (True, 2.5, "x"):
        with pytest.raises(ValidationError) as exc:
            read(bad)
        seen = str(bad) if csv else bad  # a CSV field that is not an integer stays text
        assert (str(exc.value), exc.value.line, exc.value.field) == (
            f"{at}{what} must be an integer, got {seen!r}", line, "count")
    for bad in (low - 1, MAX_COUNT + 1):
        with pytest.raises(ValidationError) as exc:
            read(bad)
        assert (str(exc.value), exc.value.line, exc.value.field) == (
            f"{at}{what} must lie in [{low}, 2**53], got {bad}", line, "count")


def test_numpy_integer_counts_are_counts():
    assert aggregate(TABLE, {"v1": np.int64(5)}).d_venue.tolist() == [5]
    ranking = rank_authors({"A": {"v1": np.int64(5)}, "B": {"v1": 1}}, NU)
    assert [(e.name, e.score) for e in ranking.entries] == [("A", 1.0), ("B", 0.2)]


@pytest.mark.parametrize("read", [
    pytest.param(lambda venue: aggregate(TABLE, {venue: 3}), id="aggregate"),
    pytest.param(lambda venue: rank_authors({"a": {venue: 1}}, NU), id="rank_authors"),
])
@pytest.mark.parametrize("venue, message", [
    (5, "field 'venue' must be a string"),
    (None, "missing required field 'venue'"),
    ("", "field 'venue' is empty"),
    (" \t", "field 'venue' is empty"),
])
def test_library_venue_names_follow_the_name_rule(read, venue, message):
    with pytest.raises(ValidationError) as exc:
        read(venue)
    assert (str(exc.value), exc.value.line, exc.value.field) == (message, None, "venue")


@pytest.mark.parametrize("text, message", [
    ('{"venue": 5, "count": 1}\n', "line 1: field 'venue' must be a string"),
    ('{"count": 1}\n', "line 1: missing required field 'venue'"),
    ('{"venue": " ", "count": 1}\n', "line 1: field 'venue' is empty"),
])
def test_author_count_venue_follows_the_name_rule(text, message):
    with pytest.raises(ValidationError) as exc:
        parse_author_counts(io.StringIO(text), "jsonl")
    assert (str(exc.value), exc.value.field) == (message, "venue")



def test_jsonl_count_text_is_not_a_count():
    with pytest.raises(ValidationError) as exc:
        parse_author_counts(jsonl({"venue": "v0", "count": 1}, {"venue": "v1", "count": " 12 "}), "jsonl")
    assert (str(exc.value), exc.value.line, exc.value.field) == (
        "line 2: 'count' must be an integer, got ' 12 '", 2, "count")
    assert parse_author_counts(io.StringIO("venue,count\nv1, 12 \n"), "csv") == {"v1": 12}


@pytest.mark.parametrize("count, message", [
    (-5, "author-count override for 'nowhere' must lie in [1, 2**53], got -5"),
    ("3", "author-count override for 'nowhere' must be an integer, got '3'"),
])
def test_override_for_an_unknown_venue_is_checked(count, message):
    with pytest.raises(ValidationError) as exc:
        aggregate(TABLE, {"nowhere": count})
    assert (str(exc.value), exc.value.line, exc.value.field) == (message, None, "count")


@pytest.mark.parametrize("author, message", [
    (5, "field 'author' must be a string"),
    (None, "missing required field 'author'"),
    (" ", "field 'author' is empty"),
])
def test_library_author_names_follow_the_name_rule(author, message):
    with pytest.raises(ValidationError) as exc:
        rank_authors({author: {"v1": 1}, "b": {"v1": 2}}, NU)
    assert (str(exc.value), exc.value.line, exc.value.field) == (message, None, "author")


def test_library_author_names_are_ranked_as_given():
    ranking = rank_authors({" Ana  Silva": {"v1": 2}, "bo": {"v1": 1}}, NU)
    assert [(e.name, e.score) for e in ranking.entries] == [(" Ana  Silva", 1.0), ("bo", 0.5)]


@pytest.mark.parametrize("group", [5, None])
def test_reference_group_that_is_not_a_string(group):
    with pytest.raises(ValidationError) as exc:
        ingest(jsonl({"authors": ["A"], "group": "G", "venue": "v1"}), "jsonl", ["G", group])
    message = "missing required field 'group'" if group is None else "field 'group' must be a string"
    assert (str(exc.value), exc.value.entry, exc.value.field) == (f"entry 1: {message}", 1, "group")


# ---------------------------------------------------------------------------
# the author-list rule


def author_line(authors):
    return {"authors": authors, "group": "G", "venue": "v1"}


def csv_records(authors):
    return io.StringIO(f"id,title,group,authors,venue,year\n,,G,{authors},v1,\n")


def ingested(table):
    """The authors ingest credited, as a count: the distinct authors at the one venue."""
    return table.d_venue.tolist()


# each loader reads the list on line 2, after a good line (after the header in CSV), and gives what it credited
AUTHOR_LIST_LOADERS = {
    "ingest-jsonl": lambda authors: ingested(ingest(jsonl(author_line(["A"]), author_line(authors)), "jsonl", ["G"])),
    "parse_records": lambda authors: [r.authors for r in parse_records(
        jsonl(author_line(["A"]), author_line(authors)), "jsonl")],
    "load_author_pubs": lambda authors: load_author_pubs(jsonl(author_line(["A"]), author_line(authors))),
    "ingest-csv": lambda authors: ingested(ingest(csv_records(authors), "csv", ["G"])),
}
CREDITED_A = {"ingest-jsonl": [1], "parse_records": [("A",), ("A",)], "load_author_pubs": {"A": {"v1": 2}},
              "ingest-csv": [1]}
# (case, the list as JSON, the same list as CSV text or None where CSV cannot write it, the message or None)
AUTHOR_LISTS = [
    ("missing", None, "", "missing required field 'authors'"),
    ("string", "A", None, "field 'authors' must be an array of strings"),
    ("empty", [], None, "field 'authors' is empty"),
    ("blank", [" "], " ; ", "field 'authors' is empty"),
    ("non-string", ["A", 5], None, "field 'authors' must be an array of strings"),
    ("one-blank", ["A", " "], "A; ", None),
]


@pytest.mark.parametrize("loader, authors, message", [
    pytest.param(loader, csv_text if loader == "ingest-csv" else authors, message, id=f"{loader}-{case}")
    for loader in AUTHOR_LIST_LOADERS
    for case, authors, csv_text, message in AUTHOR_LISTS
    if loader != "ingest-csv" or csv_text is not None
])
def test_author_list_rule(loader, authors, message):
    read = AUTHOR_LIST_LOADERS[loader]
    if message is None:
        assert read(authors) == CREDITED_A[loader]
        return
    with pytest.raises(ValidationError) as exc:
        read(authors)
    assert (str(exc.value), exc.value.line, exc.value.field) == (f"line 2: {message}", 2, "authors")


def test_author_line_checks_the_authors_before_the_venue():
    with pytest.raises(ValidationError) as exc:
        load_author_pubs(jsonl({"authors": [], "venue": " "}))
    assert (str(exc.value), exc.value.field) == ("line 1: field 'authors' is empty", "authors")


def test_build_dataset_follows_the_author_list_rule():
    record = PublicationRecord(group="G", authors=(" ", "A"), venue="v1")
    assert build_dataset([record], ["G"]).d_venue.tolist() == [1]
    with pytest.raises(ValidationError) as exc:
        build_dataset([PublicationRecord(group="G", authors=(" ",), venue="v1")], ["G"])
    assert (str(exc.value), exc.value.line, exc.value.field) == ("field 'authors' is empty", None, "authors")


# ---------------------------------------------------------------------------
# where an input error is


def test_file_context_reraises_the_same_error_with_its_file(tmp_path):
    path = tmp_path / "pubs.jsonl"
    path.write_text('{"authors": ["A"], "venue": "v1"}\n{"authors": [], "venue": "v1"}\n')
    raised = []
    with pytest.raises(ValidationError) as exc:
        with _file_context(str(path)) as fh:
            try:
                load_author_pubs(fh)
            except ValidationError as error:
                raised.append(error)
                raise
    assert exc.value is raised[0]
    assert (exc.value.file, exc.value.line, exc.value.field) == (str(path), 2, "authors")
    assert str(exc.value) == f"{path}: line 2: field 'authors' is empty"


@pytest.mark.parametrize("error, file, entry, text", [
    (ValidationError("field 'authors' is empty", line=3, field="authors"), "pubs.jsonl", None,
     "pubs.jsonl: line 3: field 'authors' is empty"),
    (ParseError("malformed JSON: x", line=1), None, None, "line 1: malformed JSON: x"),
    (ValidationError("no venue scores found"), "scores.tsv", None, "scores.tsv: no venue scores found"),
    (ValidationError("no venue scores found"), None, None, "no venue scores found"),
    (ValidationError("field 'venue' is empty", field="venue"), "scores.json", 2,
     "scores.json: entry 2: field 'venue' is empty"),
], ids=["file-and-line", "line", "file", "neither", "file-and-entry"])
def test_located_error_survives_pickle(error, file, entry, text):
    with pytest.raises(type(error)), locating(file=file, entry=entry):
        raise error
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error) == text
    assert (back.file, back.entry, back.line, back.field) == (error.file, error.entry, error.line, error.field)


@pytest.mark.parametrize("rows, line, field, message", [
    ("v1\tx\n", 3, "raw_score", "raw_score is not a number: 'x'"),
    ("v1\t-1\n", 3, "raw_score", "raw_score must be finite and nonnegative, got '-1'"),
    ("\t1\n", 3, "venue", "field 'venue' is empty"),
    ("v1\t0.5\n\nV1\t0.5\n", 5, "venue", "venue 'V1' is listed twice (first at line 3)"),
])
def test_venue_score_tsv_errors_carry_line_and_field(rows, line, field, message):
    with pytest.raises(ValidationError) as exc:
        load_venue_scores(io.StringIO(f"# pscore venues\nvenue\traw_score\n{rows}"))
    assert (str(exc.value), exc.value.line, exc.value.field) == (f"line {line}: {message}", line, field)


def test_venue_score_json_errors_name_the_entry():
    with pytest.raises(ValidationError) as exc:
        load_venue_scores(io.StringIO('[{"venue": "v1", "raw_score": 1}, {"venue": "v2", "raw_score": "x"}]'))
    assert (str(exc.value), exc.value.entry, exc.value.line, exc.value.field) == (
        "entry 1: raw_score is not a number: 'x'", 1, None, "raw_score")


# ---------------------------------------------------------------------------
# the repeat rule and the name rule over every name list


def cli(*argv):
    """A run of ``pscore argv`` that raises its error instead of printing it."""
    def run():
        args = build_parser().parse_args(argv)
        args.func(args)
    return run


RECORDS = {"r.jsonl": '{"authors": ["A"], "group": "G1", "venue": "v1"}\n'}
PUBS = {"p.jsonl": '{"author": "A", "venue": "v1", "count": 1}\n'}
ON_GROUPS = ("validate", "--input", "r.jsonl")
ON_COUNTS = (*ON_GROUPS, "--group", "G1", "--author-counts")
ON_SCORES = ("authors", "--author-pubs", "p.jsonl", "--venue-scores")

# (the run, its input files, str of its error, and the error's file, entry, line and field);
# a groups file skips blank lines, so no line of it can break the name rule
NAME_LISTS = [
    pytest.param(cli(*ON_GROUPS, "--groups-file", "groups.txt"), {**RECORDS, "groups.txt": "G1\n\n g1 \n"},
                 "groups.txt: line 3: group 'g1' is listed twice (first at --groups-file line 1)",
                 "groups.txt", None, 3, "group", id="groups-file-repeat"),
    pytest.param(cli(*ON_GROUPS, "--group", "G1", "--group", "g1 "), RECORDS,
                 "group 'g1' is listed twice (first at --group)", None, None, None, "group", id="group-repeat"),
    pytest.param(cli(*ON_GROUPS, "--groups-file", "groups.txt", "--group", "g1"), {**RECORDS, "groups.txt": "G1\n"},
                 "group 'g1' is listed twice (first at --groups-file line 1)", None, None, None, "group",
                 id="groups-file-and-group-repeat"),
    pytest.param(cli(*ON_GROUPS, "--group", "G1", "--group", " "), RECORDS,
                 "field 'group' is empty", None, None, None, "group", id="group-name"),
    pytest.param(lambda: ingest(io.StringIO(RECORDS["r.jsonl"]), "jsonl", ["G1", " g1"]), {},
                 "entry 1: group 'g1' is listed twice (first at entry 0)", None, 1, None, "group",
                 id="library-groups-repeat"),
    pytest.param(lambda: build_dataset([], ["G1", " "]), {},
                 "entry 1: field 'group' is empty", None, 1, None, "group", id="library-groups-name"),
    pytest.param(lambda: aggregate(TABLE, {"v1": 3, " V1": 4}), {},
                 "venue 'V1' is listed twice (first at key 'v1')", None, None, None, "venue",
                 id="library-author-counts-repeat"),
    pytest.param(cli(*ON_COUNTS, "c.jsonl"), {**RECORDS, "c.jsonl": '{"venue": "v1", "count": 3}\n'
                                                                 '{"venue": " V1", "count": 4}\n'},
                 "c.jsonl: line 2: venue 'V1' is listed twice (first at line 1)", "c.jsonl", None, 2, "venue",
                 id="author-counts-jsonl-repeat"),
    pytest.param(cli(*ON_COUNTS, "c.jsonl"), {**RECORDS, "c.jsonl": '{"venue": "v1", "count": 3}\n{"count": 4}\n'},
                 "c.jsonl: line 2: missing required field 'venue'", "c.jsonl", None, 2, "venue",
                 id="author-counts-jsonl-name"),
    pytest.param(cli(*ON_COUNTS, "c.csv"), {**RECORDS, "c.csv": "venue,count\nv1,3\nV1 ,4\n"},
                 "c.csv: line 3: venue 'V1' is listed twice (first at line 2)", "c.csv", None, 3, "venue",
                 id="author-counts-csv-repeat"),
    pytest.param(cli(*ON_COUNTS, "c.csv"), {**RECORDS, "c.csv": "venue,count\nv1,3\n ,4\n"},
                 "c.csv: line 3: field 'venue' is empty", "c.csv", None, 3, "venue", id="author-counts-csv-name"),
    pytest.param(cli(*ON_SCORES, "s.tsv"), {**PUBS, "s.tsv": "venue\traw_score\nv1\t0.5\nV1\t0.5\n"},
                 "s.tsv: line 3: venue 'V1' is listed twice (first at line 2)", "s.tsv", None, 3, "venue",
                 id="venue-scores-tsv-repeat"),
    pytest.param(cli(*ON_SCORES, "s.tsv"), {**PUBS, "s.tsv": "venue\traw_score\nv1\t0.5\n \t0.5\n"},
                 "s.tsv: line 3: field 'venue' is empty", "s.tsv", None, 3, "venue", id="venue-scores-tsv-name"),
    pytest.param(cli(*ON_SCORES, "s.json"), {**PUBS, "s.json": '[{"venue": "v1", "raw_score": 0.5},'
                                                               ' {"venue": "v 1", "raw_score": 0.25},'
                                                               ' {"venue": "V1", "raw_score": 0.25}]'},
                 "s.json: entry 2: venue 'V1' is listed twice (first at entry 0)", "s.json", 2, None, "venue",
                 id="venue-scores-json-repeat"),
    pytest.param(cli(*ON_SCORES, "s.json"), {**PUBS, "s.json": '[{"venue": "v1", "raw_score": 0.5},'
                                                               ' {"venue": 5, "raw_score": 0.5}]'},
                 "s.json: entry 1: field 'venue' must be a string", "s.json", 1, None, "venue",
                 id="venue-scores-json-name"),
]


@pytest.mark.parametrize("run, files, text, file, entry, line, field", NAME_LISTS)
def test_every_name_list_follows_the_name_and_repeat_rules(tmp_path, monkeypatch, run, files, text, file, entry,
                                                           line, field):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    with pytest.raises(ValidationError) as exc:
        run()
    assert (str(exc.value), exc.value.file, exc.value.entry, exc.value.line, exc.value.field) == (
        text, file, entry, line, field)
    assert "r.jsonl" not in str(exc.value)  # a group list error is never the records file's
