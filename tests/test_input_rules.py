"""One rule per input value, and one place that writes where an input error is.

``records.check_count`` says what a count is: an integer, not a ``bool``,
in [low, 2**53]. ``records.required_name`` says what a name is: a string
that is not blank. ``records.author_names`` says what an author list is: a
list of strings with at least one name that is not blank.
``records.check_score`` says what a venue score is: a value ``float()``
reads, not a ``bool``, that is finite and nonnegative; a venue-score file
and a library ``ScoreVector`` both go through it. ``records.listed_name`` adds the repeat rule to the name rule: a name
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

from pscore import CountsTable, DatasetError, ParameterError, ParseError, PublicationRecord, ScoreVector
from pscore import ValidationError, aggregate, build_dataset, ingest, make_ranking, parse_author_counts
from pscore import parse_records, rank_authors
from pscore.cli import _file_context, build_parser
from pscore.records import MAX_COUNT, check_score, load_author_pubs, locating
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


# ---------------------------------------------------------------------------
# the score rule, in a venue-score file and in a library score vector


@pytest.mark.parametrize("value, message", [
    ("x", "raw_score is not a number: 'x'"),
    (None, "raw_score is not a number: None"),
    (True, "raw_score is not a number: True"),
    ("-1", "raw_score must be finite and nonnegative, got '-1'"),
    ("nan", "raw_score must be finite and nonnegative, got 'nan'"),
    (float("inf"), "raw_score must be finite and nonnegative, got inf"),
    (2**1024, f"raw_score must be finite and nonnegative, got {2**1024}"),
], ids=["text", "null", "bool", "negative", "nan", "inf", "int-overflow"])
def test_score_rule(value, message):
    with pytest.raises(ValidationError) as exc:
        check_score(value, 7)
    assert (str(exc.value), exc.value.line, exc.value.field) == (f"line 7: {message}", 7, "raw_score")


def test_score_rule_reads_what_float_reads():
    assert [check_score(v) for v in (0, "0.25", " 1e-3 ", np.float64(0.5), 2**53)] == [0.0, 0.25, 1e-3, 0.5, 2.0**53]


@pytest.mark.parametrize("names, scores, text, entry, field", [
    (("v1", "V1"), (0.5, 0.5), "entry 1: venue 'V1' is listed twice (first at entry 0)", 1, "venue"),
    (("v1",), (float("nan"),), "entry 0: raw_score must be finite and nonnegative, got nan", 0, "raw_score"),
    (("a",), ("x",), "entry 0: raw_score is not a number: 'x'", 0, "raw_score"),
    (("a", "b"), (0.5, True), "entry 1: raw_score is not a number: True", 1, "raw_score"),
    (("a", " "), (0.5, 0.5), "entry 1: field 'venue' is empty", 1, "venue"),
    (("a", 5), (0.5, 0.5), "entry 1: field 'venue' must be a string", 1, "venue"),
], ids=["repeat", "nan", "text", "bool", "blank-name", "non-string-name"])
def test_score_vector_follows_the_venue_score_rules(names, scores, text, entry, field):
    with pytest.raises(ValidationError) as exc:
        ScoreVector(names, scores)
    assert (str(exc.value), exc.value.entry, exc.value.line, exc.value.field) == (text, entry, None, field)


def test_score_vector_holds_normalized_names_and_floats():
    nu = ScoreVector((" v  1 ", "v2"), ("0.25", np.float64(0.75)))
    assert (nu.names, nu.scores) == (("v 1", "v2"), (0.25, 0.75))
    assert [type(s) for s in nu.scores] == [float, float]


# ---------------------------------------------------------------------------
# the record fields that only parse_records and ingest read


RECORD_READERS = {
    "parse_records": lambda text: parse_records(io.StringIO(text), "jsonl"),
    "ingest": lambda text: ingest(io.StringIO(text), "jsonl", ["G"], years=(None, 2030)),
}


@pytest.mark.parametrize("reader", RECORD_READERS)
@pytest.mark.parametrize("fields, text, field", [
    ({"title": 5}, "field 'title' must be a string", "title"),
    ({"year": True}, "field 'year' must be an integer", "year"),
    ({"year": "20x"}, "field 'year' must be an integer, got '20x'", "year"),
    ({"id": 1.5}, "field 'id' must be a string", "id"),
    ({"id": False}, "field 'id' must be a string", "id"),
], ids=["title", "bool-year", "text-year", "float-id", "bool-id"])
def test_record_field_rules(reader, fields, text, field):
    lines = json.dumps(author_line(["A"])) + "\n" + json.dumps({**author_line(["A"]), **fields}) + "\n"
    with pytest.raises(ValidationError) as exc:
        RECORD_READERS[reader](lines)
    assert (str(exc.value), exc.value.line, exc.value.field) == (f"line 2: {text}", 2, field)


@pytest.mark.parametrize("read", [
    pytest.param(lambda: ingest(jsonl(author_line(["A"])), "jsonl", []), id="ingest"),
    pytest.param(lambda: build_dataset([PublicationRecord(group="G", authors=("A",), venue="v1")], []),
                 id="build_dataset"),
])
def test_empty_reference_group_list(read):
    with pytest.raises(DatasetError) as exc:
        read()
    assert (type(exc.value), str(exc.value)) == (DatasetError, "reference group list is empty")


def test_unknown_author_count_format():
    with pytest.raises(ValidationError) as exc:
        parse_author_counts(io.StringIO("venue\tcount\nv1\t3\n"), "tsv")
    assert (str(exc.value), exc.value.line, exc.value.field) == (
        "unknown author-count format 'tsv'; expected 'jsonl' or 'csv'", None, None)


# ---------------------------------------------------------------------------
# library arguments: a counts table, a ranking, a year window, a group subset


CELLS = {"group": [0], "venue": [0], "n_group_venue": [1], "d_venue": [1]}


@pytest.mark.parametrize("field, values, text", [
    ("n_group_venue", [1.5], "n_group_venue must hold integers, got 1.5"),
    ("d_venue", [2.7], "d_venue must hold integers, got 2.7"),
    ("n_group_venue", ["3"], "n_group_venue must hold integers, got '3'"),
    ("n_group_venue", [True], "n_group_venue must hold integers, got True"),
    ("group", np.array([0.0]), "group must hold integers, got 0.0"),
    ("venue", [False], "venue must hold integers, got False"),
    ("d_venue", [MAX_COUNT + 1], f"d_venue must not exceed 2**53, got {MAX_COUNT + 1}"),
    ("n_group_venue", np.array([2**63], dtype=np.uint64), f"n_group_venue must not exceed 2**53, got {2**63}"),
    ("n_group_venue", [2**70], f"n_group_venue must not exceed 2**53, got {2**70}"),
], ids=["float-count", "float-d-venue", "text-count", "bool-count", "float-group", "bool-venue",
        "d-venue-past-2**53", "uint64-past-int64", "object-past-int64"])
def test_counts_table_refuses_counts_that_are_not_integers(field, values, text):
    with pytest.raises(ValidationError) as exc:
        CountsTable(**{**CELLS, field: values}, group_names=["g"], venue_names=["v"])
    assert (str(exc.value), exc.value.line, exc.value.field) == (text, None, field)


@pytest.mark.filterwarnings("error")  # no numpy cast warning on the way
@pytest.mark.parametrize("cells, text", [
    ([2**62, 2**62], f"n_group_venue must not exceed 2**53, got {2**62}"),
    ([2**52, 2**52 + 1], "n_group_venue sums past 2**53 at venue 0"),
], ids=["cells-past-2**53", "venue-sum-past-2**53"])
def test_counts_table_refuses_a_marginal_past_2_53(cells, text):
    with pytest.raises(ValidationError) as exc:
        CountsTable([0, 1], [0, 0], cells, [1], ["g", "h"], ["v"])
    assert (str(exc.value), exc.value.field) == (text, "n_group_venue")
    table = CountsTable([0, 1], [0, 0], [2**52, 2**52], [1], ["g", "h"], ["v"])
    assert table.n_venue.tolist() == [MAX_COUNT]


@pytest.mark.parametrize("names, scores, text, entry, field", [
    (["a", "b"], [1.0], "2 names to rank but 1 scores", None, None),
    (["a"], ["x"], "a score to rank is not a number (could not convert string to float: 'x')", None, "score"),
    (["a", "b"], [float("nan"), 1.0], "entry 0: score must be finite, got nan", 0, "score"),
    (["a", "b"], [1.0, float("-inf")], "entry 1: score must be finite, got -inf", 1, "score"),
], ids=["length", "text", "nan", "inf"])
def test_make_ranking_refuses_scores_it_cannot_rank(names, scores, text, entry, field):
    with pytest.raises(ValidationError) as exc:
        make_ranking(names, scores)
    assert (str(exc.value), exc.value.entry, exc.value.field) == (text, entry, field)


@pytest.mark.parametrize("years", [(2010,), ("a", None), (None, True), 2010, (2010, 2012, 2014)])
def test_year_window_must_be_a_pair_of_integers(years):
    with pytest.raises(ParameterError) as exc:
        ingest(jsonl({**author_line(["A"]), "year": 2011}), "jsonl", ["G"], years=years)
    assert str(exc.value) == f"years must be a (start, end) pair of integers or None, got {years!r}"


@pytest.mark.parametrize("years, kept", [(None, 1), ((None, None), 1), ([2010, None], 1), ((2012, 2014), 0)])
def test_year_window_as_a_pair(years, kept):
    lines = jsonl({**author_line(["A"]), "year": 2011}, {**author_line(["B"]), "group": "H"})
    if kept:
        assert ingest(lines, "jsonl", ["G"], years=years).n_group.tolist() == [kept]
    else:
        with pytest.raises(DatasetError):
            ingest(lines, "jsonl", ["G"], years=years)


@pytest.mark.parametrize("indices, text", [
    ([5], "group index 5 is outside the table's 2 groups"),
    ([0, -1], "group index -1 is outside the table's 2 groups"),
])
def test_restrict_refuses_a_group_outside_the_table(indices, text):
    table = CountsTable([0, 1], [0, 0], [1, 2], [1], ["g", "h"], ["v"])
    with pytest.raises(ParameterError) as exc:
        table.restrict(indices)
    assert str(exc.value) == text
    with pytest.raises(ValidationError) as exc:
        table.restrict([0.5])
    assert (str(exc.value), exc.value.field) == ("group_indices must hold integers, got 0.5", "group_indices")
    assert table.restrict([1])[0].group_names == ("h",)
