"""The JSONL reader and the JSON error boundary of every loader.

``records.jsonl_objects`` decodes a line in one C call and falls back to
``json.loads`` for anything it does not end exactly at its newline. The
property below holds it to ``oracles.jsonl_objects``, which sends every
line through ``json.loads``. The regression tests feed each loader JSON
that ``json`` rejects with something other than ``JSONDecodeError``: an
integer past the digit limit, and nesting deeper than the recursion limit.
"""

import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import DATA_DIR
from pscore import ParseError, ingest, parse_author_counts
from pscore.cli import main
from pscore.records import jsonl_objects, load_author_pubs
from pscore.scoring import load_venue_scores

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**63, 2**63) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
OBJECTS = st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=4)


@st.composite
def jsonl_line(draw):
    kind = draw(st.integers(0, 9))
    if kind <= 4:
        body = json.dumps(draw(OBJECTS))
    elif kind == 5:
        body = json.dumps(draw(JSON_VALUES))  # often not an object
    elif kind == 6:
        body = json.dumps(draw(OBJECTS)) + draw(st.sampled_from([" x", "{}", " 1", "]"]))  # extra data
    elif kind == 7:
        body = json.dumps(draw(OBJECTS))
        body = body[: draw(st.integers(0, len(body)))]  # truncated
    elif kind == 8:
        body = draw(st.sampled_from(["", " ", "\t", "\x0c", "{oops", '{"a": NaN}', '{"a": -Infinity}']))
    else:
        body = "\ufeff" + json.dumps(draw(OBJECTS))
    lead = draw(st.sampled_from(["", "", " ", "\t"]))
    trail = draw(st.sampled_from(["", "", " ", "\t", "\x0c", " \t"]))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return lead + body + trail + end


def run(reader, text):
    """Everything the reader yields, then its error, if any."""
    items = []
    try:
        for lineno, obj in reader(io.StringIO(text, newline="")):
            items.append((lineno, json.dumps(obj)))  # json.dumps tells NaN, -0.0 and 1.0 apart
    except ParseError as exc:
        return items, (exc.line, str(exc))
    return items, None


@settings(max_examples=500, deadline=None)
@given(st.lists(jsonl_line(), max_size=12), st.booleans())
def test_fast_path_agrees_with_json_loads(lines, cut_last_newline):
    text = "".join(lines)
    if cut_last_newline:
        text = text.rstrip("\r\n")
    assert run(jsonl_objects, text) == run(oracles.jsonl_objects, text)


LONG_INT = "1" * 5000
DEEP = "[" * 200_000 + "]" * 200_000
BAD_LINES = {
    "long-int": '{"group": "G", "authors": ["a"], "venue": "v", "year": ' + LONG_INT + "}",
    "deep": DEEP,
}
GOOD_RECORD = '{"group": "G", "authors": ["a"], "venue": "v"}'


@pytest.fixture(params=sorted(BAD_LINES))
def bad_line(request):
    if request.param == "long-int" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length")
    return BAD_LINES[request.param]


def check_error(exc, line):
    assert exc.line == line
    assert str(exc).startswith(f"line {line}: malformed JSON: ")


def test_records_file(tmp_path, capsys, bad_line):
    path = tmp_path / "records.jsonl"
    path.write_text(GOOD_RECORD + "\n" + bad_line + "\n")
    with pytest.raises(ParseError) as exc, open(path, "rb") as fh:
        ingest(fh, "jsonl", ["G"])
    check_error(exc.value, 2)
    assert main(["venues", "--input", str(path), "--group", "G"]) == 1
    assert f"pscore: error: {path}: line 2: malformed JSON: " in capsys.readouterr().err


def test_author_counts_file(tmp_path, capsys, bad_line):
    path = tmp_path / "counts.jsonl"
    path.write_text('{"venue": "v1", "count": 3}\n' + bad_line + "\n")
    with pytest.raises(ParseError) as exc, open(path, "rb") as fh:
        parse_author_counts(fh, "jsonl")
    check_error(exc.value, 2)
    assert main(["venues", "--input", str(DATA_DIR / "golden_records.jsonl"),
                 "--groups-file", str(DATA_DIR / "golden_groups.txt"),
                 "--author-counts", str(path)]) == 1
    assert f"pscore: error: {path}: line 2: malformed JSON: " in capsys.readouterr().err


def test_author_pubs_file(tmp_path, capsys, bad_line):
    path = tmp_path / "pubs.jsonl"
    path.write_text('{"author": "A", "venue": "v1", "count": 1}\n' + bad_line + "\n")
    with pytest.raises(ParseError) as exc, open(path, "rb") as fh:
        load_author_pubs(fh)
    check_error(exc.value, 2)
    scores = tmp_path / "venues.tsv"
    scores.write_text("venue\traw_score\nv1\t1\n")
    assert main(["authors", "--venue-scores", str(scores), "--author-pubs", str(path)]) == 1
    assert f"pscore: error: {path}: line 2: malformed JSON: " in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[" + DEEP + "]",
    '[{"venue": "v1", "raw_score": ' + LONG_INT + "}]",
], ids=["deep", "long-int"])
def test_venue_scores_file(tmp_path, capsys, text):
    if LONG_INT in text and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length")
    path = tmp_path / "venues.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="^malformed JSON: "), open(path, "rb") as fh:
        load_venue_scores(fh)
    assert main(["authors", "--venue-scores", str(path),
                 "--author-pubs", str(DATA_DIR / "golden_author_pubs.jsonl")]) == 1
    assert f"pscore: error: {path}: malformed JSON: " in capsys.readouterr().err
