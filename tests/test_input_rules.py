"""One count rule and one name rule for every loader.

``records.check_count`` says what a count is: an integer, not a ``bool``,
in [low, 2**53]. ``records.required_name`` says what a name is: a string
that is not blank. Every entry point that reads a count or a name, from a
file or from a library caller's mapping, goes through them, so each gives
the same two count messages and the same three name messages, with the
line when there is one and the field always.
"""

import io
import json

import numpy as np
import pytest

from pscore import PublicationRecord, ScoreVector, ValidationError, aggregate, build_dataset, parse_author_counts
from pscore import rank_authors
from pscore.records import MAX_COUNT, load_author_pubs

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

