"""The one-pass ingest against the record-based oracle.

Hypothesis writes small publication lists as JSONL or CSV, with case and
whitespace variants of every name, groups outside the reference set,
duplicates by id and by title, records with neither, optional years and
optionally one malformed line. ``ingest`` must agree with
``parse_records`` -> ``oracles.filter_by_year`` ->
``oracles.count_records`` on the counts table, the dropped, merged and
undated counts, and on the error class, line and message of a malformed
line.
"""

import csv
import io
import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pscore import DatasetError, PScoreError, aggregate, ingest, parse_records

from oracles import count_records, filter_by_year

REFERENCE = ["Group A", "Group B"]
FOREIGN = ["Outside Lab"]
VENUES = ["SIGIR", "Venue X", "kdd"]
AUTHORS = ["Ana Silva", "Bo Costa", "Cai Dias", "dee"]
TITLES = ["On Things", "Sparse Retrieval Models"]
IDS = ["p1", "p2", "p3"]

BAD_JSONL = [
    "{oops",
    "[1, 2]",
    '{"group": "Group A", "venue": "v"}',
    '{"group": "Group A", "authors": [1], "venue": "v"}',
    '{"group": "Group A", "authors": ["  "], "venue": "v"}',
    '{"group": " ", "authors": ["a"], "venue": "v"}',
    '{"group": "Group A", "authors": ["a"], "venue": ""}',
    '{"group": "Group A", "authors": ["a"], "venue": "v", "title": 5}',
    '{"group": "Group A", "authors": ["a"], "venue": "v", "year": "soon"}',
    '{"id": [1], "group": "Group A", "authors": ["a"], "venue": "v"}',
    '{"group": "Outside Lab", "authors": [" "], "venue": ""}',
]
BAD_CSV = [
    "p9,t,Group A,a,v,2014,surplus",
    "p9,t,Group A,,v,2014",
    "p9,t,Group A, ; ,v,2014",
    "p9,t,,a,v,2014",
    "p9,t,Group A,a,,2014",
    "p9,t,Group A,a,v,soon",
]


@st.composite
def spelling(draw, names):
    name = draw(st.sampled_from(names))
    return draw(st.sampled_from([
        name, name.upper(), name.lower(), "  " + name.replace(" ", " \t "), name + " ",
    ]))


@st.composite
def record(draw, groups=REFERENCE + FOREIGN, year=st.one_of(st.none(), st.integers(2010, 2016))):
    return {
        "id": draw(st.one_of(st.none(), st.sampled_from(IDS))),
        "title": draw(st.one_of(st.none(), st.just("  "), spelling(TITLES))),
        "group": draw(spelling(groups)),
        "authors": draw(st.lists(st.one_of(spelling(AUTHORS), st.just(" ")), min_size=1, max_size=3)
                        .filter(lambda names: any(n.strip() for n in names))),
        "venue": draw(spelling(VENUES)),
        "year": draw(year),
    }


def write(records: list[dict], fmt: str) -> list[str]:
    if fmt == "jsonl":
        return [json.dumps({k: v for k, v in rec.items() if v is not None}) for rec in records]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "title", "group", "authors", "venue", "year"])
    for rec in records:
        writer.writerow([rec["id"] or "", rec["title"] or "", rec["group"], ";".join(rec["authors"]),
                         rec["venue"], "" if rec["year"] is None else rec["year"]])
    return buf.getvalue().splitlines()


@st.composite
def inputs(draw):
    fmt = draw(st.sampled_from(["jsonl", "csv"]))
    records = draw(st.lists(record(), min_size=1, max_size=25))
    if draw(st.integers(0, 4)):
        # usually give each reference group a record dated inside every window
        for group in REFERENCE:
            records.insert(draw(st.integers(0, len(records))), draw(record([group], st.just(2013))))
    lines = write(records, fmt)
    if draw(st.integers(0, 2)) == 0:
        first = 0 if fmt == "jsonl" else 1  # never replace the CSV header
        at = draw(st.integers(first, len(lines)))
        lines.insert(at, draw(st.sampled_from(BAD_JSONL if fmt == "jsonl" else BAD_CSV)))
    window = draw(st.one_of(
        st.none(),
        st.tuples(st.one_of(st.none(), st.integers(2010, 2013)), st.one_of(st.none(), st.integers(2013, 2016))),
    ))
    return "".join(line + "\n" for line in lines), fmt, window


class Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def outcome(run):
    """What a run produced: its result and warnings, or its error."""
    handler = Warnings()
    logger = logging.getLogger()  # ingest warns on pscore.records, the oracle on its own logger
    logger.addHandler(handler)
    try:
        return "ok", run(), handler.messages
    except PScoreError as exc:
        return "error", (type(exc), getattr(exc, "line", None), str(exc)), handler.messages
    finally:
        logger.removeHandler(handler)


def by_oracle(text, fmt, window):
    records = parse_records(io.StringIO(text), fmt)
    if window is not None:
        records = filter_by_year(records, *window)
    groups, venues, matrix, d_venue, dropped, merged = count_records(records, REFERENCE)
    if matrix.sum() == 0:
        raise DatasetError("empty dataset: no records remain for the reference groups")
    for name, row in zip(groups, matrix):
        if row.sum() == 0:
            raise DatasetError(f"reference group {name!r} has no publications in the dataset")
    return groups, venues, matrix.tolist(), d_venue.tolist(), dropped, merged


def by_ingest(text, fmt, window):
    dataset = ingest(io.StringIO(text), fmt, REFERENCE, years=window)
    table = aggregate(dataset)
    return (table.group_names, table.venue_names, table.n_group_venue.tolist(), table.d_venue.tolist(),
            dataset.dropped_foreign, dataset.dedup_merged)


@settings(max_examples=300, deadline=None)
@given(inputs())
def test_ingest_matches_record_oracle(case):
    assert outcome(lambda: by_ingest(*case)) == outcome(lambda: by_oracle(*case))


def test_undated_records_counted_once_per_run(caplog):
    text = (
        '{"group": "Group A", "authors": ["a"], "venue": "v", "year": 2014}\n'
        '{"group": "Group B", "authors": ["b"], "venue": "v", "year": 2015}\n'
        '{"group": "Group A", "authors": ["c"], "venue": "w"}\n'
        '{"group": "Outside Lab", "authors": ["d"], "venue": "w"}\n'
    )
    with caplog.at_level("WARNING", logger="pscore.records"):
        dataset = ingest(io.StringIO(text), "jsonl", REFERENCE, years=(2014, None))
    assert caplog.messages == ["year filter excluded 2 record(s) without a year"]
    assert (dataset.venues, dataset.kept, dataset.dropped_foreign) == (("v",), 2, 0)


def test_binary_stream_stays_open_with_the_caller():
    stream = io.BytesIO('{"group": "Group A", "authors": ["a"], "venue": "v"}\n'.encode())
    with pytest.raises(DatasetError, match="'Group B' has no publications"):
        ingest(stream, "jsonl", REFERENCE)
    assert not stream.closed
