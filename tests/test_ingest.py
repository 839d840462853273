"""The one-pass ingest against the record-based oracle.

Hypothesis writes small publication lists as JSONL or CSV, with case and
whitespace variants of every name, groups outside the reference set,
duplicates by id and by title, records with neither, optional years and
optionally one malformed line, from a fixed list or a one-character
mutation of a valid line. ``ingest``, reading the list as bytes from a
file that a JSONL list splits into 2-4 ranges, must agree with
``oracles.parse_records`` -> ``oracles.filter_by_year`` ->
``oracles.count_records``, which share no code with ``pscore.records``, on
the counts table, the dropped, merged and undated counts, and on the error
class, line and message of a malformed line.
"""

import csv
import io
import json
import logging
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pscore import DatasetError, PScoreError, ingest
from pscore.records import _Tally

from conftest import binary_file, split_reads
from oracles import count_records, dense_counts, filter_by_year, parse_records

REFERENCE = ["Group A", "Group B"]
FOREIGN = ["Outside Lab"]
VENUES = ["SIGIR", "Venue X", "kdd"]
AUTHORS = ["Ana Silva", "Bo Costa", "Cai Dias", "dee"]
TITLES = ["On Things", "Sparse Retrieval Models"]
IDS = ["p1", "p2", "p3", "on things"]  # the last is the fold of a title: ids and titles must not collide

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

MUTATIONS = '{}[]",: a1'  # characters a one-character mutation of a valid line inserts or puts in place of another


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
def mutated_line(draw, fmt):
    """A valid record line with one character inserted, deleted or replaced."""
    line = write([draw(record())], fmt)[-1]
    at = draw(st.integers(0, len(line) - 1))
    new, cut = draw(st.sampled_from([(c, 0) for c in MUTATIONS] + [("", 1)] + [(c, 1) for c in MUTATIONS]))
    return line[:at] + new + line[at + cut:]


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
        lines.insert(at, draw(st.one_of(st.sampled_from(BAD_JSONL if fmt == "jsonl" else BAD_CSV), mutated_line(fmt))))
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
    records = parse_records(io.StringIO(text, newline=""), fmt)
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
    with binary_file(text.encode()) as fh:
        table = ingest(fh, fmt, REFERENCE, years=window)
    return (table.group_names, table.venue_names, dense_counts(table).tolist(), table.d_venue.tolist(),
            table.dropped_foreign, table.dedup_merged)


@settings(max_examples=300, deadline=None)
@given(inputs())
def ingest_matches_record_oracle(case):
    assert outcome(lambda: by_ingest(*case)) == outcome(lambda: by_oracle(*case))


def test_ingest_matches_record_oracle():
    # JSONL files are read in 2-4 ranges, as a large file is on a machine with that many CPUs
    with split_reads() as forked:
        ingest_matches_record_oracle()
    assert forked


def test_undated_records_counted_once_per_run(caplog):
    text = (
        '{"group": "Group A", "authors": ["a"], "venue": "v", "year": 2014}\n'
        '{"group": "Group B", "authors": ["b"], "venue": "v", "year": 2015}\n'
        '{"group": "Group A", "authors": ["c"], "venue": "w"}\n'
        '{"group": "Outside Lab", "authors": ["d"], "venue": "w"}\n'
    )
    with caplog.at_level("WARNING", logger="pscore.records"):
        table = ingest(io.StringIO(text), "jsonl", REFERENCE, years=(2014, None))
    assert caplog.messages == ["year filter excluded 2 record(s) without a year"]
    assert (table.venue_names, table.n_group.sum(), table.dropped_foreign) == (("v",), 2, 0)


def test_binary_stream_stays_open_with_the_caller():
    stream = io.BytesIO('{"group": "Group A", "authors": ["a"], "venue": "v"}\n'.encode())
    with pytest.raises(DatasetError, match="'Group B' has no publications"):
        ingest(stream, "jsonl", REFERENCE)
    assert not stream.closed


def test_tally_counts_once():
    # dataset() sorts the tallies in place; a second call must not count the sorted buffers
    tally = _Tally(REFERENCE, None)
    for group in REFERENCE:
        tally.add(1, None, ["a"], group, "v", None, None)
    assert tally.dataset().n_group.sum() == 2
    with pytest.raises(AttributeError):
        tally.dataset()


def cased(name: str, i: int) -> str:
    """``name`` with character k upper-cased where bit k of ``i`` is set: a casing of its own for each ``i``."""
    return "".join(c.upper() if i >> k & 1 else c.lower() for k, c in enumerate(name))


def test_ingest_memory_grows_with_the_names_not_their_spellings():
    # 50 groups and 50 authors, whose first 15 characters are letters, each line in a casing not seen before:
    # 80,000 raw spellings of 100 names, which a table of raw spellings would hold as some 80,000 strings
    groups, authors = [f"Memorytestgroup {k:02d}" for k in range(50)], [f"Memorytestauthor {k:02d}" for k in range(50)]
    data = "".join(json.dumps({"id": f"p{i}", "group": cased(groups[i % 50], i), "venue": f"v{i % 7}",
                               "authors": [cased(authors[(i + k) % 50], i) for k in range(3)]}) + "\n"
                   for i in range(20_000)).encode()
    tracemalloc.start()
    try:
        table = ingest(io.BytesIO(data), "jsonl", groups)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"ingest peaked at {peak / 2**20:.1f} MiB"
    assert (table.n_group.sum(), table.d_venue.tolist()) == (20_000, [50] * 7)
