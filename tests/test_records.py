import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pscore import DatasetError, ParseError, ValidationError, ingest, records
from pscore.records import PublicationRecord, build_dataset, normalize_name, parse_records

from conftest import DATA_DIR, binary_file, split_reads
from oracles import dense_counts, filter_by_year, serialize_records


def jsonl(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


class TestParseJsonl:
    def test_single_line(self):
        recs = parse_records(jsonl('{"group":"G1","authors":["A. Alice"],"venue":"V1"}\n'), "jsonl")
        assert recs == [PublicationRecord(group="G1", authors=("A. Alice",), venue="V1")]

    def test_empty_stream(self):
        assert parse_records(jsonl(""), "jsonl") == []

    def test_preserves_input_order(self):
        text = "\n".join(
            '{"group":"G","authors":["a"],"venue":"v%d"}' % i for i in range(5)
        )
        recs = parse_records(jsonl(text), "jsonl")
        assert [r.venue for r in recs] == [f"v{i}" for i in range(5)]

    def test_malformed_json_carries_line_number(self):
        text = '{"group":"G","authors":["a"],"venue":"v"}\n{not json}\n'
        with pytest.raises(ParseError) as exc:
            parse_records(jsonl(text), "jsonl")
        assert exc.value.line == 2

    def test_missing_mandatory_field(self):
        with pytest.raises(ValidationError) as exc:
            parse_records(jsonl('{"group":"G","venue":"v"}'), "jsonl")
        assert exc.value.field == "authors"
        assert exc.value.line == 1

    def test_empty_venue_rejected(self):
        with pytest.raises(ValidationError) as exc:
            parse_records(jsonl('{"group":"G","authors":["a"],"venue":"   "}'), "jsonl")
        assert exc.value.field == "venue"

    def test_authors_must_be_strings(self):
        with pytest.raises(ValidationError):
            parse_records(jsonl('{"group":"G","authors":[1],"venue":"v"}'), "jsonl")
        # a known first author is found with no rule run, yet the number after it fails before the blank group
        lines = '{"group":"G","authors":["a"],"venue":"v"}\n{"group":" ","authors":["a",1],"venue":"v"}\n'
        for read, line in ((lambda: ingest(jsonl(lines), "jsonl", ["G"]), 2),
                           (lambda: build_dataset([make(group="G"), make(group=" ", authors=["a", 1])], ["G"]), None)):
            with pytest.raises(ValidationError, match="must be an array of strings") as exc:
                read()
            assert (exc.value.field, exc.value.line) == ("authors", line)

    def test_non_object_line(self):
        with pytest.raises(ParseError):
            parse_records(jsonl("[1, 2]\n"), "jsonl")

    def test_year_coercion_and_rejection(self):
        recs = parse_records(jsonl('{"group":"G","authors":["a"],"venue":"v","year":"2014"}'), "jsonl")
        assert recs[0].year == 2014
        with pytest.raises(ValidationError):
            parse_records(jsonl('{"group":"G","authors":["a"],"venue":"v","year":"later"}'), "jsonl")

    def test_integer_id_coerced_to_string(self):
        recs = parse_records(jsonl('{"id":17,"group":"G","authors":["a"],"venue":"v"}'), "jsonl")
        assert recs[0].paper_id == "17"

    def test_whitespace_normalization(self):
        recs = parse_records(
            jsonl('{"group":"  Group\\t One ","authors":["A.   Alice "],"venue":" v  1 "}'), "jsonl"
        )
        assert recs[0].group == "Group One"
        assert recs[0].authors == ("A. Alice",)
        assert recs[0].venue == "v 1"


class TestParseCsv:
    HEADER = "id,title,group,authors,venue,year\n"

    def test_basic_row(self):
        text = self.HEADER + 'p1,A title,G1,"A. Alice;B. Bob",V1,2014\n'
        recs = parse_records(jsonl(text), "csv")
        assert recs == [
            PublicationRecord(
                group="G1", authors=("A. Alice", "B. Bob"), venue="V1",
                paper_id="p1", title="A title", year=2014,
            )
        ]

    def test_empty_venue_names_field_and_row(self):
        text = self.HEADER + "p1,,G1,A. Alice,,2014\n"
        with pytest.raises(ValidationError) as exc:
            parse_records(jsonl(text), "csv")
        assert exc.value.field == "venue"
        assert exc.value.line == 2

    def test_missing_header_column(self):
        with pytest.raises(ParseError):
            parse_records(jsonl("id,group,authors,venue\n"), "csv")

    def test_zero_byte_input(self):
        assert parse_records(jsonl(""), "csv") == []

    def test_header_only(self):
        assert parse_records(jsonl(self.HEADER), "csv") == []

    def test_optional_fields_empty(self):
        recs = parse_records(jsonl(self.HEADER + ",,G1,A. Alice,V1,\n"), "csv")
        assert recs[0].paper_id is None
        assert recs[0].title is None
        assert recs[0].year is None

    def test_overlong_row(self):
        with pytest.raises(ParseError):
            parse_records(jsonl(self.HEADER + "p1,t,G1,a,V1,2014,surplus\n"), "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            parse_records(jsonl(""), "xml")


names_st = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" .-'"),
    min_size=1,
    max_size=20,
).map(normalize_name).filter(bool)


@st.composite
def records_st(draw):
    return PublicationRecord(
        group=draw(names_st),
        authors=tuple(draw(st.lists(names_st, min_size=1, max_size=4))),
        venue=draw(names_st),
        paper_id=draw(st.one_of(st.none(), st.text("abcdef0123456789", min_size=1, max_size=8))),
        title=draw(st.one_of(st.none(), names_st)),
        year=draw(st.one_of(st.none(), st.integers(1900, 2030))),
    )


@settings(max_examples=50)
@given(st.lists(records_st(), max_size=10), st.sampled_from(["jsonl", "csv"]))
def test_serialize_parse_round_trip(records, fmt):
    text = serialize_records(records, fmt)
    reparsed = parse_records(io.StringIO(text), fmt)
    assert reparsed == records
    # a second cycle is byte-stable
    assert serialize_records(reparsed, fmt) == text


def test_csv_rejects_semicolon_in_author():
    rec = PublicationRecord(group="G", authors=("Last; First",), venue="v")
    with pytest.raises(ValidationError):
        serialize_records([rec], "csv")
    # JSONL has no such restriction
    assert parse_records(io.StringIO(serialize_records([rec], "jsonl")), "jsonl") == [rec]


def make(group="G1", venue="v1", paper_id=None, title=None, authors=("a",), year=None):
    return PublicationRecord(
        group=group, authors=tuple(authors), venue=venue,
        paper_id=paper_id, title=title, year=year,
    )


class TestBuildDataset:
    def test_golden_shape(self):
        with open(DATA_DIR / "golden_records.jsonl", "rb") as fh:
            recs = parse_records(fh, "jsonl")
        ds = build_dataset(recs, ["Group 1", "Group 2"])
        assert ds.group_names == ("Group 1", "Group 2")
        assert ds.venue_names == ("v1", "v2", "v3")
        assert ds.n_group.sum() == 14

    def test_filter_to_single_group(self):
        recs = [make(group="G1", venue="v1"), make(group="G2", venue="v2")]
        ds = build_dataset(recs, ["G1"])
        assert ds.group_names == ("G1",)
        assert ds.venue_names == ("v1",)
        assert ds.dropped_foreign == 1

    def test_dedup_same_id_same_group(self):
        recs = [make(paper_id="x"), make(paper_id="x")]
        ds = build_dataset(recs, ["G1"])
        assert ds.n_group.sum() == 1
        assert ds.dedup_merged == 1

    def test_dedup_by_title_casefold(self):
        recs = [make(title="On Things"), make(title="on  things")]
        ds = build_dataset(recs, ["G1"])
        assert ds.n_group.sum() == 1

    def test_no_identity_never_merged(self):
        recs = [make(), make()]
        ds = build_dataset(recs, ["G1"])
        assert ds.n_group.sum() == 2

    def test_coauthored_paper_counts_in_both_groups(self):
        recs = [make(group="G1", paper_id="x"), make(group="G2", paper_id="x")]
        ds = build_dataset(recs, ["G1", "G2"])
        assert dense_counts(ds).tolist() == [[1], [1]]

    def test_empty_dataset_error(self):
        with pytest.raises(DatasetError):
            build_dataset([], ["G1"])
        with pytest.raises(DatasetError):
            build_dataset([make(group="Other")], ["G1"])

    def test_group_without_publications_named(self):
        with pytest.raises(DatasetError, match="Silent"):
            build_dataset([make(group="G1")], ["G1", "Silent"])

    def test_duplicate_reference_groups_rejected(self):
        with pytest.raises(ValidationError):
            build_dataset([make()], ["G1", "g1"])

    def test_display_casing_is_first_seen(self):
        recs = [make(venue="SIGIR"), make(group="g1", venue="sigir", paper_id="y")]
        ds = build_dataset(recs, ["G1"])
        assert ds.venue_names == ("SIGIR",)
        # "g1" is the reference group "G1": both records count in its row
        assert ds.group_names == ("G1",)
        assert dense_counts(ds).tolist() == [[2]]
        # each spelling of one name, each first in turn: an author or group is found by its case fold, a venue as
        # written, and a spelling that needs normalizing by its normalized fold; "STRASSE" folds as "Straße" does
        for field, spellings in (("authors", ("Ana  Costa", "ANA COSTA", "ana costa", " Ana\tCosta")),
                                 ("authors", ("José", "JOSÉ", "\u00a0José")),
                                 ("group", ("STRASSE", "straße", "Straße")),
                                 ("venue", ("SIGIR", "sigir", " SIGIR "))):
            for k in range(len(spellings)):
                turn = spellings[k:] + spellings[:k]
                recs = [make(**{"group": "Straße", "venue": "v1", "authors": ["Ana Costa"],
                                field: [name] if field == "authors" else name}) for name in turn]
                for table in (build_dataset(recs, ["Straße"]),
                              ingest(jsonl(serialize_records(recs, "jsonl")), "jsonl", ["Straße"])):
                    assert (table.group_names, table.venue_names) == (
                        ("Straße",), (normalize_name(turn[0]) if field == "venue" else "v1",))
                    assert (dense_counts(table).tolist(), table.d_venue.tolist()) == ([[len(turn)]], [1])

    def test_idempotent(self):
        survivors = [make(paper_id="a"), make(venue="v2", paper_id="b")]
        ds = build_dataset([survivors[0], *survivors, make(group="Other")], ["G1"])
        again = build_dataset(survivors, ds.group_names)
        assert (again.group_names, again.venue_names) == (ds.group_names, ds.venue_names)
        assert dense_counts(again).tolist() == dense_counts(ds).tolist()
        assert again.d_venue.tolist() == ds.d_venue.tolist()

    def test_venue_list_matches_surviving_records_exactly(self):
        recs = [make(venue="v2"), make(group="Other", venue="zzz")]
        ds = build_dataset(recs, ["G1"])
        assert ds.venue_names == ("v2",)

    def test_venues_of(self):
        recs = [make(venue="v1"), make(venue="v2", paper_id="b"), make(group="G2", venue="v2")]
        ds = build_dataset(recs, ["G1", "g2"])
        assert ds.venue_names == ("v1", "v2")
        assert dense_counts(ds).tolist() == [[1, 1], [0, 1]]


# (paper id, title) of a first and a second record, and whether the second repeats the first
REPEAT_KEYS = {
    "same-id": (("x", None), ("x", None), True),
    "nul-is-kept": (("a\u0000", None), ("a", None), False),
    "trailing-nuls-differ": (("a\u0000", None), ("a\u0000\u0000", None), False),
    "lone-surrogate-twice": (("\ud800", None), ("\ud800", None), True),
    "two-lone-surrogates": (("\ud800", None), ("\udc00", None), False),
    "surrogate-bytes-or-latin-1": (("\ud800", None), ("\u00ed\u00a0\u0080", None), False),
    "long-id-twice": (("x" * 40, None), ("x" * 40, None), True),
    "long-ids-differ-at-the-end": (("x" * 40, None), ("x" * 39 + "y", None), False),
    "long-non-ascii-id-twice": (("\u00e9" * 20, None), ("\u00e9" * 20, None), True),
    "astral-id-twice": (("\U0001f600" * 5, None), ("\U0001f600" * 5, None), True),
    "astral-ids-differ": (("\U0001f600" * 5, None), ("\U0001f600" * 4 + "\U0001f601", None), False),
    "long-title-twice": ((None, "A Title " * 5), (None, " a  title " * 5), True),
    "id-equal-to-a-folded-title": ((None, "On Things"), ("on things", None), False),
    "title-after-its-id": (("on things", None), (None, "On Things"), False),
    "no-key": ((None, None), (None, " "), False),
}


@pytest.mark.parametrize("first, second, repeat", REPEAT_KEYS.values(), ids=REPEAT_KEYS.keys())
def test_a_repeat_is_an_exact_key_match(monkeypatch, first, second, repeat):
    # one path for records and for JSONL, read serially and in two ranges: the second record counts only if its key
    # differs from the first's, whatever the hash that brings keys together, even one giving every key one code
    recs = [make(paper_id=paper_id, title=title, venue=venue)
            for (paper_id, title), venue in ((first, "v1"), (second, "v2"))]
    line1, line2 = (json.dumps({"id": r.paper_id, "title": r.title, "group": r.group, "authors": list(r.authors),
                                "venue": r.venue}) for r in recs)
    lines = f"{line1:{len(line2)}}\n{line2}\n"  # padded to be no shorter than line 2, line 1 ends the first range
    for key_hash in (hash, lambda key: 0):
        monkeypatch.setattr(records, "_key_hash", key_hash)
        with split_reads(2) as forked, binary_file(lines.encode()) as fh:
            tables = [build_dataset(recs, ["G1"]), ingest(jsonl(lines), "jsonl", ["G1"]), ingest(fh, "jsonl", ["G1"])]
        assert forked
        for table in tables:
            assert (table.dedup_merged, table.venue_names) == ((1, ("v1",)) if repeat else (0, ("v1", "v2")))


def test_a_repeat_is_per_group_whatever_the_row():
    # rows 1 and 11, with ids that would meet if a key were the row's digits and the id run together
    groups = [f"G{w}" for w in range(12)]
    recs = [make(group=group, paper_id=paper_id) for group in groups for paper_id in ("1x", "x")]
    table = build_dataset(recs + recs[::-1], groups)
    assert table.dedup_merged == len(recs) and table.n_group.tolist() == [2] * 12


class TestFilterByYear:
    RECS = [make(year=2012), make(year=2014), make(year=2016), make(year=None)]

    def test_no_bounds_is_identity(self):
        assert filter_by_year(self.RECS) == self.RECS

    def test_inclusive_bounds(self):
        kept = filter_by_year(self.RECS, 2012, 2014)
        assert [r.year for r in kept] == [2012, 2014]

    def test_open_ended(self):
        assert [r.year for r in filter_by_year(self.RECS, start=2014)] == [2014, 2016]
        assert [r.year for r in filter_by_year(self.RECS, end=2013)] == [2012]

    def test_undated_records_excluded_when_filtering(self, caplog):
        with caplog.at_level("WARNING", logger="oracles"):
            kept = filter_by_year(self.RECS, 2000, 2020)
        assert all(r.year is not None for r in kept)
        assert "without a year" in caplog.text
