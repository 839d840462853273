import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pscore import (
    DatasetError,
    ParseError,
    PublicationRecord,
    ValidationError,
    build_dataset,
    parse_records,
)
from pscore.records import normalize_name

from conftest import DATA_DIR
from oracles import filter_by_year, serialize_records


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
        assert ds.groups == ("Group 1", "Group 2")
        assert ds.venues == ("v1", "v2", "v3")
        assert ds.kept == 14

    def test_filter_to_single_group(self):
        recs = [make(group="G1", venue="v1"), make(group="G2", venue="v2")]
        ds = build_dataset(recs, ["G1"])
        assert ds.groups == ("G1",)
        assert ds.venues == ("v1",)
        assert ds.dropped_foreign == 1

    def test_dedup_same_id_same_group(self):
        recs = [make(paper_id="x"), make(paper_id="x")]
        ds = build_dataset(recs, ["G1"])
        assert ds.kept == 1
        assert ds.dedup_merged == 1

    def test_dedup_by_title_casefold(self):
        recs = [make(title="On Things"), make(title="on  things")]
        ds = build_dataset(recs, ["G1"])
        assert ds.kept == 1

    def test_no_identity_never_merged(self):
        recs = [make(), make()]
        ds = build_dataset(recs, ["G1"])
        assert ds.kept == 2

    def test_coauthored_paper_counts_in_both_groups(self):
        recs = [make(group="G1", paper_id="x"), make(group="G2", paper_id="x")]
        ds = build_dataset(recs, ["G1", "G2"])
        assert ds.n_group_venue.tolist() == [[1], [1]]

    def test_empty_dataset_error(self):
        with pytest.raises(DatasetError):
            build_dataset([], ["G1"])
        with pytest.raises(DatasetError):
            build_dataset([make(group="Other")], ["G1"])

    def test_group_without_publications_named(self):
        with pytest.raises(DatasetError, match="Silent"):
            build_dataset([make(group="G1")], ["G1", "Silent"])

    def test_duplicate_reference_groups_rejected(self):
        with pytest.raises(DatasetError):
            build_dataset([make()], ["G1", "g1"])

    def test_display_casing_is_first_seen(self):
        recs = [make(venue="SIGIR"), make(group="g1", venue="sigir", paper_id="y")]
        ds = build_dataset(recs, ["G1"])
        assert ds.venues == ("SIGIR",)
        # "g1" is the reference group "G1": both records count in its row
        assert ds.groups == ("G1",)
        assert ds.n_group_venue.tolist() == [[2]]

    def test_idempotent(self):
        survivors = [make(paper_id="a"), make(venue="v2", paper_id="b")]
        ds = build_dataset([survivors[0], *survivors, make(group="Other")], ["G1"])
        again = build_dataset(survivors, ds.groups)
        assert (again.groups, again.venues) == (ds.groups, ds.venues)
        assert again.n_group_venue.tolist() == ds.n_group_venue.tolist()
        assert again.d_venue.tolist() == ds.d_venue.tolist()

    def test_venue_list_matches_surviving_records_exactly(self):
        recs = [make(venue="v2"), make(group="Other", venue="zzz")]
        ds = build_dataset(recs, ["G1"])
        assert ds.venues == ("v2",)

    def test_venues_of(self):
        recs = [make(venue="v1"), make(venue="v2", paper_id="b"), make(group="G2", venue="v2")]
        ds = build_dataset(recs, ["G1", "g2"])
        assert ds.venues == ("v1", "v2")
        assert ds.n_group_venue.tolist() == [[1, 1], [0, 1]]


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
