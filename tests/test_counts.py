import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from pscore import (
    CountsTable,
    ParseError,
    ValidationError,
    aggregate,
    parse_author_counts,
)
from pscore.records import PublicationRecord, build_dataset, parse_records

from conftest import DATA_DIR, GOLDEN_AUTHOR_COUNTS, GOLDEN_MATRIX, table_from_matrix
from oracles import dense_counts


def rec(group, venue, authors=("a",), paper_id=None):
    return PublicationRecord(group=group, authors=tuple(authors), venue=venue, paper_id=paper_id)


@pytest.fixture
def golden_records():
    with open(DATA_DIR / "golden_records.jsonl", "rb") as fh:
        return parse_records(fh, "jsonl")


@pytest.fixture
def golden_table(golden_records):
    return build_dataset(golden_records, ["Group 1", "Group 2"])


class TestAggregate:
    def test_golden_counts(self, golden_table):
        table = aggregate(golden_table)
        assert_array_equal(dense_counts(table), GOLDEN_MATRIX)
        assert_array_equal(table.n_venue, [5, 6, 3])
        assert_array_equal(table.n_group, [6, 8])

    def test_no_overrides_returns_the_table(self, golden_table):
        assert aggregate(golden_table) is golden_table
        assert aggregate(golden_table, {}) is golden_table

    def test_golden_with_overrides(self, golden_table):
        observed = golden_table.d_venue.copy()
        table = aggregate(golden_table, {"v1": 10, "v2": 60, "v3": 20})
        assert_array_equal(table.d_venue, GOLDEN_AUTHOR_COUNTS)
        assert_array_equal(golden_table.d_venue, observed)  # the input table is left as it was
        assert_array_equal(table.n_group_venue, golden_table.n_group_venue)

    def test_overrides_keep_the_ingest_diagnostics(self):
        records = [rec("G1", "v1", paper_id="x"), rec("G1", "v1", paper_id="x"), rec("G2", "v1")]
        ds = build_dataset(records, ["G1"])
        table = aggregate(ds, {"v1": 7})
        assert (table.dropped_foreign, table.dedup_merged) == (ds.dropped_foreign, ds.dedup_merged) == (1, 1)

    def test_singleton(self):
        ds = build_dataset([rec("G1", "v1", authors=("a1",))], ["G1"])
        table = aggregate(ds)
        assert_array_equal(dense_counts(table), [[1]])
        assert_array_equal(table.n_venue, [1])
        assert_array_equal(table.n_group, [1])
        assert_array_equal(table.d_venue, [1])

    def test_distinct_authors_pooled_across_groups_and_casings(self):
        records = [
            rec("G1", "v1", authors=("A. Alice", "B. Bob")),
            rec("G2", "v1", authors=("a.  alice", "C. Carol")),
        ]
        table = aggregate(build_dataset(records, ["G1", "G2"]))
        assert table.d_venue[0] == 3

    def test_override_unknown_venue_ignored_with_warning(self, caplog):
        ds = build_dataset([rec("G1", "v1")], ["G1"])
        with caplog.at_level("WARNING", logger="pscore.counts"):
            table = aggregate(ds, {"nowhere": 5})
        assert "nowhere" in caplog.text
        assert_array_equal(table.d_venue, [1])

    def test_override_below_one_rejected(self):
        ds = build_dataset([rec("G1", "v1")], ["G1"])
        with pytest.raises(ValidationError):
            aggregate(ds, {"v1": 0})

    def test_override_above_2_53_rejected(self):
        ds = build_dataset([rec("G1", "v1")], ["G1"])
        assert_array_equal(aggregate(ds, {"v1": 2**53}).d_venue, [2**53])
        with pytest.raises(ValidationError, match=r"must lie in \[1, 2\*\*53\]"):
            aggregate(ds, {"v1": 10**23})

    def test_override_non_integer_rejected(self):
        ds = build_dataset([rec("G1", "v1")], ["G1"])
        for bad in ("ten", 5.0, True, np.bool_(True)):
            with pytest.raises(ValidationError, match="must be an integer"):
                aggregate(ds, {"v1": bad})

    def test_override_numpy_integer_accepted(self):
        ds = build_dataset([rec("G1", "v1")], ["G1"])
        for count in (np.int64(5), np.int32(5), np.uint64(5)):
            assert_array_equal(aggregate(ds, {"v1": count}).d_venue, [5])
        assert_array_equal(aggregate(ds, {"v1": np.int64(2**53)}).d_venue, [2**53])
        for bad in (np.int64(0), np.int64(-3), np.int64(2**53 + 1), np.uint64(2**64 - 1)):
            with pytest.raises(ValidationError, match=r"must lie in \[1, 2\*\*53\]"):
                aggregate(ds, {"v1": bad})

    def test_record_order_is_irrelevant(self, golden_records, golden_table):
        shuffled = build_dataset(golden_records[::-1], golden_table.group_names)
        assert_array_equal(dense_counts(shuffled), dense_counts(golden_table))
        assert_array_equal(shuffled.d_venue, golden_table.d_venue)

    def test_group_order_permutes_rows(self, golden_records, golden_table):
        flipped = build_dataset(golden_records, ("Group 2", "Group 1"))
        assert_array_equal(dense_counts(flipped), dense_counts(golden_table)[::-1])


class TestCountsTable:
    def test_zero_venue_rejected(self):
        with pytest.raises(ValidationError, match="^venue with zero publications in the counts table$") as exc:
            table_from_matrix([[1, 0]], [1, 1], ("g",), ("a", "b"))
        assert exc.value.field == "venue"

    @pytest.mark.parametrize("group, venue, n, match, field", [
        ([0, 0], [1, 0], [1, 1], "not sorted group-major", "venue"),
        ([0, 0], [0, 0], [1, 1], "not sorted group-major", "venue"),
        ([0, 1], [0, 1], [1, 1], "outside the group or venue axis", "group"),
        ([0, 0], [0, 2], [1, 1], "outside the group or venue axis", "venue"),
        ([0, 0], [0, 1], [1, 0], "cell with no publications", "n_group_venue"),
        ([0, 0], [0, 1], [1, -1], "cell with no publications", "n_group_venue"),
        ([0], [0, 1], [1, 1], "cells and axes do not match", "group"),
    ])
    def test_malformed_cells_rejected(self, group, venue, n, match, field):
        with pytest.raises(ValidationError, match=match) as exc:
            CountsTable(group, venue, n, [1, 1], ("g",), ("a", "b"))
        assert exc.value.field == field

    def test_diagnostics_read_zero_unless_ingest_set_them(self):
        table = table_from_matrix([[2, 0, 1], [0, 3, 0]], [5, 6, 7])
        assert (table.dropped_foreign, table.dedup_merged) == (0, 0)
        counted = CountsTable(table.group, table.venue, table.n_group_venue, table.d_venue,
                              table.group_names, table.venue_names, dropped_foreign=4, dedup_merged=2)
        sub, _ = counted.restrict([0])
        assert (sub.dropped_foreign, sub.dedup_merged) == (0, 0)

    def test_marginals_come_from_the_cells(self):
        table = CountsTable([0, 0, 1], [0, 2, 1], [2, 1, 3], [5, 6, 7], ("g0", "g1"), ("a", "b", "c"))
        assert_array_equal(table.n_group, [3, 3])
        assert_array_equal(table.n_venue, [2, 3, 1])
        assert table.n_group.dtype == table.n_venue.dtype == np.int64

    def test_restrict_drops_empty_venues(self):
        table = table_from_matrix(
            [[2, 0, 1], [0, 3, 0]], [5, 6, 7], ("g0", "g1"), ("a", "b", "c")
        )
        sub, venues = table.restrict([0])
        assert_array_equal(venues, [0, 2])
        assert sub.group_names == ("g0",)
        assert sub.venue_names == ("a", "c")
        assert_array_equal(dense_counts(sub), [[2, 1]])
        assert_array_equal(sub.d_venue, [5, 7])

    def test_restrict_keeps_cells_sorted(self):
        matrix = [[1, 0, 2, 0], [0, 3, 0, 4], [5, 0, 0, 6]]
        table = table_from_matrix(matrix, [1, 2, 3, 4])
        sub, venues = table.restrict([2, 0])
        assert_array_equal(venues, [0, 2, 3])
        assert sub.group_names == ("g0", "g2")
        assert_array_equal(dense_counts(sub), [[1, 2, 0], [5, 0, 6]])
        assert_array_equal(sub.n_group_venue, [1, 2, 5, 6])


@settings(max_examples=50)
@given(
    st.integers(1, 5).flatmap(
        lambda t: st.integers(1, 6).flatmap(
            lambda v: st.lists(
                st.lists(st.integers(1, 9), min_size=v, max_size=v),
                min_size=t, max_size=t,
            )
        )
    )
)
def test_marginal_identities(matrix):
    t, v = len(matrix), len(matrix[0])
    table = table_from_matrix(matrix, [1] * v)
    assert table.n_venue.sum() == table.n_group.sum() == np.asarray(matrix).sum()
    assert_array_equal(table.n_venue, np.asarray(matrix).sum(axis=0))
    assert_array_equal(table.n_group, np.asarray(matrix).sum(axis=1))


class TestParseAuthorCounts:
    def test_jsonl(self):
        text = '{"venue": "v1", "count": 10}\n{"venue": "v2", "count": 60}\n'
        assert parse_author_counts(io.StringIO(text), "jsonl") == {"v1": 10, "v2": 60}

    def test_csv(self):
        assert parse_author_counts(io.StringIO("venue,count\nv1,10\n"), "csv") == {"v1": 10}

    def test_duplicate_rejected(self):
        text = "venue,count\nv1,10\nV1,11\n"
        with pytest.raises(ValidationError):
            parse_author_counts(io.StringIO(text), "csv")

    @pytest.mark.parametrize("text, line", [
        ("venue,count\nv1,1,000\n", 2),  # a thousands separator is a third field, not 1000
        ("venue,count\nv1,10\nv2,2,\n", 3),
    ])
    def test_csv_row_wider_than_header_rejected(self, text, line):
        with pytest.raises(ParseError, match="more fields than the header") as exc:
            parse_author_counts(io.StringIO(text), "csv")
        assert exc.value.line == line

    def test_bad_count(self):
        with pytest.raises(ValidationError) as exc:
            parse_author_counts(io.StringIO("venue,count\nv1,many\n"), "csv")
        assert exc.value.line == 2

    @pytest.mark.parametrize("fmt, text, line", [
        ("csv", "venue,count\nv1,10\nv2,0\n", 3),
        ("jsonl", '{"venue": "v1", "count": -2}\n', 1),
    ])
    def test_count_below_one_names_the_line(self, fmt, text, line):
        with pytest.raises(ValidationError, match=r"^line \d: 'count' must lie in \[1, 2\*\*53\], got -?\d$") as exc:
            parse_author_counts(io.StringIO(text), fmt)
        assert (exc.value.line, exc.value.field) == (line, "count")

    def test_count_above_2_53_names_the_line(self):
        assert parse_author_counts(io.StringIO(f"venue,count\nv1,{2**53}\n"), "csv") == {"v1": 2**53}
        with pytest.raises(ValidationError) as exc:
            parse_author_counts(io.StringIO(f"venue,count\nv1,{2**53 + 1}\n"), "csv")
        assert str(exc.value) == f"line 2: 'count' must lie in [1, 2**53], got {2**53 + 1}"
        assert (exc.value.line, exc.value.field) == (2, "count")

    def test_missing_column(self):

        with pytest.raises(ParseError):
            parse_author_counts(io.StringIO("venue\nv1\n"), "csv")
