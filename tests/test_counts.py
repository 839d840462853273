import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from pscore import (
    CountsTable,
    InternalError,
    PublicationRecord,
    ValidationError,
    aggregate,
    build_dataset,
    parse_author_counts,
    parse_records,
)

from conftest import DATA_DIR, GOLDEN_AUTHOR_COUNTS, GOLDEN_MATRIX


def rec(group, venue, authors=("a",), paper_id=None):
    return PublicationRecord(group=group, authors=tuple(authors), venue=venue, paper_id=paper_id)


@pytest.fixture
def golden_records():
    with open(DATA_DIR / "golden_records.jsonl", "rb") as fh:
        return parse_records(fh, "jsonl")


@pytest.fixture
def golden_dataset(golden_records):
    return build_dataset(golden_records, ["Group 1", "Group 2"])


class TestAggregate:
    def test_golden_counts(self, golden_dataset):
        table = aggregate(golden_dataset)
        assert_array_equal(table.n_group_venue, GOLDEN_MATRIX)
        assert_array_equal(table.n_venue, [5, 6, 3])
        assert_array_equal(table.n_group, [6, 8])

    def test_golden_with_overrides(self, golden_dataset):
        table = aggregate(golden_dataset, {"v1": 10, "v2": 60, "v3": 20})
        assert_array_equal(table.d_venue, GOLDEN_AUTHOR_COUNTS)

    def test_singleton(self):
        ds = build_dataset([rec("G1", "v1", authors=("a1",))], ["G1"])
        table = aggregate(ds)
        assert_array_equal(table.n_group_venue, [[1]])
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

    def test_override_non_integer_rejected(self):
        ds = build_dataset([rec("G1", "v1")], ["G1"])
        with pytest.raises(ValidationError):
            aggregate(ds, {"v1": "ten"})

    def test_record_order_is_irrelevant(self, golden_records, golden_dataset):
        table = aggregate(golden_dataset)
        shuffled = build_dataset(golden_records[::-1], golden_dataset.groups)
        assert_array_equal(aggregate(shuffled).n_group_venue, table.n_group_venue)
        assert_array_equal(aggregate(shuffled).d_venue, table.d_venue)

    def test_group_order_permutes_rows(self, golden_records, golden_dataset):
        table = aggregate(golden_dataset)
        flipped = build_dataset(golden_records, ("Group 2", "Group 1"))
        assert_array_equal(aggregate(flipped).n_group_venue, table.n_group_venue[::-1])


class TestCountsTable:
    def test_zero_venue_rejected(self):
        with pytest.raises(InternalError):
            CountsTable([[1, 0]], [1, 1], ("g",), ("a", "b"))

    def test_restrict_drops_empty_venues(self):
        table = CountsTable(
            [[2, 0, 1], [0, 3, 0]], [5, 6, 7], ("g0", "g1"), ("a", "b", "c")
        )
        sub, venues = table.restrict([0])
        assert_array_equal(venues, [0, 2])
        assert sub.group_names == ("g0",)
        assert sub.venue_names == ("a", "c")
        assert_array_equal(sub.n_group_venue, [[2, 1]])
        assert_array_equal(sub.d_venue, [5, 7])


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
    table = CountsTable(
        matrix, [1] * v, [f"g{i}" for i in range(t)], [f"v{j}" for j in range(v)]
    )
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

    def test_bad_count(self):
        with pytest.raises(ValidationError) as exc:
            parse_author_counts(io.StringIO("venue,count\nv1,many\n"), "csv")
        assert exc.value.line == 2

    @pytest.mark.parametrize("fmt, text, line", [
        ("csv", "venue,count\nv1,10\nv2,0\n", 3),
        ("jsonl", '{"venue": "v1", "count": -2}\n', 1),
    ])
    def test_count_below_one_names_the_line(self, fmt, text, line):
        with pytest.raises(ValidationError, match=">= 1") as exc:
            parse_author_counts(io.StringIO(text), fmt)
        assert (exc.value.line, exc.value.field) == (line, "count")

    def test_missing_column(self):
        from pscore import ParseError

        with pytest.raises(ParseError):
            parse_author_counts(io.StringIO("venue\nv1\n"), "csv")
