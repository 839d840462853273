import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from pscore import (
    DegenerateInputError,
    InternalError,
    RankEntry,
    ScoreVector,
    ValidationError,
    build_beta,
    build_chain,
    build_reduced,
    group_consistency_check,
    gth_steady_state,
    make_ranking,
    normalize_max_one,
    rank_authors,
    ranking_to_json,
    ranking_to_tsv,
    venue_scores,
)

from conftest import (
    GOLDEN_BREADTH,
    GOLDEN_D,
    GOLDEN_MAX1_3DP,
    GOLDEN_NU,
    GOLDEN_NU_3DP,
    GOLDEN_NU_MAX1,
    random_counts_table,
    table_from_matrix,
)


@pytest.fixture
def golden_pipeline(golden_counts):
    chain = build_chain(golden_counts, GOLDEN_D)
    gamma = gth_steady_state(build_reduced(chain))
    nu = ScoreVector(golden_counts.venue_names, venue_scores(gamma, chain))
    return chain, gamma, nu


def weighted(pubs, nu):
    """Score-weighted publication count of ``pubs``, read off ``rank_authors``.

    The author is ranked beside a reference author with one paper at v3,
    whose weight is the frozen GOLDEN_NU[2]; both are divided by the same
    maximum, so their ratio recovers the author's weighted count.
    """
    ranking = rank_authors({"author": pubs, "reference": {"v3": 1}}, nu)
    scores = {e.name: e.score for e in ranking.entries}
    return scores["author"] / scores["reference"] * GOLDEN_NU[2]


class TestVenueScores:
    def test_golden_values(self, golden_pipeline):
        _, _, nu = golden_pipeline
        assert_allclose(nu.scores, GOLDEN_NU, rtol=0, atol=1e-15)
        assert_allclose(nu.scores, GOLDEN_NU_3DP, rtol=0, atol=1.5e-3)
        assert abs(np.asarray(nu.scores).sum() - 1.0) <= 1e-10

    def test_single_group_returns_beta_row(self, golden_counts):
        sub, _ = golden_counts.restrict([0])
        chain = build_chain(sub, GOLDEN_D)
        gamma = gth_steady_state(build_reduced(chain))
        nu = venue_scores(gamma, chain)
        assert_allclose(nu, build_beta(sub, GOLDEN_D)[0], rtol=0, atol=1e-15)

    def test_d_zero_gives_breadth_regardless_of_gamma(self, golden_counts):
        chain = build_chain(golden_counts, 0.0)
        gamma = gth_steady_state(build_reduced(chain))
        nu = venue_scores(gamma, chain)
        assert_allclose(nu, GOLDEN_BREADTH, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self, golden_pipeline, golden_counts):
        chain, _, _ = golden_pipeline
        sub, _ = golden_counts.restrict([0])
        one_group = gth_steady_state(build_reduced(build_chain(sub, GOLDEN_D)))
        with pytest.raises(InternalError, match="gamma has 1 entries but the chain has 2 groups"):
            venue_scores(one_group, chain)


class TestNormalizeMaxOne:
    def test_golden_values(self, golden_pipeline):
        _, _, nu = golden_pipeline
        top = normalize_max_one(np.asarray(nu.scores))
        assert_allclose(top, GOLDEN_NU_MAX1, rtol=0, atol=1e-15)
        assert_allclose(top, GOLDEN_MAX1_3DP, rtol=0, atol=2e-3)
        assert top.max() == 1.0

    def test_single_entry(self):
        assert_array_equal(normalize_max_one(np.array([0.7])), [1.0])

    def test_exact_powers(self):
        assert_array_equal(normalize_max_one(np.array([2.0, 4.0, 8.0])), [0.25, 0.5, 1.0])

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize_max_one(np.array([0.0, 0.0]))


class TestConsistency:
    def test_golden_residual(self, golden_pipeline):
        chain, gamma, nu = golden_pipeline
        assert group_consistency_check(gamma, np.asarray(nu.scores), chain) <= 1e-10

    def test_single_group_exact(self, golden_counts):
        sub, _ = golden_counts.restrict([1])
        chain = build_chain(sub, 0.5)
        gamma = gth_steady_state(build_reduced(chain))
        nu = venue_scores(gamma, chain)
        assert group_consistency_check(gamma, nu, chain) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_random_instances(self, seed, d):
        table = random_counts_table(np.random.default_rng(seed), max_groups=8, max_venues=20, max_count=9)
        chain = build_chain(table, d)
        gamma = gth_steady_state(build_reduced(chain))
        nu = venue_scores(gamma, chain)
        assert group_consistency_check(gamma, nu, chain) <= 1e-10
        assert abs(nu.sum() - 1.0) <= 1e-10


class TestAuthorScore:
    def test_one_paper_per_golden_venue_sums_to_one(self, golden_pipeline):
        _, _, nu = golden_pipeline
        s = weighted([("v1", 1), ("v2", 1), ("v3", 1)], nu)
        assert abs(s - 1.0) <= 1e-12

    def test_no_publications(self, golden_pipeline):
        _, _, nu = golden_pipeline
        assert weighted([], nu) == 0.0

    def test_two_papers_in_middle_venue(self, golden_pipeline):
        _, _, nu = golden_pipeline
        s = weighted([("v2", 2)], nu)
        assert abs(s - 2 * GOLDEN_NU[1]) <= 1e-12
        assert abs(s - 1.180) <= 2e-3  # three-decimal presentation arithmetic

    def test_unknown_venue_scores_zero_and_warns(self, golden_pipeline, caplog):
        _, _, nu = golden_pipeline
        with caplog.at_level("WARNING", logger="pscore.scoring"):
            s = weighted([("workshop of one", 5), ("v1", 1)], nu)
        assert abs(s - GOLDEN_NU[0]) <= 1e-15
        assert "workshop of one" in caplog.text

    def test_negative_count_rejected(self, golden_pipeline):
        _, _, nu = golden_pipeline
        with pytest.raises(ValidationError):
            weighted([("v1", -1)], nu)

    def test_venue_name_matching_is_normalized(self, golden_pipeline):
        _, _, nu = golden_pipeline
        assert abs(weighted([(" V1 ", 1)], nu) - GOLDEN_NU[0]) <= 1e-15


class TestRankAuthors:
    def test_relative_scores(self, golden_pipeline):
        _, _, nu = golden_pipeline
        pubs = {"a1": {"v1": 1, "v2": 1, "v3": 1}, "a2": {"v2": 1}}
        ranking = rank_authors(pubs, nu)
        assert ranking.entries[0].name == "a1"
        assert ranking.entries[0].score == 1.0
        assert abs(ranking.entries[1].score - GOLDEN_NU[1] / 1.0) <= 1e-12

    def test_single_author(self, golden_pipeline):
        _, _, nu = golden_pipeline
        ranking = rank_authors({"only": {"v1": 3}}, nu)
        assert ranking.entries == (RankEntry(1, "only", 1.0),)

    def test_competition_ties_lexicographic(self, golden_pipeline):
        _, _, nu = golden_pipeline
        pubs = {"zeta": {"v2": 2}, "Alpha": {"v2": 2}, "mid": {"v2": 1}}
        ranking = rank_authors(pubs, nu)
        assert [(e.rank, e.name) for e in ranking.entries] == [(1, "Alpha"), (1, "zeta"), (3, "mid")]

    def test_all_zero_rejected(self, golden_pipeline):
        _, _, nu = golden_pipeline
        with pytest.raises(DegenerateInputError):
            rank_authors({"a": {"elsewhere": 4}}, nu)
        with pytest.raises(DegenerateInputError):
            rank_authors({}, nu)

    def test_uniform_scaling_leaves_ranking_unchanged(self, golden_pipeline):
        _, _, nu = golden_pipeline
        pubs = {"a": {"v1": 2, "v3": 1}, "b": {"v2": 1}, "c": {"v1": 1}}
        base = rank_authors(pubs, nu)
        for k in (2, 3, 10):
            scaled = rank_authors(
                {a: {v: k * n for v, n in per.items()} for a, per in pubs.items()}, nu
            )
            assert [(e.rank, e.name) for e in scaled.entries] == [
                (e.rank, e.name) for e in base.entries
            ]
            for left, right in zip(scaled.entries, base.entries):
                assert abs(left.score - right.score) <= 1e-12

    def test_adding_a_scored_paper_strictly_increases(self, golden_pipeline):
        _, _, nu = golden_pipeline
        ranking = rank_authors({"before": [("v3", 1)], "after": [("v3", 2)]}, nu)
        scores = {e.name: e.score for e in ranking.entries}
        assert scores["after"] > scores["before"]


class TestRankGroups:
    def test_golden_order(self, golden_pipeline):
        chain, gamma, _ = golden_pipeline
        ranking = make_ranking(("Group 1", "Group 2"), gamma.gamma)
        assert [(e.rank, e.name) for e in ranking.entries] == [(1, "Group 2"), (2, "Group 1")]

    def test_symmetric_tie(self):
        table = table_from_matrix([[2, 1], [1, 2]], [3, 3], ("gb", "ga"), ("v1", "v2"))
        chain = build_chain(table, 0.5)
        gamma = gth_steady_state(build_reduced(chain))
        ranking = make_ranking(table.group_names, gamma.gamma)
        assert [(e.rank, e.name, e.score) for e in ranking.entries] == [
            (1, "ga", 0.5), (1, "gb", 0.5),
        ]

    def test_single_group(self, golden_counts):
        sub, _ = golden_counts.restrict([0])
        gamma = gth_steady_state(build_reduced(build_chain(sub, 0.5)))
        ranking = make_ranking(sub.group_names, gamma.gamma)
        assert ranking.entries == (RankEntry(1, "Group 1", 1.0),)


class TestRankingFormats:
    RANKING = make_ranking(["b", "a", "c"], [0.25, 1.0, 0.25])

    def test_competition_numbering(self):
        assert [(e.rank, e.name) for e in self.RANKING.entries] == [(1, "a"), (2, "b"), (2, "c")]

    def test_tsv(self):
        text = ranking_to_tsv(self.RANKING, comments=("demo",))
        assert text.splitlines() == [
            "# demo",
            "rank\tname\tscore",
            "1\ta\t1.000000",
            "2\tb\t0.250000",
            "2\tc\t0.250000",
        ]

    def test_json(self):
        payload = json.loads(ranking_to_json(self.RANKING))
        assert payload[0] == {"rank": 1, "name": "a", "score": 1.0}
        assert payload[1]["score"] == 0.25

    def test_skips_after_long_tie(self):
        ranking = make_ranking(["w", "x", "y", "z"], [0.4, 0.4, 0.4, 0.1])
        assert [e.rank for e in ranking.entries] == [1, 1, 1, 4]

    def test_ties_on_printed_score(self):
        # all three print 0.123456; the name decides their order, not the last digits
        ranking = make_ranking(["c", "b", "a", "d"], [0.1234564, 0.1234561, 0.1234556, 0.1234554])
        assert [(e.rank, e.name) for e in ranking.entries] == [(1, "a"), (1, "b"), (1, "c"), (4, "d")]
        assert ranking.entries[0].score == 0.1234556  # unrounded
        assert ranking_to_tsv(ranking).splitlines()[1:] == [
            "1\ta\t0.123456", "1\tb\t0.123456", "1\tc\t0.123456", "4\td\t0.123455",
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30), st.floats(-1e-6, 1e-6)), min_size=1, max_size=40))
    def test_ranks_tie_exactly_where_printed_scores_do(self, draws):
        scores = [max(0.0, k / 1000 + jitter) for k, jitter in draws]
        ranking = make_ranking([f"n{i}" for i in range(len(scores))], scores)
        rows = [line.split("\t") for line in ranking_to_tsv(ranking).splitlines()[1:]]
        assert rows[0][0] == "1"
        for position, (prev, cur) in enumerate(zip(rows, rows[1:]), start=2):
            assert float(cur[2]) <= float(prev[2])
            assert cur[0] == (prev[0] if cur[2] == prev[2] else str(position))


class TestScoreVectorInvariants:
    """A score vector is held to the venue-score file's rules; a broken one is a ValidationError at its entry."""

    @staticmethod
    def refused(names, scores):
        with pytest.raises(ValidationError) as exc:
            ScoreVector(names, scores)
        return str(exc.value), exc.value.entry, exc.value.field

    def test_length_mismatch(self):
        assert self.refused(("a",), np.array([0.5, 0.5])) == (
            "score vector names and scores differ in length (1 and 2)", None, None)

    def test_duplicate_names(self):
        assert self.refused(("a", "A"), np.array([0.5, 0.5])) == (
            "entry 1: venue 'A' is listed twice (first at entry 0)", 1, "venue")

    def test_negative_scores(self):
        scores = np.array([-0.1, 1.1])
        assert self.refused(("a", "b"), scores) == (
            f"entry 0: raw_score must be finite and nonnegative, got {scores[0]!r}", 0, "raw_score")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_scores(self, bad):
        scores = np.array([bad, 1.0])
        refused = (f"entry 0: raw_score must be finite and nonnegative, got {scores[0]!r}", 0, "raw_score")
        assert self.refused(("a", "b"), scores) == refused
        # abs(nan - 1) > tol is False, so the sum check alone would let nan through
        assert self.refused(("v1",), np.array([bad])) == refused

    def test_raw_venue_vector_must_sum_to_one(self):
        assert self.refused(("v1", "v2"), np.array([0.7, 0.7])) == (
            "raw venue scores sum to 1.4, not 1 (tolerance 1e-10)", None, None)
        assert ScoreVector(["v1", "v2"], [0.25, 0.75]).names == ("v1", "v2")

    def test_score_lookup_is_case_insensitive(self, golden_pipeline, caplog):
        _, _, nu = golden_pipeline
        # "all" weighs sum(nu) = 1 and tops the ranking, so the others keep their weights
        pubs = {"upper": {"V2": 1}, "lower": {"v2": 1}, "all": {"v1": 1, "v2": 1, "v3": 1}}
        scores = {e.name: e.score for e in rank_authors(pubs, nu).entries}
        assert scores["upper"] == scores["lower"] == nu.scores[1]
        with caplog.at_level("WARNING", logger="pscore.scoring"), pytest.raises(DegenerateInputError):
            rank_authors({"a": {"missing": 1}}, nu)
        assert "missing" in caplog.text
