import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from pscore import (
    CountsTable,
    ParameterError,
    ReputationChain,
    StationaryDistribution,
    build_chain,
    check_irreducible,
    group_consistency_check,
    solve_pipeline,
    venue_scores,
)
from pscore.chain import build_reduced

from conftest import (
    GOLDEN_ALPHA,
    GOLDEN_AUTHOR_COUNTS,
    GOLDEN_BETA,
    GOLDEN_BREADTH,
    GOLDEN_D,
    GOLDEN_MATRIX,
    GOLDEN_REDUCED,
    count_tables,
    random_counts_table,
    table_from_matrix,
)
from oracles import components, dense_blocks, dense_reduced


def counts(matrix, d_venue):
    return table_from_matrix(matrix, d_venue)


DISJOINT = counts([[2, 0], [0, 3]], [4, 5])


def alpha_of(chain):
    """alpha as the chain applies it: row j is ``to_groups`` of venue j's unit vector."""
    return np.array([chain.to_groups(e) for e in np.eye(chain.counts.num_venues)])


def beta_of(chain):
    """beta as the chain applies it: row w is ``venue_scores`` of group w's unit vector."""
    return np.array([venue_scores(StationaryDistribution(gamma=e, residual=0.0, method="given"), chain)
                     for e in np.eye(chain.counts.num_groups)])


class TestBuildAlpha:
    """The venue-to-group block, read off the chain."""

    def test_golden_rows(self, golden_counts):
        assert_allclose(alpha_of(build_chain(golden_counts, GOLDEN_D)), GOLDEN_ALPHA, rtol=0, atol=1e-15)

    def test_single_group_rows_are_one(self):
        alpha = alpha_of(build_chain(counts([[3, 1, 4]], [1, 1, 1]), 0.5))
        assert_array_equal(alpha, [[1.0], [1.0], [1.0]])

    def test_identical_groups_split_evenly(self):
        alpha = alpha_of(build_chain(counts([[2, 5], [2, 5]], [1, 1]), 0.5))
        assert_array_equal(alpha, [[0.5, 0.5], [0.5, 0.5]])


class TestBuildBeta:
    """The group-to-venue block, read off the chain."""

    def test_golden_rows(self, golden_counts):
        beta = beta_of(build_chain(golden_counts, GOLDEN_D))
        assert_allclose(beta, GOLDEN_BETA, rtol=0, atol=1e-15)

    def test_d_one_is_pure_volume(self, golden_counts):
        beta = beta_of(build_chain(golden_counts, 1.0))
        volume = np.asarray(GOLDEN_MATRIX) / np.asarray(GOLDEN_MATRIX).sum(axis=1, keepdims=True)
        assert_array_equal(beta, volume)

    def test_d_zero_is_pure_breadth(self, golden_counts):
        beta = beta_of(build_chain(golden_counts, 0.0))
        for row in beta:
            assert_array_equal(row, GOLDEN_BREADTH)
        assert math.isclose(beta[0].sum(), 1.0, abs_tol=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf")])
    def test_d_out_of_range(self, golden_counts, bad):
        with pytest.raises(ParameterError):
            build_chain(golden_counts, bad)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_every_entry_point_checks_d(self, golden_counts, bad):
        calls = (
            lambda: build_chain(golden_counts, bad),
            lambda: ReputationChain(counts=golden_counts, d=bad),
            lambda: solve_pipeline(golden_counts, bad),
        )
        for call in calls:
            with pytest.raises(ParameterError, match=r"mixing parameter d must lie in \[0, 1\]"):
                call()

    def test_convex_in_d(self, golden_counts):
        for d in (0.25, 0.5, 0.75, 1 / 3):
            blended = beta_of(build_chain(golden_counts, d))
            endpoints = d * beta_of(build_chain(golden_counts, 1.0)) + (1 - d) * beta_of(build_chain(golden_counts, 0.0))
            assert_array_equal(blended, endpoints)


class TestScalingInvariance:
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_count_scaling(self, golden_counts, k):
        scaled = counts((np.asarray(GOLDEN_MATRIX) * k).tolist(), GOLDEN_AUTHOR_COUNTS)
        chain, scaled_chain = build_chain(golden_counts, 1.0), build_chain(scaled, 1.0)
        assert_allclose(alpha_of(scaled_chain), alpha_of(chain), rtol=0, atol=1e-12)
        assert_allclose(beta_of(scaled_chain), beta_of(chain), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 7])
    def test_breadth_scaling(self, golden_counts, k):
        scaled = counts(GOLDEN_MATRIX, (np.asarray(GOLDEN_AUTHOR_COUNTS) * k).tolist())
        assert_allclose(beta_of(build_chain(scaled, GOLDEN_D)), beta_of(build_chain(golden_counts, GOLDEN_D)),
                        rtol=0, atol=1e-12)


class TestBuildReduced:
    def test_golden_product(self, golden_counts):
        reduced = build_reduced(build_chain(golden_counts, GOLDEN_D))
        assert_allclose(reduced, GOLDEN_REDUCED, rtol=0, atol=1e-15)
        # five-decimal presentation of the same matrix
        assert_allclose(reduced, [[0.39753, 0.60247], [0.37531, 0.62469]], rtol=0, atol=5e-6)

    def test_single_group(self):
        reduced = build_reduced(build_chain(counts([[2, 3]], [1, 1]), 0.7))
        assert_allclose(reduced, [[1.0]], rtol=0, atol=1e-12)

    def test_d_zero_gives_identical_rows(self, golden_counts):
        reduced = build_reduced(build_chain(golden_counts, 0.0))
        assert_allclose(reduced[0], reduced[1], rtol=0, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(count_tables(), st.floats(0.0, 1.0))
    def test_matches_the_dense_product(self, table, d):
        # the two sum in different orders; 5,000 random tables came within 2 units in the last place of 1
        assert_allclose(build_reduced(build_chain(table, d)), dense_reduced(table, d), rtol=0, atol=4.5e-16)


class TestChainInvariants:
    def test_breadth_total_does_not_wrap(self):
        # 1,025 counts of 2**53 sum past 2**63; an int64 total wrapped negative
        table, uniform = counts([[1] * 1025], [2**53] * 1025), np.full(1025, 1 / 1025)
        assert_array_equal(build_chain(table, 0.5).breadth, uniform)
        assert_array_equal(beta_of(build_chain(table, 0.0))[0], uniform)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_random_chains_are_stochastic(self, seed, d):
        rng = np.random.default_rng(seed)
        table = random_counts_table(rng, max_groups=6, max_venues=12, max_count=9)
        chain = build_chain(table, d)
        alpha, beta = alpha_of(chain), beta_of(chain)
        assert np.max(np.abs(alpha.sum(axis=1) - 1.0)) <= 1e-9
        assert np.max(np.abs(beta.sum(axis=1) - 1.0)) <= 1e-9
        assert np.max(np.abs(build_reduced(chain).sum(axis=1) - 1.0)) <= 1e-9
        assert alpha.min() >= 0 and beta.min() >= 0


class TestCheckIrreducible:
    def test_golden_always_irreducible(self, golden_counts):
        for d in (0.0, GOLDEN_D, 1.0):
            report = check_irreducible(build_chain(golden_counts, d))
            assert report.irreducible
            assert report.components == (frozenset({0, 1}),)

    def test_disjoint_venues_at_d_one(self):
        report = check_irreducible(build_chain(DISJOINT, 1.0))
        assert not report.irreducible
        assert report.components == (frozenset({0}), frozenset({1}))

    def test_disjoint_venues_below_d_one(self):
        report = check_irreducible(build_chain(DISJOINT, 0.5))
        assert report.irreducible

    def test_three_groups_two_components(self):
        table = counts([[1, 1, 0], [0, 1, 0], [0, 0, 2]], [1, 1, 1])
        report = check_irreducible(build_chain(table, 1.0))
        assert report.components == (frozenset({0, 1}), frozenset({2}))


class TestSparseAgainstDense:
    """The chain's sums over the count cells against blocks formed densely from them.

    The dense reference is built in ``np.longdouble``, so it measures the
    float64 error of the sparse path alone.
    """

    D = st.one_of(st.floats(0.0, 1.0), st.just(0.0), st.just(1.0))
    # a table that d = 1 splits into {g0, g1} and {g2}
    SPLIT = table_from_matrix([[1, 2, 0], [0, 1, 0], [0, 0, 3]], [4, 5, 6])

    @settings(max_examples=200, deadline=None)
    @given(count_tables(), D, st.integers(0, 2**32 - 1))
    @example(SPLIT, 1.0, 0)
    def test_venue_scores_and_consistency(self, table, d, seed):
        chain = build_chain(table, d)
        ld = np.longdouble
        alpha, beta = dense_blocks(table, d, chain.breadth.astype(ld), dtype=ld)
        # any group vector will do, stationary or not: both sides are linear maps of it
        g = np.random.default_rng(seed).dirichlet(np.ones(table.num_groups))
        gamma = StationaryDistribution(gamma=g, residual=0.0, method="given")
        nu = venue_scores(gamma, chain)
        assert_allclose(nu, (g.astype(ld) @ beta).astype(float), rtol=1e-15, atol=0)
        back = nu.astype(ld) @ alpha
        assert_allclose(chain.to_groups(nu), back.astype(float), rtol=1e-15, atol=0)
        # the residual is a difference of two vectors of size max(gamma), so it is
        # judged on that scale
        expected = float(np.max(np.abs(g.astype(ld) - back)))
        assert abs(group_consistency_check(gamma, nu, chain) - expected) <= 1e-15 * g.max()

    # one group whose 10**5 cells sum to just under 2**53, and one venue shared by 10**5 groups
    WIDE = CountsTable(np.zeros(10**5, int), np.arange(10**5), np.full(10**5, 2**53 // 10**5 - 7),
                       np.arange(1, 10**5 + 1), ["g"], [f"v{j}" for j in range(10**5)])
    TALL = CountsTable(np.arange(10**5), np.zeros(10**5, int), np.arange(10**5) % 9 + 1, [3],
                       [f"g{w}" for w in range(10**5)], ["v"])

    @settings(max_examples=200, deadline=None)
    @given(count_tables(), D, st.integers(0, 2**32 - 1))
    @example(WIDE, 0.5, 1)
    @example(TALL, 0.5, 2)
    @example(WIDE, 1.0, 3)
    @example(TALL, 0.0, 4)
    def test_one_step_keeps_the_mass(self, table, d, seed):
        # the property the chain's blocks hold by construction, so that they need no runtime row check:
        # a step through beta and alpha keeps a group vector's total, and the breadth shares sum to 1
        chain = build_chain(table, d)
        rng = np.random.default_rng(seed)
        g = rng.exponential(size=table.num_groups) * (rng.random(table.num_groups) < 0.8)
        step = d * chain.to_groups(chain.to_venues(g)) + (1 - d) * g.sum() * chain.to_groups(chain.breadth)
        assert abs(step.sum() - g.sum()) <= 1e-14 * g.sum()
        assert abs(chain.breadth.sum() - 1.0) <= 1e-14

    @settings(max_examples=200, deadline=None)
    @given(count_tables())
    @example(SPLIT)
    @example(DISJOINT)
    def test_components_match_breadth_first_search(self, table):
        report = check_irreducible(build_chain(table, 1.0))
        assert report.components == components(table)
        assert report.irreducible == (len(report.components) == 1)

