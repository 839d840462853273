import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from pscore import (
    ChainError,
    CountsTable,
    ParameterError,
    ReputationChain,
    build_alpha,
    build_beta,
    build_chain,
    build_reduced,
    check_irreducible,
    solve_pipeline,
    steady_state,
)
from pscore.chain import format_matrix_tsv

from conftest import (
    GOLDEN_ALPHA,
    GOLDEN_AUTHOR_COUNTS,
    GOLDEN_BETA,
    GOLDEN_BREADTH,
    GOLDEN_D,
    GOLDEN_MATRIX,
    GOLDEN_REDUCED,
    random_counts_table,
)


def counts(matrix, d_venue):
    t, v = len(matrix), len(matrix[0])
    return CountsTable(
        matrix, d_venue, [f"g{w}" for w in range(t)], [f"v{j}" for j in range(v)]
    )


DISJOINT = counts([[2, 0], [0, 3]], [4, 5])


class TestBuildAlpha:
    def test_golden_rows(self, golden_counts):
        assert_allclose(build_alpha(golden_counts), GOLDEN_ALPHA, rtol=0, atol=1e-15)

    def test_single_group_rows_are_one(self):
        alpha = build_alpha(counts([[3, 1, 4]], [1, 1, 1]))
        assert_array_equal(alpha, [[1.0], [1.0], [1.0]])

    def test_identical_groups_split_evenly(self):
        alpha = build_alpha(counts([[2, 5], [2, 5]], [1, 1]))
        assert_array_equal(alpha, [[0.5, 0.5], [0.5, 0.5]])


class TestBuildBeta:
    def test_golden_rows(self, golden_counts):
        beta = build_beta(golden_counts, GOLDEN_D)
        assert_allclose(beta, GOLDEN_BETA, rtol=0, atol=1e-15)

    def test_d_one_is_pure_volume(self, golden_counts):
        beta = build_beta(golden_counts, 1.0)
        volume = np.asarray(GOLDEN_MATRIX) / np.asarray(GOLDEN_MATRIX).sum(axis=1, keepdims=True)
        assert_array_equal(beta, volume)

    def test_d_zero_is_pure_breadth(self, golden_counts):
        beta = build_beta(golden_counts, 0.0)
        for row in beta:
            assert_array_equal(row, GOLDEN_BREADTH)
        assert math.isclose(beta[0].sum(), 1.0, abs_tol=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf")])
    def test_d_out_of_range(self, golden_counts, bad):
        with pytest.raises(ParameterError):
            build_beta(golden_counts, bad)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_every_entry_point_checks_d(self, golden_counts, bad):
        chain = build_chain(golden_counts, 0.5)
        calls = (
            lambda: build_chain(golden_counts, bad),
            lambda: ReputationChain(alpha=chain.alpha, beta=chain.beta, d=bad, breadth=chain.breadth),
            lambda: steady_state(golden_counts, bad),
            lambda: solve_pipeline(golden_counts, bad),
        )
        for call in calls:
            with pytest.raises(ParameterError, match=r"mixing parameter d must lie in \[0, 1\]"):
                call()

    def test_convex_in_d(self, golden_counts):
        for d in (0.25, 0.5, 0.75, 1 / 3):
            blended = build_beta(golden_counts, d)
            endpoints = d * build_beta(golden_counts, 1.0) + (1 - d) * build_beta(golden_counts, 0.0)
            assert_array_equal(blended, endpoints)


class TestScalingInvariance:
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_count_scaling(self, golden_counts, k):
        scaled = counts((np.asarray(GOLDEN_MATRIX) * k).tolist(), GOLDEN_AUTHOR_COUNTS)
        assert_allclose(build_alpha(scaled), build_alpha(golden_counts), rtol=0, atol=1e-12)
        assert_allclose(
            build_beta(scaled, 1.0), build_beta(golden_counts, 1.0), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("k", [2, 7])
    def test_breadth_scaling(self, golden_counts, k):
        scaled = counts(GOLDEN_MATRIX, (np.asarray(GOLDEN_AUTHOR_COUNTS) * k).tolist())
        assert_allclose(
            build_beta(scaled, GOLDEN_D), build_beta(golden_counts, GOLDEN_D), rtol=0, atol=1e-12
        )


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


class TestChainInvariants:
    def test_row_sum_drift_raises(self):
        with pytest.raises(ChainError, match="drift"):
            ReputationChain(
                alpha=[[0.6, 0.3]], beta=[[0.5], [0.5]], d=0.5, breadth=[1.0]
            )

    def test_negative_entry_raises(self):
        with pytest.raises(ChainError):
            ReputationChain(
                alpha=[[1.5, -0.5]], beta=[[1.0], [1.0]], d=0.5, breadth=[1.0]
            )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ChainError):
            ReputationChain(alpha=[[1.0]], beta=[[0.5, 0.5]], d=0.5, breadth=[1.0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_random_chains_are_stochastic(self, seed, d):
        rng = np.random.default_rng(seed)
        table = random_counts_table(rng, max_groups=6, max_venues=12, max_count=9)
        chain = build_chain(table, d)
        assert np.max(np.abs(chain.alpha.sum(axis=1) - 1.0)) <= 1e-9
        assert np.max(np.abs(chain.beta.sum(axis=1) - 1.0)) <= 1e-9
        assert np.max(np.abs(build_reduced(chain).sum(axis=1) - 1.0)) <= 1e-9
        assert chain.alpha.min() >= 0 and chain.beta.min() >= 0


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


def test_format_matrix_tsv():
    text = format_matrix_tsv(["r1", "r2"], np.array([[1 / 3, 2 / 3], [0.25, 0.75]]), comment="block")
    lines = text.splitlines()
    assert lines[0] == "# block"
    assert lines[1] == "r1\t0.333333333333\t0.666666666667"
    assert lines[2] == "r2\t0.25\t0.75"
