import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from pscore import (
    ChainError,
    CountsTable,
    DisconnectedChainError,
    build_chain,
    check_irreducible,
    steady_state,
)
from pscore import solver
from pscore.solver import gth_steady_state

from conftest import (
    GOLDEN_D,
    GOLDEN_GAMMA,
    GOLDEN_REDUCED,
    count_tables,
    random_stochastic_matrix,
    table_from_matrix,
)
from oracles import (ConvergenceError, dense_blocks, dense_reduced, power_iteration, stationary_by_solve,
                     stationary_extended)

# hand-solved two-state chain: pi1 * 0.4 = pi2 * 0.3  =>  pi = [3/7, 4/7]
TWO_STATE = np.array([[0.6, 0.4], [0.3, 0.7]])
TWO_STATE_PI = np.array([3 / 7, 4 / 7])


def stationary_by_eig(p: np.ndarray) -> np.ndarray:
    """Brute-force oracle: dominant left eigenvector via dense eigendecomposition."""
    eigvals, eigvecs = np.linalg.eig(p.T)
    k = int(np.argmin(np.abs(eigvals - 1.0)))
    vec = np.real(eigvecs[:, k])
    vec = np.abs(vec)
    return vec / vec.sum()


class TestGth:
    def test_doubly_stochastic_two_state(self):
        result = gth_steady_state([[0.5, 0.5], [0.5, 0.5]])
        assert_allclose(result.gamma, [0.5, 0.5], rtol=0, atol=0)
        assert result.method == "gth"

    def test_two_state_balance(self):
        result = gth_steady_state(TWO_STATE)
        assert_allclose(result.gamma, TWO_STATE_PI, rtol=0, atol=1e-15)

    def test_golden_reduced(self):
        result = gth_steady_state(GOLDEN_REDUCED)
        assert_allclose(result.gamma, GOLDEN_GAMMA, rtol=0, atol=1e-14)
        # closed form for two states, recomputed here rather than trusted
        closed = GOLDEN_REDUCED[1, 0] / (GOLDEN_REDUCED[0, 1] + GOLDEN_REDUCED[1, 0])
        assert_allclose(result.gamma, [closed, 1 - closed], rtol=0, atol=1e-14)
        assert result.residual <= 1e-10

    def test_single_state(self):
        result = gth_steady_state([[1.0]])
        assert_allclose(result.gamma, [1.0], rtol=0, atol=0)

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_stochastic_matrix(rng, int(rng.integers(2, 12)))
            assert_allclose(gth_steady_state(p).gamma, stationary_by_eig(p), rtol=0, atol=1e-9)

    def test_reducible_matrix_raises(self):
        with pytest.raises(DisconnectedChainError):
            gth_steady_state(np.eye(2))

    def test_rejects_non_stochastic(self):
        with pytest.raises(ChainError):
            gth_steady_state([[0.6, 0.3], [0.5, 0.5]])
        with pytest.raises(ChainError):
            gth_steady_state([[1.2, -0.2], [0.5, 0.5]])
        with pytest.raises(ChainError):
            gth_steady_state([[0.5, 0.5]])

    def test_does_not_mutate_input(self):
        p = TWO_STATE.copy()
        gth_steady_state(p)
        assert_allclose(p, TWO_STATE, rtol=0, atol=0)


class TestPowerIteration:
    def test_two_state_balance(self):
        result = power_iteration(TWO_STATE, tol=1e-12)
        assert_allclose(result.gamma, TWO_STATE_PI, rtol=0, atol=1e-10)
        assert result.method == "power"

    def test_rank_one_uniform_matrix_in_one_step(self):
        p = np.full((4, 4), 0.25)
        result = power_iteration(p)
        assert_allclose(result.gamma, [0.25] * 4, rtol=0, atol=0)
        assert result.residual <= 1e-15

    def test_golden_reduced_matches_gth(self):
        gth = gth_steady_state(GOLDEN_REDUCED)
        power = power_iteration(GOLDEN_REDUCED, tol=1e-12)
        assert np.max(np.abs(gth.gamma - power.gamma)) <= 1e-10

    def test_periodic_chain_does_not_converge(self):
        # bipartite 3-state chain; the uniform start oscillates with period 2
        hub = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ConvergenceError) as exc:
            power_iteration(hub, tol=1e-12, max_iters=50)
        assert exc.value.residual > 0


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 50))
    def test_oracle_agreement(self, seed, n):
        p = random_stochastic_matrix(np.random.default_rng(seed), n)
        gth = gth_steady_state(p)
        power = power_iteration(p, tol=1e-12)
        assert np.max(np.abs(gth.gamma - power.gamma)) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30))
    def test_gth_invariants(self, seed, n):
        p = random_stochastic_matrix(np.random.default_rng(seed), n)
        result = gth_steady_state(p)
        assert result.residual <= 1e-10
        assert abs(result.gamma.sum() - 1.0) <= 1e-12
        assert np.all(result.gamma > 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    def test_permutation_equivariance(self, seed, n):
        rng = np.random.default_rng(seed)
        p = random_stochastic_matrix(rng, n)
        perm = rng.permutation(n)
        permuted = p[np.ix_(perm, perm)]
        gamma = gth_steady_state(p).gamma
        gamma_perm = gth_steady_state(permuted).gamma
        assert np.max(np.abs(gamma_perm - gamma[perm])) <= 1e-12


def _table(n: np.ndarray, d_venue) -> CountsTable:
    return table_from_matrix(n, d_venue)


def _uniform_table(t: int, v: int) -> CountsTable:
    """Every group publishes once at every venue; one author per venue."""
    return _table(np.ones((t, v), dtype=int), [1] * v)


def _path_table(t: int) -> CountsTable:
    """Groups w and w + 1 share venue w, which has w + 1 authors: a spectral gap that closes like 1 / T^2."""
    n = np.zeros((t, t - 1), dtype=int)
    n[np.arange(t - 1), np.arange(t - 1)] = n[np.arange(1, t), np.arange(t - 1)] = 1
    return _table(n, np.arange(1, t))


extended = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="longdouble is float64 here")


class TestSteadyState:
    def test_d_zero_is_breadth_through_alpha(self, golden_counts):
        chain = build_chain(golden_counts, 0.0)
        result = steady_state(chain)
        assert result.method == "cg"
        assert_allclose(result.gamma, chain.breadth @ dense_blocks(golden_counts, 0.0)[0], rtol=1e-15, atol=0)
        assert result.residual <= 1e-15

    def test_d_one_is_the_closed_form(self, golden_counts):
        result = steady_state(build_chain(golden_counts, 1.0))
        assert result.method == "closed_form"
        n_group, n_venue = golden_counts.n_group, golden_counts.n_venue
        assert_array_equal(result.gamma, n_group / n_group.sum())
        nu = result.gamma @ dense_blocks(golden_counts, 1.0)[1]
        assert_allclose(nu, n_venue / n_venue.sum(), rtol=0, atol=1e-15)
        assert result.residual <= 1e-15

    def test_d_near_one_uniform_chain(self):
        result = steady_state(build_chain(_uniform_table(40, 1), 0.999))
        assert result.method == "cg"
        assert_allclose(result.gamma, np.full(40, 1 / 40), rtol=0, atol=1e-15)

    def test_golden_example(self, golden_counts):
        result = steady_state(build_chain(golden_counts, GOLDEN_D))
        assert_allclose(result.gamma, [38 / 99, 61 / 99], rtol=0, atol=1e-15)
        assert result.residual <= 1e-15

    def test_residual_matches_reduced_matrix(self, golden_counts, monkeypatch):
        monkeypatch.setattr(solver, "STEPS_PER_GROUP", 0)  # deliberately unconverged: gamma = N / sum N
        result = steady_state(build_chain(golden_counts, 0.7))
        reduced = dense_reduced(golden_counts, 0.7)
        expected = float(np.max(np.abs(result.gamma @ reduced - result.gamma)))
        assert result.residual > 1e-6
        assert result.residual == pytest.approx(expected, rel=1e-12)

    @extended
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rounding_near_d_one(self, seed):
        # Zipf venue sizes, like a real corpus; a relative error of 1e-15 in
        # gamma moves 12th printed digits
        rng = np.random.default_rng(seed)
        weights = 1 / np.arange(1, 601) ** 1.1
        n = np.array([rng.multinomial(int(rng.integers(200, 2000)), weights / weights.sum())
                      for _ in range(30)])
        n = n[:, n.sum(axis=0) > 0]
        table = _table(n, rng.integers(1, 500, size=n.shape[1]))
        result = steady_state(build_chain(table, 0.999))
        assert result.residual <= 8e-16 * result.gamma.max()
        exact = stationary_extended(table, 0.999)
        assert np.max(np.abs((result.gamma - exact) / exact)) <= 9e-16

    @extended
    @pytest.mark.parametrize("t", [100, 300])
    def test_path_graph_near_d_one(self, t):
        # off sqrt(N), I - d S keeps its spectrum above about 1 - lambda_2, near 1e-4 at T = 300, however
        # close d comes to 1
        table = _path_table(t)
        for d in (0.99, 0.99999, 1 - 1e-7, 1 - 1e-12):
            result = steady_state(build_chain(table, d))
            assert result.method == "cg"
            assert np.max(np.abs(result.gamma - stationary_extended(table, d))) <= 1e-13 * result.gamma.max()
            assert abs(result.gamma.sum() - 1) <= 1e-15  # no drift along sqrt(N), which I - d S cannot see

    def test_disconnected_groups_near_d_one(self):
        # no venue is shared, so gamma = breadth @ alpha = [1/4, 3/4] at every d < 1; the plain
        # operator p - d S p loses 1 - d to rounding here and is off by 5e-6
        table = _table(np.array([[2, 0], [0, 1]]), [1, 3])
        result = steady_state(build_chain(table, 1 - 1e-12))
        assert np.max(np.abs(result.gamma - [0.25, 0.75])) <= 1e-16

    @extended
    @settings(max_examples=60, deadline=None)
    @given(count_tables(), st.floats(0.999, 1 - 1e-12))
    def test_near_d_one(self, table, d):
        # on a disconnected table I - d S has a second eigenvalue 1 - d, so the rounding of one walk
        # costs about eps / (1 - d), whatever the solver
        result = steady_state(build_chain(table, d))
        assert np.max(np.abs(result.gamma - stationary_extended(table, d))) <= max(1e-13, 1e-16 / (1 - d))
        assert result.method == "cg"

    @settings(max_examples=150, deadline=None)
    @given(count_tables(), st.one_of(st.floats(0.0, 0.999), st.just(1.0)))
    def test_paths_agree(self, table, d):
        chain = build_chain(table, d)
        assume(check_irreducible(chain).irreducible)
        reduced = dense_reduced(table, d)
        result = steady_state(chain)
        if np.finfo(np.longdouble).eps < 1e-18:
            exact, bounds = stationary_extended(table, d), (1e-13, 1e-15)
        else:  # longdouble is float64 here, so the LAPACK solve is the reference
            exact, bounds = stationary_by_solve(reduced), (1e-12, 1e-12)
        for gamma, bound in zip((result.gamma, gth_steady_state(reduced).gamma), bounds):
            assert np.max(np.abs(gamma - exact)) <= bound
        assert np.all(result.gamma >= 0)
        assert result.residual <= 1e-12
        assert result.method == ("closed_form" if d == 1.0 else "cg")
