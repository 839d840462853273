import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pscore import (
    ChainError,
    ConvergenceError,
    CountsTable,
    DisconnectedChainError,
    build_chain,
    build_reduced,
    gth_steady_state,
    steady_state,
)
from pscore.solver import sweep_count, sweep_steady_state

from conftest import GOLDEN_D, GOLDEN_GAMMA, GOLDEN_REDUCED, random_stochastic_matrix
from oracles import power_iteration, stationary_by_solve

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
    t, v = n.shape
    return CountsTable(n, d_venue, [f"g{w}" for w in range(t)], [f"v{j}" for j in range(v)])


def _uniform_table(t: int, v: int) -> CountsTable:
    """Every group publishes once at every venue; one author per venue."""
    return _table(np.ones((t, v), dtype=int), [1] * v)


@st.composite
def count_tables(draw):
    """Count tables with T, V in 1..40, sparse cells, and positive marginals."""
    t, v = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = rng.integers(1, 10, size=(t, v)) * (rng.random((t, v)) < density)
    n[np.arange(t), np.arange(t) % v] += 1  # every group publishes somewhere
    n[np.arange(v) % t, np.arange(v)] += 1  # every venue has a paper
    return _table(n, rng.integers(1, 1000, size=v))


class TestSteadyState:
    def test_sweep_count(self):
        assert sweep_count(0.0) == 0
        assert sweep_count(0.5) == 58
        assert 2 * 0.5**58 <= 1e-17 < 2 * 0.5**57
        assert 2 * 0.9 ** sweep_count(0.9) <= 1e-17 < 2 * 0.9 ** (sweep_count(0.9) - 1)

    def test_d_zero_is_breadth_through_alpha(self, golden_counts):
        chain = build_chain(golden_counts, 0.0)
        result = steady_state(chain)
        assert result.method == "sweep"
        assert_allclose(result.gamma, chain.breadth @ chain.alpha, rtol=1e-15, atol=0)
        assert result.residual <= 1e-15

    def test_d_one_takes_gth(self):
        # sweeping would be cheap at any d < 1 here, but at d = 1 it does not contract
        chain = build_chain(_uniform_table(40, 1), 1.0)
        assert steady_state(chain).method == "gth"
        assert steady_state(build_chain(_uniform_table(40, 1), 0.5)).method == "sweep"

    def test_d_near_one_small_chain_takes_gth(self):
        chain = build_chain(_uniform_table(40, 1), 0.999)
        assert sweep_count(0.999) * 1 > 40**2
        result = steady_state(chain)
        assert result.method == "gth"
        assert_allclose(result.gamma, np.full(40, 1 / 40), rtol=0, atol=1e-15)

    def test_cost_rule_boundary(self):
        # T = V = k puts k V exactly at T^2, which sweeps; one venue more takes GTH
        k = sweep_count(0.5)
        assert steady_state(build_chain(_uniform_table(k, k), 0.5)).method == "sweep"
        assert steady_state(build_chain(_uniform_table(k, k + 1), 0.5)).method == "gth"

    def test_golden_example(self, golden_counts):
        chain = build_chain(golden_counts, GOLDEN_D)
        swept = sweep_steady_state(chain, sweep_count(GOLDEN_D))
        chosen = steady_state(chain)
        assert chosen.method == "gth"  # T = 2 is far below the sweep's break-even
        for result in (swept, chosen):
            assert_allclose(result.gamma, [38 / 99, 61 / 99], rtol=0, atol=1e-15)
            assert result.residual <= 1e-15

    def test_residual_matches_reduced_matrix(self, golden_counts):
        chain = build_chain(golden_counts, 0.7)
        result = sweep_steady_state(chain, 3)  # deliberately unconverged
        reduced = build_reduced(chain)
        expected = float(np.max(np.abs(result.gamma @ reduced - result.gamma)))
        assert result.residual > 1e-6
        assert result.residual == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(count_tables(), st.floats(0.0, 0.999))
    def test_paths_agree(self, table, d):
        chain = build_chain(table, d)
        reduced = build_reduced(chain)
        chosen = steady_state(chain)
        gth = gth_steady_state(reduced)
        lapack = stationary_by_solve(reduced)
        swept = sweep_steady_state(chain, sweep_count(d))
        for result in (chosen, gth, swept):
            assert np.max(np.abs(result.gamma - lapack)) <= 1e-12
            assert result.residual <= 1e-12
        cheap = sweep_count(d) * table.num_venues <= table.num_groups**2
        assert chosen.method == ("sweep" if cheap else "gth")
