import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from pscore import (
    ChainError,
    CountsTable,
    DisconnectedChainError,
    ParameterError,
    ReputationChain,
    build_chain,
    check_irreducible,
    steady_state,
)
from pscore import solver
from pscore.solver import EPS, MAX_STEPS, gth_steady_state, iteration_count

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


class TestSteadyState:
    def test_d_zero_is_breadth_through_alpha(self, golden_counts):
        chain = build_chain(golden_counts, 0.0)
        result = steady_state(chain)
        assert result.method == "chebyshev"
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

    def test_iteration_count(self):
        # 2 sqrt(sum N / min N(w)) rho^k <= EPS first holds at the pinned k
        n_group = np.array([1, 999])
        assert iteration_count(n_group, 0.5) == 25
        assert iteration_count(n_group, 0.999) == 685
        for d in (0.5, 0.9, 0.999):
            k = iteration_count(n_group, d)
            rho = (1 - math.sqrt(1 - d)) / (1 + math.sqrt(1 - d))
            scale = 2 * math.sqrt(1000 / 1)
            assert scale * rho**k <= EPS < scale * rho ** (k - 1)
        assert iteration_count(n_group, 0.0) == 1

    def test_d_too_close_to_one_is_refused_before_the_first_step(self, golden_counts, monkeypatch):
        # 1 - 1e-12 once ran 21.8 million steps, about 50 minutes, on a 1000-group input
        d = 0.999999999999
        steps = iteration_count(golden_counts.n_group, d)
        assert steps > MAX_STEPS

        def no_step(self, gamma):
            raise AssertionError("a Chebyshev step ran")

        monkeypatch.setattr(ReputationChain, "to_venues", no_step)
        message = (rf"d = 0\.999999999999 needs {steps} Chebyshev steps, "
                   rf"more than the cap of {MAX_STEPS}; .*d = 1,")
        with pytest.raises(ParameterError, match=message):
            steady_state(build_chain(golden_counts, d))

    def test_step_cap_is_inclusive(self, golden_counts, monkeypatch):
        steps = iteration_count(golden_counts.n_group, 0.9)
        monkeypatch.setattr(solver, "MAX_STEPS", steps)
        assert steady_state(build_chain(golden_counts, 0.9)).method == "chebyshev"
        monkeypatch.setattr(solver, "MAX_STEPS", steps - 1)
        with pytest.raises(ParameterError, match=f"needs {steps} Chebyshev steps"):
            steady_state(build_chain(golden_counts, 0.9))

    def test_d_near_one_uniform_chain(self):
        result = steady_state(build_chain(_uniform_table(40, 1), 0.999))
        assert result.method == "chebyshev"
        assert_allclose(result.gamma, np.full(40, 1 / 40), rtol=0, atol=1e-15)

    def test_golden_example(self, golden_counts):
        result = steady_state(build_chain(golden_counts, GOLDEN_D))
        assert_allclose(result.gamma, [38 / 99, 61 / 99], rtol=0, atol=1e-15)
        assert result.residual <= 1e-15

    def test_residual_matches_reduced_matrix(self, golden_counts, monkeypatch):
        monkeypatch.setattr(solver, "iteration_count", lambda n_group, d: 2)  # deliberately unconverged
        result = steady_state(build_chain(golden_counts, 0.7))
        reduced = dense_reduced(golden_counts, 0.7)
        expected = float(np.max(np.abs(result.gamma @ reduced - result.gamma)))
        assert result.residual > 1e-6
        assert result.residual == pytest.approx(expected, rel=1e-12)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="longdouble is float64 here")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rounding_near_d_one(self, seed):
        # Zipf venue sizes, like a real corpus. Without the closing sweep the
        # residual is 1.3e-15 to 2.7e-15 of max(gamma) at d = 0.999; with
        # bincount's sequential sums instead of pairwise ones the relative
        # error is 1.3e-15 to 2.3e-15. Both move 12th printed digits.
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
        assert result.method == ("closed_form" if d == 1.0 else "chebyshev")
